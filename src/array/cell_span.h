// CellSpanView: an allocation-free view over every materialized cell of an
// Array, in the same deterministic order as Array::AllCells() — chunks in
// lexicographic coordinate order, cells in insertion order within a chunk —
// but without materializing Cell values. Whole-array consumers (quantile
// gathers, kNN sampling) iterate the chunks' columnar storage through it
// and index cells by a stable global position.
//
// Refers to the array's chunk directory: valid only while the array outlives
// the view unmodified.

#ifndef ARRAYDB_ARRAY_CELL_SPAN_H_
#define ARRAYDB_ARRAY_CELL_SPAN_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "array/array.h"
#include "array/chunk.h"

namespace arraydb::array {

class CellSpanView {
 public:
  /// Views every cell of `array`.
  explicit CellSpanView(const Array& array);

  /// Materialized cells covered by the view.
  int64_t num_cells() const { return num_cells_; }
  bool empty() const { return num_cells_ == 0; }

  /// The array's chunk directory (lexicographic coordinate order).
  const std::vector<const Chunk*>& chunks() const { return *chunks_; }

  struct Location {
    const Chunk* chunk = nullptr;
    size_t index = 0;  // Cell index within the chunk.
  };

  /// Maps a global cell index (AllCells order, in [0, num_cells())) to its
  /// chunk and local cell index.
  Location Locate(int64_t global_index) const;

  /// Slices the global cell range [begin, end) into maximal per-chunk runs:
  /// invokes fn(chunk, local_begin, local_end) for each chunk the range
  /// touches, in global order. This is how morsels over a cell range map
  /// onto contiguous columnar storage (exec::MorselScheduler).
  template <typename Fn>
  void ForEachSlice(int64_t begin, int64_t end, Fn&& fn) const {
    if (begin >= end) return;
    const auto it =
        std::upper_bound(offsets_.begin(), offsets_.end(), begin);
    size_t chunk_idx = static_cast<size_t>(it - offsets_.begin()) - 1;
    int64_t cursor = begin;
    while (cursor < end) {
      const Chunk* chunk = (*chunks_)[chunk_idx];
      const int64_t chunk_begin = offsets_[chunk_idx];
      const int64_t chunk_end = offsets_[chunk_idx + 1];
      const int64_t slice_end = std::min(end, chunk_end);
      fn(*chunk, static_cast<size_t>(cursor - chunk_begin),
         static_cast<size_t>(slice_end - chunk_begin));
      cursor = slice_end;
      ++chunk_idx;
    }
  }

  /// Invokes fn(chunk, cell_index, global_index) for every cell in global
  /// order.
  template <typename Fn>
  void ForEachCell(Fn&& fn) const {
    int64_t global = 0;
    for (const Chunk* chunk : *chunks_) {
      const size_t n = chunk->num_cells();
      for (size_t i = 0; i < n; ++i, ++global) {
        fn(*chunk, i, global);
      }
    }
  }

  /// Copies attribute `attr` of every cell into a single packed column, in
  /// global order.
  std::vector<double> GatherAttr(size_t attr) const;

 private:
  const std::vector<const Chunk*>* chunks_;  // The array's directory.
  std::vector<int64_t> offsets_;  // Cumulative cell counts; size chunks_+1.
  int64_t num_cells_ = 0;
};

}  // namespace arraydb::array

#endif  // ARRAYDB_ARRAY_CELL_SPAN_H_

// Chunks: the unit of I/O, memory allocation, and data placement.
//
// A chunk is an n-dimensional subarray identified by its chunk-grid
// coordinates. Its physical size is variable — only non-empty cells are
// stored — and, following SciDB's vertical partitioning, each attribute is a
// separate physical chunk; all attributes of the same chunk position are
// collocated on the same node, so placement operates on the combined size.
//
// ChunkInfo carries only metadata (coordinates + cell count + bytes), which
// is what the paper-scale simulation places. Chunk materializes the cells
// themselves for query execution; it is created with its first cell, so it
// always holds at least one.
//
// Materialized storage is columnar (structure of arrays): one packed
// coordinate vector (ndims values per cell, insertion order) plus one
// contiguous value column per attribute, and a maintained bounding box over
// the stored positions. Scan operators iterate the columns linearly and
// prune whole chunks via the bounding box instead of walking per-cell
// structs.

#ifndef ARRAYDB_ARRAY_CHUNK_H_
#define ARRAYDB_ARRAY_CHUNK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "array/coordinates.h"

namespace arraydb::array {

/// Placement-relevant metadata for one chunk position (all attributes).
struct ChunkInfo {
  Coordinates coords;      // Position in the chunk grid.
  int64_t cell_count = 0;  // Non-empty cells stored.
  int64_t bytes = 0;       // Physical footprint over all attributes.

  std::string ToString() const;
};

/// One materialized cell: its logical position plus one value per attribute
/// (numeric attributes only; strings are modelled by their footprint).
/// Used as a value type at API boundaries; chunks store columns, not Cells.
struct Cell {
  Coordinates pos;
  std::vector<double> values;
};

/// A materialized chunk: metadata plus columnar cell payload.
class Chunk {
 public:
  explicit Chunk(Coordinates coords) { info_.coords = std::move(coords); }

  const ChunkInfo& info() const { return info_; }
  const Coordinates& coords() const { return info_.coords; }
  int64_t cell_count() const { return info_.cell_count; }
  int64_t bytes() const { return info_.bytes; }

  /// Appends a cell and grows the byte footprint by `bytes_per_cell`.
  void AppendCell(const Coordinates& pos, const std::vector<double>& values,
                  int64_t bytes_per_cell);

  // -- Columnar access ------------------------------------------------------

  /// Number of stored cells: cell_count() as an index type.
  size_t num_cells() const { return static_cast<size_t>(info_.cell_count); }

  /// Rank of stored positions (the chunk-grid rank).
  size_t num_dims() const { return info_.coords.size(); }

  size_t num_attrs() const { return attrs_.size(); }

  /// Pointer to the `i`-th stored position (num_dims consecutive values).
  const int64_t* cell_pos(size_t i) const {
    return coords_.data() + i * num_dims();
  }

  /// Packed coordinates, num_dims values per cell in insertion order.
  const std::vector<int64_t>& packed_coords() const { return coords_; }

  /// Contiguous value column of attribute `attr`.
  const std::vector<double>& attr_column(size_t attr) const {
    return attrs_[attr];
  }

  /// Value of attribute `attr` at cell `i`.
  double attr_value(size_t attr, size_t i) const { return attrs_[attr][i]; }

  /// Materializes cell `i` as a value (allocates; scan loops should use the
  /// columnar accessors instead).
  Cell MaterializeCell(size_t i) const;

  /// Bounding box over the stored positions, inclusive on both ends.
  const Coordinates& bbox_lo() const { return bbox_lo_; }
  const Coordinates& bbox_hi() const { return bbox_hi_; }

 private:
  ChunkInfo info_;
  std::vector<int64_t> coords_;            // num_cells * num_dims, packed.
  std::vector<std::vector<double>> attrs_; // One column per attribute.
  Coordinates bbox_lo_;
  Coordinates bbox_hi_;
};

}  // namespace arraydb::array

#endif  // ARRAYDB_ARRAY_CHUNK_H_

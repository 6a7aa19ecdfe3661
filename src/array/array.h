// An Array is a schema plus a sparse collection of non-empty chunks keyed by
// chunk-grid coordinates. Only non-empty cells are stored, so the on-disk
// footprint is a function of cell counts, not the declared array size (§2).
// A chunk exists only once a cell lands in it: every chunk holds at least
// one cell and has a valid bounding box.
//
// Beside the chunk map, the array keeps a chunk directory: pointers to every
// chunk in lexicographic chunk-coordinate order, maintained on write. Readers
// (operators, serving sessions, morsel workers) only read it, so any number
// of them may share one array while no writer runs.

#ifndef ARRAYDB_ARRAY_ARRAY_H_
#define ARRAYDB_ARRAY_ARRAY_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "array/chunk.h"
#include "array/coordinates.h"
#include "array/schema.h"
#include "util/status.h"

namespace arraydb::array {

class Array {
 public:
  explicit Array(ArraySchema schema);

  /// Copies rebuild the chunk directory against the copy's own chunks.
  Array(const Array& other);
  Array& operator=(const Array& other);
  /// Moves keep the map's nodes, so the directory moves with them.
  Array(Array&&) = default;
  Array& operator=(Array&&) = default;

  const ArraySchema& schema() const { return schema_; }

  /// Inserts a materialized cell at logical position `pos`; routes it into
  /// the owning chunk (creating the chunk, and its directory entry, if
  /// needed). A rejected cell (wrong rank or attribute count, outside the
  /// declared range, or a chunk index past int64) changes nothing.
  util::Status InsertCell(const Coordinates& pos, std::vector<double> values);

  /// Looks up a chunk; nullptr when absent.
  const Chunk* FindChunk(const Coordinates& chunk_coords) const;

  int64_t num_chunks() const { return static_cast<int64_t>(chunks_.size()); }
  int64_t total_cells() const { return total_cells_; }
  int64_t total_bytes() const { return total_bytes_; }

  /// Chunk metadata in deterministic (lexicographic) order.
  std::vector<ChunkInfo> ChunkInfos() const;

  /// The chunk directory: pointers to all chunks in lexicographic
  /// chunk-coordinate order, for operators that must produce order-stable
  /// output. Maintained on write, not per call: a new chunk is appended
  /// when it sorts last (time-ordered ingest) and otherwise inserted at its
  /// place, O(C) in the worst case. The reference
  /// stays valid, and its order current, across later writes; the pointers
  /// stay valid until the array is destroyed (a moved-to array takes them
  /// over; a copy gets its own).
  const std::vector<const Chunk*>& SortedChunks() const { return sorted_; }

  /// All materialized cells (test/example scale only), in deterministic
  /// order: chunks by coordinates, cells in insertion order within a chunk.
  std::vector<Cell> AllCells() const;

 private:
  /// Adds a newly created chunk to the directory at its sorted position.
  void AddToDirectory(const Chunk* chunk);

  ArraySchema schema_;
  std::unordered_map<Coordinates, Chunk, CoordinatesHash> chunks_;
  std::vector<const Chunk*> sorted_;  // Points into chunks_' nodes.
  int64_t total_cells_ = 0;
  int64_t total_bytes_ = 0;
};

}  // namespace arraydb::array

#endif  // ARRAYDB_ARRAY_ARRAY_H_

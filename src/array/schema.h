// Array schemas: named dimensions with chunk intervals plus named, typed
// attributes — the SciDB declaration model from §2 of the paper, e.g.
//
//   A<i:int32, j:float>[x=1:4,2, y=1:4,2]
//
// Dimensions define a contiguous logical space subdivided into chunks by a
// per-dimension stride ("chunk interval"). Attributes are vertically
// partitioned: each physical chunk stores exactly one attribute.

#ifndef ARRAYDB_ARRAY_SCHEMA_H_
#define ARRAYDB_ARRAY_SCHEMA_H_

#include <cstdint>
#include <string>
#include <vector>

#include "array/coordinates.h"
#include "util/status.h"

namespace arraydb::array {

/// One array dimension: a declared [lo, hi] cell range (hi may be unbounded
/// for e.g. time series) cut into chunks of `chunk_interval` cells.
struct DimensionDesc {
  std::string name;
  int64_t lo = 0;
  int64_t hi = 0;  // Inclusive; ignored when unbounded.
  int64_t chunk_interval = 1;
  bool unbounded = false;

  /// Number of chunks along this dimension (requires a bounded range).
  int64_t ChunkCount() const;

  /// Chunk-grid index of cell coordinate `cell` (0-based). Requires
  /// ChunkIndexFits(cell).
  int64_t ChunkIndexOf(int64_t cell) const;

  /// True when the chunk index of `cell` fits in int64. Only an interval of
  /// 1 with a cell more than INT64_MAX cells from lo fails.
  bool ChunkIndexFits(int64_t cell) const;

  /// Lowest cell coordinate of chunk `chunk_index`.
  int64_t ChunkLow(int64_t chunk_index) const;

  /// Cell extent of this dimension (hi - lo + 1); requires bounded.
  int64_t Extent() const;
};

/// Scalar attribute value types.
enum class AttrType {
  kInt32,
  kInt64,
  kFloat,
  kDouble,
  kChar,
  kString,
};

/// Storage footprint of one value of `type` (average footprint for strings).
int64_t AttrTypeBytes(AttrType type);
const char* AttrTypeName(AttrType type);

/// One named, typed attribute.
struct AttributeDesc {
  std::string name;
  AttrType type = AttrType::kDouble;
};

/// Immutable description of an array: dimensions + attributes.
class ArraySchema {
 public:
  ArraySchema() = default;
  ArraySchema(std::string name, std::vector<DimensionDesc> dims,
              std::vector<AttributeDesc> attrs);

  /// Validates ranges (each bounded extent must fit in int64), intervals,
  /// and name uniqueness.
  util::Status Validate() const;

  const std::string& name() const { return name_; }
  const std::vector<DimensionDesc>& dims() const { return dims_; }
  const std::vector<AttributeDesc>& attrs() const { return attrs_; }
  int num_dims() const { return static_cast<int>(dims_.size()); }
  int num_attrs() const { return static_cast<int>(attrs_.size()); }

  /// Bytes stored per non-empty cell, summed over all attributes.
  int64_t BytesPerCell() const;

  /// Chunk-grid coordinates containing logical cell `cell`.
  Coordinates ChunkOf(const Coordinates& cell) const;

  /// Extent of the chunk grid in each dimension (bounded dims only).
  Coordinates ChunkGridExtents() const;

  /// Total number of chunk slots in the (bounded) grid.
  int64_t TotalChunkSlots() const;

  /// Maximum number of cells a chunk can hold (product of chunk intervals).
  int64_t CellsPerChunkCap() const;

  /// Row-major linearization of chunk-grid coordinates; requires bounded
  /// dims. Inverse of DelinearizeChunkIndex.
  int64_t LinearizeChunkIndex(const Coordinates& chunk_coords) const;
  Coordinates DelinearizeChunkIndex(int64_t index) const;

  /// True if `chunk_coords` lies inside the declared chunk grid.
  bool ChunkInBounds(const Coordinates& chunk_coords) const;

  /// Renders the SciDB-style declaration, e.g.
  /// "A<i:int32,j:float>[x=1:4,2, y=1:4,2]".
  std::string ToString() const;

 private:
  std::string name_;
  std::vector<DimensionDesc> dims_;
  std::vector<AttributeDesc> attrs_;
};

}  // namespace arraydb::array

#endif  // ARRAYDB_ARRAY_SCHEMA_H_

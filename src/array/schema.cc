#include "array/schema.h"

#include <cstdint>
#include <set>
#include <utility>

#include "util/logging.h"
#include "util/strings.h"

namespace arraydb::array {

int64_t DimensionDesc::ChunkCount() const {
  ARRAYDB_CHECK(!unbounded);
  // Ceil division without the `extent + interval - 1` that overflows when
  // the extent is near INT64_MAX.
  const int64_t extent = Extent();
  return extent / chunk_interval + (extent % chunk_interval != 0 ? 1 : 0);
}

bool DimensionDesc::ChunkIndexFits(int64_t cell) const {
  // At interval 1 the index is the offset from lo itself, which must fit in
  // int64 (down to INT64_MIN below lo); any larger interval halves a uint64
  // offset into range.
  const uint64_t offset =
      static_cast<uint64_t>(cell) - static_cast<uint64_t>(lo);
  const uint64_t top = cell >= lo ? offset : -offset - 1;
  return chunk_interval > 1 || top <= static_cast<uint64_t>(INT64_MAX);
}

int64_t DimensionDesc::ChunkIndexOf(int64_t cell) const {
  // Floor division of the uint64 offset from the dimension origin, so no
  // int64 extreme overflows; cells below lo are a caller bug for bounded
  // dims but tolerated for unbounded ones.
  ARRAYDB_CHECK(ChunkIndexFits(cell));
  const uint64_t offset =
      static_cast<uint64_t>(cell) - static_cast<uint64_t>(lo);
  const uint64_t interval = static_cast<uint64_t>(chunk_interval);
  if (cell >= lo) return static_cast<int64_t>(offset / interval);
  return -static_cast<int64_t>((-offset - 1) / interval) - 1;
}

int64_t DimensionDesc::ChunkLow(int64_t chunk_index) const {
  return lo + chunk_index * chunk_interval;
}

int64_t DimensionDesc::Extent() const {
  ARRAYDB_CHECK(!unbounded);
  // Taken in uint64 so no int64 extreme overflows; Validate rejects an
  // extent above INT64_MAX.
  return static_cast<int64_t>(static_cast<uint64_t>(hi) -
                              static_cast<uint64_t>(lo) + 1);
}

int64_t AttrTypeBytes(AttrType type) {
  switch (type) {
    case AttrType::kInt32:
      return 4;
    case AttrType::kInt64:
      return 8;
    case AttrType::kFloat:
      return 4;
    case AttrType::kDouble:
      return 8;
    case AttrType::kChar:
      return 1;
    case AttrType::kString:
      return 24;  // Average payload for the AIS provenance strings.
  }
  return 8;
}

const char* AttrTypeName(AttrType type) {
  switch (type) {
    case AttrType::kInt32:
      return "int32";
    case AttrType::kInt64:
      return "int64";
    case AttrType::kFloat:
      return "float";
    case AttrType::kDouble:
      return "double";
    case AttrType::kChar:
      return "char";
    case AttrType::kString:
      return "string";
  }
  return "?";
}

ArraySchema::ArraySchema(std::string name, std::vector<DimensionDesc> dims,
                         std::vector<AttributeDesc> attrs)
    : name_(std::move(name)), dims_(std::move(dims)), attrs_(std::move(attrs)) {}

util::Status ArraySchema::Validate() const {
  if (name_.empty()) return util::InvalidArgument("array name is empty");
  if (dims_.empty()) return util::InvalidArgument("array has no dimensions");
  if (attrs_.empty()) return util::InvalidArgument("array has no attributes");
  std::set<std::string> names;
  for (const auto& d : dims_) {
    if (d.name.empty()) return util::InvalidArgument("dimension name empty");
    if (!names.insert(d.name).second) {
      return util::InvalidArgument("duplicate dimension name: " + d.name);
    }
    if (d.chunk_interval <= 0) {
      return util::InvalidArgument("non-positive chunk interval for " + d.name);
    }
    if (!d.unbounded && d.hi < d.lo) {
      return util::InvalidArgument("empty range for dimension " + d.name);
    }
    if (!d.unbounded && d.Extent() <= 0) {  // hi - lo + 1 wrapped past int64.
      return util::InvalidArgument("extent exceeds int64 for " + d.name);
    }
  }
  for (const auto& a : attrs_) {
    if (a.name.empty()) return util::InvalidArgument("attribute name empty");
    if (!names.insert(a.name).second) {
      return util::InvalidArgument("duplicate attribute name: " + a.name);
    }
  }
  return util::Status::Ok();
}

int64_t ArraySchema::BytesPerCell() const {
  int64_t total = 0;
  for (const auto& a : attrs_) total += AttrTypeBytes(a.type);
  return total;
}

Coordinates ArraySchema::ChunkOf(const Coordinates& cell) const {
  ARRAYDB_CHECK_EQ(cell.size(), dims_.size());
  Coordinates out(cell.size());
  for (size_t i = 0; i < cell.size(); ++i) {
    out[i] = dims_[i].ChunkIndexOf(cell[i]);
  }
  return out;
}

Coordinates ArraySchema::ChunkGridExtents() const {
  Coordinates out(dims_.size());
  for (size_t i = 0; i < dims_.size(); ++i) out[i] = dims_[i].ChunkCount();
  return out;
}

int64_t ArraySchema::TotalChunkSlots() const {
  int64_t total = 1;
  for (const auto& d : dims_) total *= d.ChunkCount();
  return total;
}

int64_t ArraySchema::CellsPerChunkCap() const {
  int64_t total = 1;
  for (const auto& d : dims_) total *= d.chunk_interval;
  return total;
}

int64_t ArraySchema::LinearizeChunkIndex(const Coordinates& chunk_coords) const {
  ARRAYDB_CHECK_EQ(chunk_coords.size(), dims_.size());
  int64_t index = 0;
  for (size_t i = 0; i < dims_.size(); ++i) {
    const int64_t count = dims_[i].ChunkCount();
    ARRAYDB_CHECK_GE(chunk_coords[i], 0);
    ARRAYDB_CHECK_LT(chunk_coords[i], count);
    index = index * count + chunk_coords[i];
  }
  return index;
}

Coordinates ArraySchema::DelinearizeChunkIndex(int64_t index) const {
  Coordinates out(dims_.size());
  for (size_t i = dims_.size(); i-- > 0;) {
    const int64_t count = dims_[i].ChunkCount();
    out[i] = index % count;
    index /= count;
  }
  ARRAYDB_CHECK_EQ(index, 0);
  return out;
}

bool ArraySchema::ChunkInBounds(const Coordinates& chunk_coords) const {
  if (chunk_coords.size() != dims_.size()) return false;
  for (size_t i = 0; i < dims_.size(); ++i) {
    if (chunk_coords[i] < 0) return false;
    if (!dims_[i].unbounded && chunk_coords[i] >= dims_[i].ChunkCount()) {
      return false;
    }
  }
  return true;
}

std::string ArraySchema::ToString() const {
  std::vector<std::string> attr_strs;
  attr_strs.reserve(attrs_.size());
  for (const auto& a : attrs_) {
    attr_strs.push_back(a.name + ":" + AttrTypeName(a.type));
  }
  std::vector<std::string> dim_strs;
  dim_strs.reserve(dims_.size());
  for (const auto& d : dims_) {
    if (d.unbounded) {
      dim_strs.push_back(util::StrFormat(
          "%s=%lld:*,%lld", d.name.c_str(), static_cast<long long>(d.lo),
          static_cast<long long>(d.chunk_interval)));
    } else {
      dim_strs.push_back(util::StrFormat(
          "%s=%lld:%lld,%lld", d.name.c_str(), static_cast<long long>(d.lo),
          static_cast<long long>(d.hi),
          static_cast<long long>(d.chunk_interval)));
    }
  }
  return name_ + "<" + util::Join(attr_strs, ",") + ">[" +
         util::Join(dim_strs, ", ") + "]";
}

}  // namespace arraydb::array

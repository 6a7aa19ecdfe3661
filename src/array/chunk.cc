#include "array/chunk.h"

#include <algorithm>

#include "util/logging.h"
#include "util/strings.h"

namespace arraydb::array {

std::string ChunkInfo::ToString() const {
  return util::StrFormat("chunk%s cells=%lld bytes=%lld",
                         CoordinatesToString(coords).c_str(),
                         static_cast<long long>(cell_count),
                         static_cast<long long>(bytes));
}

void Chunk::AppendCell(const Coordinates& pos,
                       const std::vector<double>& values,
                       int64_t bytes_per_cell) {
  ARRAYDB_CHECK_EQ(pos.size(), info_.coords.size());
  if (coords_.empty()) {
    attrs_.resize(values.size());
    bbox_lo_ = pos;
    bbox_hi_ = pos;
  } else {
    ARRAYDB_CHECK_EQ(values.size(), attrs_.size());
    for (size_t d = 0; d < pos.size(); ++d) {
      bbox_lo_[d] = std::min(bbox_lo_[d], pos[d]);
      bbox_hi_[d] = std::max(bbox_hi_[d], pos[d]);
    }
  }
  coords_.insert(coords_.end(), pos.begin(), pos.end());
  for (size_t a = 0; a < values.size(); ++a) attrs_[a].push_back(values[a]);
  info_.cell_count += 1;
  info_.bytes += bytes_per_cell;
}

Cell Chunk::MaterializeCell(size_t i) const {
  Cell cell;
  const int64_t* pos = cell_pos(i);
  cell.pos.assign(pos, pos + num_dims());
  cell.values.reserve(attrs_.size());
  for (const auto& column : attrs_) cell.values.push_back(column[i]);
  return cell;
}

}  // namespace arraydb::array

#include "exec/query.h"

#include "util/logging.h"

namespace arraydb::exec {

bool ChunkRegion::Contains(const array::Coordinates& chunk_coords) const {
  ARRAYDB_CHECK_EQ(chunk_coords.size(), lo.size());
  for (size_t d = 0; d < lo.size(); ++d) {
    if (chunk_coords[d] < lo[d] || chunk_coords[d] > hi[d]) return false;
  }
  return true;
}

ChunkRegion ChunkRegion::All(int num_dims) {
  ChunkRegion region;
  region.lo.assign(static_cast<size_t>(num_dims), INT64_MIN / 2);
  region.hi.assign(static_cast<size_t>(num_dims), INT64_MAX / 2);
  return region;
}

}  // namespace arraydb::exec

#include "core/partitioner.h"

#include <vector>

#include "util/rng.h"
#include "util/strings.h"

namespace arraydb::core {

std::string FeaturesToString(uint32_t features) {
  std::vector<std::string> parts;
  if (features & kIncrementalScaleOut) parts.push_back("incremental");
  if (features & kFineGrainedPartitioning) parts.push_back("fine-grained");
  if (features & kSkewAware) parts.push_back("skew-aware");
  if (features & kNDimensionalClustering) parts.push_back("n-dim-clustered");
  if (parts.empty()) return "none";
  return util::Join(parts, "|");
}

uint64_t ChunkHash(const array::Coordinates& coords) {
  uint64_t h = 0x853c49e6748fea9bULL;  // Fixed salt: placement must be stable.
  for (int64_t v : coords) {
    h = util::HashCombine(h, static_cast<uint64_t>(v));
  }
  return util::SplitMix64(h);
}

cluster::MovePlan Partitioner::MovesToTable(
    const std::vector<cluster::ChunkRecord>& chunks) const {
  cluster::MovePlan plan;
  for (const auto& rec : chunks) {
    const NodeId target = Locate(rec.coords);
    if (target != rec.node) {
      plan.Add(cluster::ChunkMove{rec.coords, rec.bytes, rec.node, target});
    }
  }
  return plan;
}

}  // namespace arraydb::core

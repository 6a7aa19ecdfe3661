#include "reorg/dual_residency.h"

namespace arraydb::reorg {

bool DualResidencyView::Lookup(const array::Coordinates& coords,
                               cluster::NodeId* node, int64_t* bytes) const {
  const cluster::ChunkRecord* rec = cluster_->Find(coords);
  if (rec == nullptr) return false;
  *node = rec->ReadNode();
  *bytes = rec->bytes;
  return true;
}

void DualResidencyView::ForEachChunk(
    const std::function<void(const array::Coordinates&, cluster::NodeId,
                             int64_t)>& fn) const {
  for (const cluster::ChunkRecord& rec : cluster_->AllChunks()) {
    fn(rec.coords, rec.ReadNode(), rec.bytes);
  }
}

}  // namespace arraydb::reorg

#include "core/consistent_hash.h"

#include "util/logging.h"
#include "util/rng.h"

namespace arraydb::core {

ConsistentHashPartitioner::ConsistentHashPartitioner(int initial_nodes,
                                                     int vnodes_per_node)
    : vnodes_per_node_(vnodes_per_node), num_nodes_(0) {
  ARRAYDB_CHECK_GE(initial_nodes, 1);
  ARRAYDB_CHECK_GE(vnodes_per_node, 1);
  for (NodeId n = 0; n < initial_nodes; ++n) InsertNode(n);
}

void ConsistentHashPartitioner::InsertNode(NodeId node) {
  for (int r = 0; r < vnodes_per_node_; ++r) {
    // Derive the vnode position from (node, replica) with a fixed salt so
    // the ring is stable across runs.
    uint64_t h = util::HashCombine(0x6a09e667f3bcc909ULL,
                                   static_cast<uint64_t>(node));
    h = util::HashCombine(h, static_cast<uint64_t>(r));
    h = util::SplitMix64(h);
    // Collisions are vanishingly rare; skip forward if one occurs so no
    // vnode silently vanishes.
    while (ring_.contains(h)) ++h;
    ring_.emplace(h, node);
  }
  ++num_nodes_;
}

NodeId ConsistentHashPartitioner::OwnerOfHash(uint64_t h) const {
  ARRAYDB_CHECK(!ring_.empty());
  auto it = ring_.lower_bound(h);
  if (it == ring_.end()) it = ring_.begin();  // Wrap around the circle.
  return it->second;
}

NodeId ConsistentHashPartitioner::PlaceChunk(const cluster::Cluster& cluster,
                                             const array::ChunkInfo& chunk) {
  ARRAYDB_CHECK_EQ(cluster.num_nodes(), num_nodes_);
  return OwnerOfHash(ChunkHash(chunk.coords));
}

cluster::MovePlan ConsistentHashPartitioner::PlanScaleOut(
    const cluster::Cluster& cluster, int old_node_count) {
  ARRAYDB_CHECK_EQ(old_node_count, num_nodes_);
  for (NodeId n = old_node_count; n < cluster.num_nodes(); ++n) {
    InsertNode(n);
  }
  return MovesToTable(cluster.AllChunks());
}

NodeId ConsistentHashPartitioner::Locate(
    const array::Coordinates& chunk_coords) const {
  return OwnerOfHash(ChunkHash(chunk_coords));
}

}  // namespace arraydb::core

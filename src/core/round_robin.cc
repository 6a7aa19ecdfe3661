#include "core/round_robin.h"

#include "util/logging.h"

namespace arraydb::core {

RoundRobinPartitioner::RoundRobinPartitioner(const array::ArraySchema& schema,
                                             int initial_nodes) {
  ARRAYDB_CHECK_GE(initial_nodes, 1);
  for (const auto& d : schema.dims()) {
    counts_.push_back(d.unbounded ? 0 : d.ChunkCount());
  }
  SetNodeCount(initial_nodes);
}

void RoundRobinPartitioner::SetNodeCount(int n) {
  num_nodes_ = n;
  counts_mod_n_.clear();
  for (const int64_t count : counts_) {
    counts_mod_n_.push_back(static_cast<uint64_t>(count) % n);
  }
}

NodeId RoundRobinPartitioner::PlaceChunk(const cluster::Cluster& cluster,
                                         const array::ChunkInfo& chunk) {
  ARRAYDB_CHECK_EQ(cluster.num_nodes(), num_nodes_);
  return Locate(chunk.coords);
}

cluster::MovePlan RoundRobinPartitioner::PlanScaleOut(
    const cluster::Cluster& cluster, int old_node_count) {
  ARRAYDB_CHECK_EQ(old_node_count, num_nodes_);
  SetNodeCount(cluster.num_nodes());
  return MovesToTable(cluster.AllChunks());
}

NodeId RoundRobinPartitioner::Locate(
    const array::Coordinates& chunk_coords) const {
  ARRAYDB_CHECK_EQ(chunk_coords.size(), counts_.size());
  // The row-major index (index * count + c per dimension) modulo N, taken
  // one dimension at a time so no grid size overflows: the running index
  // and the count are both reduced below N, so their product is below
  // N^2 <= 2^62, and adding c < 2^63 stays below 2^64.
  const auto n = static_cast<uint64_t>(num_nodes_);
  uint64_t index_mod_n = 0;
  for (size_t i = 0; i < chunk_coords.size(); ++i) {
    ARRAYDB_CHECK_GE(chunk_coords[i], 0);
    ARRAYDB_CHECK_LT(chunk_coords[i], counts_[i]);
    index_mod_n = (index_mod_n * counts_mod_n_[i] +
                   static_cast<uint64_t>(chunk_coords[i])) %
                  n;
  }
  return static_cast<NodeId>(index_mod_n);
}

}  // namespace arraydb::core

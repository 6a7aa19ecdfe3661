// Round Robin partitioner — the paper's baseline (§6.1).
//
// Chunk i (row-major linearization of its grid coordinates) is stored on
// node i mod N. Fine-grained and perfectly chunk-count balanced, but not
// skew-aware, and scale-out is global: changing N relocates most chunks.

#ifndef ARRAYDB_CORE_ROUND_ROBIN_H_
#define ARRAYDB_CORE_ROUND_ROBIN_H_

#include <cstdint>
#include <vector>

#include "core/partitioner.h"

namespace arraydb::core {

class RoundRobinPartitioner final : public Partitioner {
 public:
  explicit RoundRobinPartitioner(const array::ArraySchema& schema,
                                 int initial_nodes);

  const char* name() const override { return "Round Robin"; }
  uint32_t features() const override { return kFineGrainedPartitioning; }

  NodeId PlaceChunk(const cluster::Cluster& cluster,
                    const array::ChunkInfo& chunk) override;
  cluster::MovePlan PlanScaleOut(const cluster::Cluster& cluster,
                                 int old_node_count) override;
  NodeId Locate(const array::Coordinates& chunk_coords) const override;

 private:
  void SetNodeCount(int n);

  /// Chunk-grid extent per dimension (0 for an unbounded one, which Locate
  /// rejects), and each extent modulo num_nodes_.
  std::vector<int64_t> counts_;
  std::vector<uint64_t> counts_mod_n_;
  int num_nodes_ = 0;
};

}  // namespace arraydb::core

#endif  // ARRAYDB_CORE_ROUND_ROBIN_H_

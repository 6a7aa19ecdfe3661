// ElasticEngine: the coordinator tying cluster, partitioner, and cost model
// together. It executes the two elastic operations of the workload model —
// batch ingest and scale-out-plus-reorganize — updating placement state and
// charging simulated elapsed time.

#ifndef ARRAYDB_CORE_ELASTIC_ENGINE_H_
#define ARRAYDB_CORE_ELASTIC_ENGINE_H_

#include <memory>
#include <vector>

#include "array/chunk.h"
#include "array/schema.h"
#include "cluster/cluster.h"
#include "cluster/cost_model.h"
#include "core/partitioner.h"

namespace arraydb::core {

struct InsertStats {
  double minutes = 0.0;
  double gb = 0.0;
  int64_t chunks = 0;
};

struct ReorgStats {
  double minutes = 0.0;
  double moved_gb = 0.0;
  int64_t chunks_moved = 0;
  int nodes_added = 0;
  /// Whether every relocation targeted a newly added node (Table 1's
  /// incremental scale-out property, verified against the substrate).
  bool only_to_new_nodes = true;
};

/// A scale-out staged but not yet applied: the nodes have been added and the
/// partitioner has produced its repartitioning plan. The caller realizes the
/// plan either atomically (Cluster::Apply) or incrementally through a
/// reorg::IncrementalReorgEngine.
struct ScaleOutPrep {
  cluster::MovePlan plan;
  cluster::NodeId first_new_node = cluster::kInvalidNode;
  int nodes_added = 0;
};

class ElasticEngine {
 public:
  ElasticEngine(std::unique_ptr<Partitioner> partitioner, int initial_nodes,
                double node_capacity_gb,
                cluster::CostParams cost_params = cluster::CostParams());

  /// Number of worker threads the ingest path may use for the partitioner's
  /// placement prewarm (chunk-parallel rank computation). Placement
  /// decisions themselves stay sequential, so results are identical for
  /// every thread count. Default 1 (fully sequential); 0 = auto — resolved
  /// immediately through util::ResolveThreadCount, so ingest_threads()
  /// always reports the effective worker count.
  void set_ingest_threads(int threads);
  int ingest_threads() const { return ingest_threads_; }

  /// Ingests one batch: the coordinator (node 0) routes each chunk through
  /// the partitioner and records it in the cluster. With ingest_threads > 1
  /// the partitioner first precomputes per-chunk placement state in
  /// parallel (ordered merge), then the routing loop runs as usual.
  InsertStats IngestBatch(const std::vector<array::ChunkInfo>& batch);

  /// Adds `nodes_to_add` empty nodes, asks the partitioner for a
  /// repartitioning plan, applies it atomically, and prices the
  /// reorganization. The reference for the incremental engine, which must
  /// land the same plan at the same price.
  ReorgStats ScaleOut(int nodes_to_add);

  /// Adds `nodes_to_add` empty nodes and returns the partitioner's plan
  /// *without* applying it, for incremental execution by the caller.
  ScaleOutPrep PrepareScaleOut(int nodes_to_add);

  const cluster::Cluster& cluster() const { return cluster_; }
  /// Mutable substrate access for the incremental reorg driver.
  cluster::Cluster& mutable_cluster() { return cluster_; }
  Partitioner& partitioner() { return *partitioner_; }
  const Partitioner& partitioner() const { return *partitioner_; }
  const cluster::CostModel& cost_model() const { return cost_model_; }

 private:
  std::unique_ptr<Partitioner> partitioner_;
  cluster::Cluster cluster_;
  cluster::CostModel cost_model_;
  int ingest_threads_ = 1;
};

}  // namespace arraydb::core

#endif  // ARRAYDB_CORE_ELASTIC_ENGINE_H_

#include "core/elastic_engine.h"

#include <utility>

#include "util/logging.h"
#include "util/thread_pool.h"
#include "util/units.h"

namespace arraydb::core {

namespace {
constexpr cluster::NodeId kCoordinator = 0;
}  // namespace

ElasticEngine::ElasticEngine(std::unique_ptr<Partitioner> partitioner,
                             int initial_nodes, double node_capacity_gb,
                             cluster::CostParams cost_params)
    : partitioner_(std::move(partitioner)),
      cluster_(initial_nodes, node_capacity_gb),
      cost_model_(cost_params) {
  ARRAYDB_CHECK(partitioner_ != nullptr);
}

InsertStats ElasticEngine::IngestBatch(
    const std::vector<array::ChunkInfo>& batch) {
  InsertStats stats;
  if (ingest_threads_ > 1) {
    partitioner_->PrewarmPlacement(batch, ingest_threads_);
  }
  std::vector<std::pair<cluster::NodeId, int64_t>> destinations;
  destinations.reserve(batch.size());
  for (const auto& chunk : batch) {
    const NodeId node = partitioner_->PlaceChunk(cluster_, chunk);
    ARRAYDB_CHECK_GE(node, 0);
    ARRAYDB_CHECK_LT(node, cluster_.num_nodes());
    const auto status = cluster_.PlaceChunk(chunk.coords, chunk.bytes, node);
    ARRAYDB_CHECK(status.ok());
    destinations.emplace_back(node, chunk.bytes);
    stats.gb += util::BytesToGb(static_cast<double>(chunk.bytes));
  }
  stats.chunks = static_cast<int64_t>(batch.size());
  stats.minutes = cost_model_.InsertMinutes(destinations, kCoordinator).minutes;
  return stats;
}

void ElasticEngine::set_ingest_threads(int threads) {
  ingest_threads_ = util::ResolveThreadCount(threads);
}

ReorgStats ElasticEngine::ScaleOut(int nodes_to_add) {
  const ScaleOutPrep prep = PrepareScaleOut(nodes_to_add);

  ReorgStats stats;
  stats.nodes_added = prep.nodes_added;
  stats.only_to_new_nodes = prep.plan.OnlyToNodesAtOrAbove(prep.first_new_node);
  const auto cost = cost_model_.ReorgMinutes(prep.plan, cluster_.num_nodes());
  stats.minutes = cost.minutes;
  stats.moved_gb = cost.moved_gb;
  stats.chunks_moved = cost.chunks_moved;

  const auto status = cluster_.Apply(prep.plan);
  ARRAYDB_CHECK(status.ok());
  return stats;
}

ScaleOutPrep ElasticEngine::PrepareScaleOut(int nodes_to_add) {
  ARRAYDB_CHECK_GE(nodes_to_add, 1);
  const int old_count = cluster_.num_nodes();
  ScaleOutPrep prep;
  prep.nodes_added = nodes_to_add;
  prep.first_new_node = cluster_.AddNodes(nodes_to_add);
  prep.plan = partitioner_->PlanScaleOut(cluster_, old_count);
  return prep;
}

}  // namespace arraydb::core

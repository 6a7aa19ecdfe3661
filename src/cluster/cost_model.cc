#include "cluster/cost_model.h"

#include <algorithm>
#include <set>

#include "util/logging.h"
#include "util/units.h"

namespace arraydb::cluster {

InsertCost CostModel::InsertMinutes(
    const std::vector<std::pair<NodeId, int64_t>>& chunk_destinations,
    NodeId coordinator) const {
  InsertCost cost;
  int64_t local_bytes = 0;
  int64_t remote_bytes = 0;
  for (const auto& [node, bytes] : chunk_destinations) {
    if (node == coordinator) {
      local_bytes += bytes;
    } else {
      remote_bytes += bytes;
    }
  }
  cost.local_gb = util::BytesToGb(static_cast<double>(local_bytes));
  cost.remote_gb = util::BytesToGb(static_cast<double>(remote_bytes));
  // Eq. 6: local fraction at δ; remote fraction serialized through the
  // coordinator's uplink at t. Receivers write in parallel with the
  // coordinator's sends, so the remote write I/O overlaps the transfer and
  // only the slower of the two appears; t > δ in all calibrations, so the
  // transfer dominates. A per-chunk handling fee covers chunk headers and
  // catalog updates.
  cost.minutes = cost.local_gb * params_.io_minutes_per_gb +
                 cost.remote_gb * params_.net_minutes_per_gb +
                 static_cast<double>(chunk_destinations.size()) *
                     params_.per_chunk_minutes;
  return cost;
}

ReorgCost CostModel::ReorgMinutes(const MovePlan& plan, int num_nodes) const {
  ReorgCost cost;
  if (plan.empty()) return cost;
  ARRAYDB_CHECK_GE(num_nodes, 1);

  std::vector<int64_t> sent(static_cast<size_t>(num_nodes), 0);
  std::vector<int64_t> recv(static_cast<size_t>(num_nodes), 0);
  std::vector<int64_t> touched(static_cast<size_t>(num_nodes), 0);
  std::vector<std::set<NodeId>> peers(static_cast<size_t>(num_nodes));
  int64_t moved_bytes = 0;
  for (const auto& m : plan.moves()) {
    ARRAYDB_CHECK_GE(m.from, 0);
    ARRAYDB_CHECK_LT(m.from, num_nodes);
    ARRAYDB_CHECK_GE(m.to, 0);
    ARRAYDB_CHECK_LT(m.to, num_nodes);
    sent[static_cast<size_t>(m.from)] += m.bytes;
    recv[static_cast<size_t>(m.to)] += m.bytes;
    touched[static_cast<size_t>(m.from)] += 1;
    touched[static_cast<size_t>(m.to)] += 1;
    peers[static_cast<size_t>(m.from)].insert(m.to);
    peers[static_cast<size_t>(m.to)].insert(m.from);
    moved_bytes += m.bytes;
  }

  // Makespan over nodes: each node's link carries its sends plus its
  // receives (full-duplex is defeated by the shuffle's all-to-all pattern),
  // degraded by incast congestion when it talks to many peers at once, and
  // a receiver must also write what it receives.
  double makespan = 0.0;
  for (int n = 0; n < num_nodes; ++n) {
    const double sent_gb =
        util::BytesToGb(static_cast<double>(sent[static_cast<size_t>(n)]));
    const double recv_gb =
        util::BytesToGb(static_cast<double>(recv[static_cast<size_t>(n)]));
    const size_t peer_count = peers[static_cast<size_t>(n)].size();
    const double congestion =
        peer_count > 1 ? 1.0 + params_.incast_penalty *
                                   static_cast<double>(peer_count - 1)
                       : 1.0;
    const double node_minutes =
        (sent_gb + recv_gb) * params_.net_minutes_per_gb * congestion +
        recv_gb * params_.io_minutes_per_gb +
        static_cast<double>(touched[static_cast<size_t>(n)]) *
            params_.per_chunk_minutes;
    if (node_minutes > makespan) {
      makespan = node_minutes;
      cost.bottleneck_node = n;
    }
  }
  cost.minutes = makespan + params_.reorg_fixed_minutes;
  cost.moved_gb = util::BytesToGb(static_cast<double>(moved_bytes));
  cost.chunks_moved = plan.num_chunks();
  return cost;
}

BandwidthShares CostModel::Arbitrate(const BandwidthDemand& demand,
                                     const ArbitrationClamps& clamps) const {
  BandwidthShares shares;
  const double plan_remaining = std::max(0.0, demand.remaining_migration_gb);
  if (plan_remaining <= 0.0) return shares;
  // Retry traffic is migration load: re-transfers widen the demand the
  // grant must cover, on top of the plan bytes still uncommitted.
  const double remaining =
      plan_remaining + std::max(0.0, demand.retry_backlog_gb);

  // Incremental plans are pairwise, so a slice's makespan is set by the
  // receiver: transfer at t plus the write at δ, per GB.
  const double rate = params_.net_minutes_per_gb + params_.io_minutes_per_gb;
  const int deadline = std::max(1, demand.cycles_until_deadline);
  shares.jit_gb = remaining / static_cast<double>(deadline);

  // Eq. 6 shape for the ingest reservation: the coordinator keeps ~1/n of
  // the batch locally at δ and ships the rest over its uplink at t.
  const int n = std::max(1, demand.num_nodes);
  const double remote_frac =
      n > 1 ? static_cast<double>(n - 1) / static_cast<double>(n) : 0.0;
  const double ingest_reserved_minutes =
      std::max(0.0, demand.projected_ingest_gb) *
      (remote_frac * params_.net_minutes_per_gb +
       (1.0 - remote_frac) * params_.io_minutes_per_gb);

  // The free window is what queries and ingest leave behind.
  const double query_minutes = std::max(0.0, demand.projected_query_minutes);
  const double free_minutes =
      std::max(0.0, demand.overlap_window_minutes - ingest_reserved_minutes -
                        query_minutes);
  const double window_capacity_gb =
      rate > 0.0 ? free_minutes / rate : remaining;

  // Use the free window when it is there (finishing early costs nothing),
  // but never fall below the just-in-time pace; then clamp so neither side
  // of the split hits zero.
  double granted =
      std::max(shares.jit_gb, std::min(window_capacity_gb, remaining));
  const double ceiling = std::max(clamps.floor_gb, clamps.ceiling_gb);
  granted = std::clamp(granted, clamps.floor_gb, ceiling);
  granted = std::min(granted, remaining);
  shares.deadline_binding = shares.jit_gb > window_capacity_gb;
  if (deadline <= 1) {
    // Deadline cycle: the next staircase step is about to land, so the
    // plan's remainder goes through regardless of the clamps.
    granted = plan_remaining;
    shares.deadline_binding = true;
  }
  shares.migration_gb = granted;
  shares.predicted_stall_minutes =
      std::max(0.0, granted - window_capacity_gb) * rate;

  // Dilation: migration minutes beyond the window queries and ingest leave
  // free intrude into protected query time; the intrusion is amortized over
  // the query tier's own service minutes. When the grant fits, migration
  // is fully hidden and the dilation is exactly 1.
  if (query_minutes > 0.0) {
    const double window_minutes =
        std::max(demand.overlap_window_minutes, query_minutes);
    const double query_free_minutes = std::max(
        0.0, window_minutes - ingest_reserved_minutes - query_minutes);
    shares.query_dilation =
        1.0 +
        std::max(0.0, granted * rate - query_free_minutes) / query_minutes;
  }
  return shares;
}

}  // namespace arraydb::cluster

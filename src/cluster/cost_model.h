// Empirical cost model for the cluster substrate.
//
// The paper's testbed charges real wall-clock time for disk I/O and network
// transfer; this simulation charges the same structural costs through
// calibrated per-GB rates. The parameters mirror the constants the paper
// itself derives empirically for its analytical tuner (§5.2): δ, the I/O
// minutes per GB, and t, the network minutes per GB.
//
// Insert (paper Eq. 6 structure): a coordinator ingests each batch and
// scatters chunks — the locally kept fraction pays δ, the remainder is
// serialized over the coordinator's uplink at t.
//
// Reorganization: transfers between distinct node pairs proceed in
// parallel, so elapsed time is the makespan over nodes of (bytes sent +
// bytes received) * t plus the receiver's write I/O, plus a per-chunk
// handling overhead that penalizes plans shuffling very many small chunks
// (this is why global schemes pay 2.5x in Figure 4).
//
// Bandwidth arbitration: Arbitrate splits one cycle's link time between
// query service, the insert, and a staged plan's migration, and reports the
// query dilation the grant causes (math in src/reorg/README.md).

#ifndef ARRAYDB_CLUSTER_COST_MODEL_H_
#define ARRAYDB_CLUSTER_COST_MODEL_H_

#include <cstdint>
#include <vector>

#include "cluster/transfer.h"

namespace arraydb::cluster {

struct CostParams {
  /// δ: disk write minutes per GB (paper's insert I/O constant).
  double io_minutes_per_gb = 0.12;
  /// t: network transfer minutes per GB over one node's link.
  double net_minutes_per_gb = 0.25;
  /// Fixed handling cost per chunk touched by a transfer, in minutes
  /// (metadata update, connection churn).
  double per_chunk_minutes = 0.0004;
  /// Coordination overhead charged once per non-empty reorganization.
  double reorg_fixed_minutes = 0.5;
  /// Incast/fan-out congestion: a node exchanging data with many distinct
  /// peers at once loses effective link bandwidth (TCP incast and disk-seek
  /// interference during all-to-all reshuffles). Each node's transfer time
  /// is scaled by 1 + incast_penalty * (distinct peers - 1). Incremental
  /// scale-outs are pairwise (penalty-free); global reshuffles pay — this
  /// is the empirically observed 2.5x of the paper's Figure 4.
  double incast_penalty = 0.35;
};

/// Per-insert accounting returned by InsertMinutes.
struct InsertCost {
  double minutes = 0.0;
  double local_gb = 0.0;   // Written on the coordinator itself.
  double remote_gb = 0.0;  // Shipped over the coordinator's uplink.
};

/// Per-reorg accounting returned by ReorgMinutes.
struct ReorgCost {
  double minutes = 0.0;
  double moved_gb = 0.0;
  int64_t chunks_moved = 0;
  /// The node whose send+receive traffic set the makespan.
  NodeId bottleneck_node = kInvalidNode;
};

/// One workload cycle's competing demands on node bandwidth, presented to
/// CostModel::Arbitrate: how much migration is still outstanding, how much
/// data the cycle will ingest, how much query service it must deliver, and
/// how much of the cycle the migration can hide behind the query workload.
struct BandwidthDemand {
  /// MovePlan bytes not yet committed, in GB.
  double remaining_migration_gb = 0.0;
  /// Migration GB expected to be *re*-transferred because of faults: failed
  /// copy attempts awaiting retry and moves a replan reverted onto their
  /// sources (typically the previous cycle's observed retry traffic).
  /// Counted as additional migration load — retry traffic competes for the
  /// same link time, so it must neither silently starve the ingest
  /// reservation nor be starved itself. Not part of the deadline grant,
  /// which covers the plan's remainder only.
  double retry_backlog_gb = 0.0;
  /// Projected bytes of this cycle's insert batch, in GB.
  double projected_ingest_gb = 0.0;
  /// Cycles until the next staircase step is expected to land (the
  /// plan-ahead p): the whole remainder must commit within this window.
  /// At 1 the cycle is the deadline and the remainder is granted in full.
  int cycles_until_deadline = 1;
  /// Minutes of query workload the cycle's migration can overlap with for
  /// free (typically the previous cycle's benchmark minutes).
  double overlap_window_minutes = 0.0;
  int num_nodes = 1;
  /// Minutes of query service the cycle's serving layer projects it must
  /// deliver (its smoothed per-cycle demand). Reserved out of the free
  /// window before migration may claim it; 0 leaves the window to ingest
  /// and migration alone and pins the query dilation at 1.
  double projected_query_minutes = 0.0;
};

/// Clamps applied to the arbitrated grant so neither side of the split
/// hits zero: migration always progresses (floor) and never monopolizes a
/// cycle's bandwidth (ceiling). The deadline cycle ignores both.
struct ArbitrationClamps {
  /// Minimum migration grant per cycle while moves remain, in GB.
  double floor_gb = 0.25;
  /// Maximum migration grant per cycle, in GB.
  double ceiling_gb = 64.0;
};

/// One cycle's queries/ingest/migration split returned by Arbitrate.
struct BandwidthShares {
  /// Migration GB granted for this cycle.
  double migration_gb = 0.0;
  /// Just-in-time requirement: (remaining + retry backlog) /
  /// cycles_until_deadline.
  double jit_gb = 0.0;
  /// Modeled minutes the insert will stall because the grant spills past
  /// the free window.
  double predicted_stall_minutes = 0.0;
  /// Service-time dilation of the query tier, >= 1: how much slower query
  /// service runs because migration traffic intruded into the time
  /// protected for queries (1.0 = migration fully hidden, and always 1.0
  /// when projected_query_minutes is 0). The serving layer multiplies
  /// per-request service times by this factor.
  double query_dilation = 1.0;
  /// True when the just-in-time deadline (not the free window) set the
  /// grant, including every deadline cycle.
  bool deadline_binding = false;
};

class CostModel {
 public:
  explicit CostModel(CostParams params = CostParams()) : params_(params) {}

  const CostParams& params() const { return params_; }

  /// Prices a batch insert: `chunk_destinations` holds (destination node,
  /// bytes) per incoming chunk; `coordinator` is the ingesting node.
  InsertCost InsertMinutes(
      const std::vector<std::pair<NodeId, int64_t>>& chunk_destinations,
      NodeId coordinator) const;

  /// Prices a reorganization plan against a cluster of `num_nodes` nodes.
  ReorgCost ReorgMinutes(const MovePlan& plan, int num_nodes) const;

  /// Splits one cycle's node bandwidth between queries, ingest, and
  /// migration (§5's leading staircase assumes migration is priced per
  /// cycle, not by a fixed constant). Queries reserve their projected
  /// service minutes and ingest its Eq. 6 link time before migration claims
  /// what is left of the overlap window. The grant is the larger of the
  /// just-in-time requirement (finish by the staircase deadline) and what
  /// fits in that free window, clamped to [floor_gb, ceiling_gb] and to the
  /// remaining bytes; on the deadline cycle it is the plan's whole
  /// remainder, regardless of the clamps. Monotone non-increasing in
  /// projected_ingest_gb and projected_query_minutes: heavier load shrinks
  /// the free window, backing migration off toward the just-in-time
  /// minimum. Whatever migration time still exceeds the window left for
  /// queries is reported as the query tier's dilation.
  BandwidthShares Arbitrate(
      const BandwidthDemand& demand,
      const ArbitrationClamps& clamps = ArbitrationClamps()) const;

 private:
  CostParams params_;
};

}  // namespace arraydb::cluster

#endif  // ARRAYDB_CLUSTER_COST_MODEL_H_

// Distributed query timing at paper scale.
//
// The engine prices a QuerySpec against a concrete placement. The model
// captures exactly the effects the paper's evaluation turns on:
//   * makespan — elapsed time is the maximum over nodes of local scan + CPU
//     work, so storage balance buys parallelism (§6.2.2, SPJ results);
//   * n-dimensional clustering — window and kNN operators exchange halos
//     with face-adjacent chunks, paying network cost whenever a neighbor
//     lives on a different node (§6.2.2, science analytics);
//   * coordinator merges and broadcasts for sorts and replicated joins.
//
// Placement is consumed through cluster::PlacementView, so the same pricing
// runs against a quiesced Cluster or a reorg::DualResidencyView of a cluster
// with migration increments in flight — mid-reorg queries stay routed to
// readable replicas and return results identical to a quiesced cluster.

#ifndef ARRAYDB_EXEC_ENGINE_H_
#define ARRAYDB_EXEC_ENGINE_H_

#include <cstdint>
#include <vector>

#include "array/schema.h"
#include "cluster/cluster.h"
#include "cluster/placement_view.h"
#include "exec/query.h"

namespace arraydb::exec {

/// The engine's pricing constants.
struct EngineParams {
  /// Disk read rate, minutes per GB.
  double io_read_min_per_gb = 0.08;
  /// Network transfer rate, minutes per GB (matches the cluster model's t).
  double net_min_per_gb = 0.25;
  /// Fixed per-query planning/startup overhead in minutes.
  double startup_minutes = 0.05;
  /// Per-iteration synchronization barrier for iterative operators.
  double sync_minutes = 0.02;
  /// Fixed latency per remote neighbor-chunk fetch (RPC setup + chunk open),
  /// charged on top of the byte-proportional halo transfer. This is what
  /// scattering contiguous chunks costs spatial operators regardless of
  /// chunk size (§6.2.2).
  double remote_fetch_minutes = 0.01;
};

/// Breakdown of one simulated query execution.
struct QueryCost {
  double minutes = 0.0;        // Total elapsed.
  double makespan_minutes = 0.0;  // Slowest node's local work.
  double network_minutes = 0.0;   // Halo exchange / merge / broadcast.
  double scanned_gb = 0.0;        // Bytes touched across the cluster.
  int64_t chunks_touched = 0;
  int64_t remote_neighbor_fetches = 0;  // Cross-node halo transfers.
};

class QueryEngine {
 public:
  const EngineParams& params() const { return kParams; }

  /// Prices `spec` against `placement` (a quiesced Cluster or a mid-reorg
  /// DualResidencyView) for an array with `schema`. Deterministic for a
  /// given (spec, placement).
  QueryCost Simulate(const QuerySpec& spec,
                     const cluster::PlacementView& placement,
                     const array::ArraySchema& schema) const;

 private:
  static constexpr EngineParams kParams{};
};

}  // namespace arraydb::exec

#endif  // ARRAYDB_EXEC_ENGINE_H_

// Deterministic fault injection for the elastic data plane.
//
// The reorganization story assumes every chunk transfer succeeds; at
// production scale, node slowdowns, transient copy failures, and mid-reorg
// node loss are the common case. This subsystem injects those faults from
// *seeded, replayable schedules* so that every chaos run is bit-reproducible
// and CI-gateable — the same determinism-first stance the rest of the repo
// enforces (ci/determinism_lint.py): with many admissible failure
// interleavings, the seed pins exactly one.
//
// A FaultPlan describes the schedule; a FaultInjector evaluates it. The
// injector is *stateless*: every decision is a pure hash of (seed, operation
// identity), where the identity of a transfer attempt is (plan ordinal,
// increment index, retry attempt, move digest). Consequences:
//   * Replaying a run with the same seed reproduces the identical fault
//     trajectory — retries, backoff, aborts, and replans included.
//   * Decisions are safe to evaluate from any thread of a parallel copy
//     loop (no shared mutable state), and independent of thread count.
//   * A retried attempt draws fresh (the attempt index is part of the
//     identity), so transient faults are transient; a *re-staged* plan
//     draws fresh too (the plan ordinal advances on every Begin).
//
// Permanent node death is scheduled in *virtual time* (the cost model's
// simulated minutes), the clock the reorg engine advances as it copies, so
// death points are machine-independent. The fault model covers migration
// *destinations* (the freshly added, still-filling nodes); death of a node
// holding authoritative source data is unrecoverable without replication
// and reported as an error, not silently absorbed.
//
// See src/fault/README.md for the recovery semantics built on top
// (retry/backoff, Abort rollback, dead-destination replanning).

#ifndef ARRAYDB_FAULT_FAULT_H_
#define ARRAYDB_FAULT_FAULT_H_

#include <cstdint>
#include <vector>

#include "cluster/transfer.h"

namespace arraydb::fault {

/// A scheduled permanent node failure at a point on the virtual clock.
struct NodeDeath {
  /// Virtual minute at which the node is considered dead (inclusive).
  double at_minutes = 0.0;
  cluster::NodeId node = cluster::kInvalidNode;
};

/// A seeded, replayable fault schedule. Rates are per transfer *attempt*
/// (one chunk move, one retry); the same (seed, identity) pair always draws
/// the same outcome.
struct FaultPlan {
  uint64_t seed = 0;
  /// Probability that a transfer attempt fails transiently (the copy runs,
  /// its checksum does not verify; retrying draws fresh).
  double transient_failure_rate = 0.0;
  /// Probability that a transfer attempt is slow-copied: its share of the
  /// increment's copy time is dilated by slow_copy_dilation.
  double slow_copy_rate = 0.0;
  /// Copy-time multiplier for a slow-copied move (>= 1).
  double slow_copy_dilation = 4.0;
  /// Permanent node deaths on the virtual clock.
  std::vector<NodeDeath> node_deaths;
};

/// Outcome of one transfer-attempt probe.
enum class FaultKind {
  kNone = 0,
  kTransientFailure,
  kSlowCopy,
};

/// Identity of one transfer attempt — the key a FaultPlan's per-transfer
/// schedule is evaluated on. Two attempts with the same identity (same
/// plan, increment, retry, and move) always draw the same fault.
struct TransferOp {
  /// Ordinal of the staged plan (advances on every engine Begin, including
  /// the restart after an abort — restarts draw fresh).
  int plan_ordinal = 0;
  /// Increment index within the plan.
  int increment = 0;
  /// Copy attempt for this increment, 1-based (1 = first try).
  int attempt = 0;
  /// Content digest of the move (reorg engine's FNV-1a transfer digest).
  uint64_t move_digest = 0;
};

/// Evaluates a FaultPlan. Stateless and thread-safe: decisions are pure
/// functions of (plan.seed, identity), so they may be probed from inside a
/// parallel copy loop without ordering effects. The injector records no
/// telemetry itself — accounting lives with the caller, which knows the
/// deterministic reduction order.
class FaultInjector {
 public:
  /// Rates are clamped to [0, 1], the dilation to >= 1; node deaths are
  /// sorted by (at_minutes, node) so schedule evaluation is input-order
  /// independent.
  explicit FaultInjector(FaultPlan plan);

  /// The fault (if any) affecting one transfer attempt.
  FaultKind TransferFault(const TransferOp& op) const;

  /// True when `node` has no scheduled death at or before `at_minutes`.
  bool NodeAlive(cluster::NodeId node, double at_minutes) const;

  /// Nodes whose scheduled death is at or before `at_minutes`, ascending.
  std::vector<cluster::NodeId> DeadNodesAt(double at_minutes) const;

  const FaultPlan& plan() const { return plan_; }

 private:
  FaultPlan plan_;
};

}  // namespace arraydb::fault

#endif  // ARRAYDB_FAULT_FAULT_H_

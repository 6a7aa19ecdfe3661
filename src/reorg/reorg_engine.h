// Incremental reorganization engine (the paper's headline property, §1/§4):
// the cluster reorganizes in small bandwidth-budgeted slices while it keeps
// serving queries, instead of a stop-the-world MovePlan application.
//
// The engine wraps Cluster's copy-then-flip staging
// (BeginApply / AdvanceIncrement / CommitIncrement / FinishApply):
//   * Begin stages a plan, validates the Table-1 incremental property
//     (OnlyToNodesAtOrAbove) and prices the *whole* plan once via
//     CostModel::ReorgMinutes — the bandwidth budget shapes scheduling, not
//     total transfer work, so `work_minutes` is invariant under slicing.
//   * Step carves the next increment, simulates its copy on the shared
//     util::ThreadPool (a sharded FNV digest over the transferred chunk
//     metadata stands in for the data checksum; XOR-combined, so it is
//     bit-identical for every thread count and increment size), re-validates
//     the incremental property per slice, prices the slice in isolation for
//     the migration trajectory, and commits the flip.
//   * Finish releases the reorganization once every move has committed;
//     Drain = StepAll + Finish.
//
// Queries issued mid-reorg route through View() (a DualResidencyView), which
// pins reads to the retained source replicas — see dual_residency.h.
//
// Increment sizing comes from ReorgOptions: either the fixed increment_gb
// or a per-increment budget callback (ReorgOptions::budget_fn), typically
// bound to the grant cluster::CostModel::Arbitrate prices each cycle
// against the ingest and query demand (see src/reorg/README.md for the
// arbitration policy).
//
// Failure semantics (src/reorg/README.md, "Failure semantics"): when a
// fault::FaultInjector is attached, Step consults it per transfer attempt.
// A faulted increment retries with capped exponential backoff on the
// *virtual* clock (simulated minutes, machine-independent), a slow-copied
// increment dilates, a per-increment timeout abandons an attempt, Abort()
// rolls every committed flip back onto the retained source replicas (exact
// pre-reorg placement), and a destination node's scheduled death replans
// the surviving moves onto the remaining new nodes. All of it is
// deterministic: the same seed replays the identical trajectory.
//
// Exposed follow-ons: NUMA/socket-aware increment ordering and a real async
// copy pipeline hang off Step()'s thread-pool hook.

#ifndef ARRAYDB_REORG_REORG_ENGINE_H_
#define ARRAYDB_REORG_REORG_ENGINE_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/cost_model.h"
#include "fault/fault.h"
#include "reorg/dual_residency.h"
#include "util/status.h"

namespace arraydb::reorg {

/// The single source of truth for the fixed increment budget: ReorgOptions
/// and workload::RunnerConfig both default to this constant, so the two can
/// no longer diverge silently.
inline constexpr double kDefaultIncrementGb = 8.0;

/// Context handed to a per-increment budget callback before each Step.
struct BudgetRequest {
  /// Index the next increment will get (0-based).
  int increment_index = 0;
  /// Plan GB not yet committed.
  double remaining_gb = 0.0;
};

/// Capped exponential backoff for faulted increment copies, priced on the
/// virtual clock so retry trajectories are machine-independent (and, by
/// design, jitter-free: randomized jitter would break seeded replay).
/// Backoff before retry k (1-based) is
///   min(base_backoff_ms * backoff_multiplier^(k-1), max_backoff_ms).
struct RetryPolicy {
  /// Total attempts per increment (first try included). >= 1.
  int max_attempts = 4;
  double base_backoff_ms = 100.0;
  double backoff_multiplier = 2.0;
  double max_backoff_ms = 1600.0;
};

struct ReorgOptions {
  /// Byte budget per migration increment, in GB. Each increment takes moves
  /// in plan order until the next move would exceed the budget (always at
  /// least one move per increment). Ignored when budget_fn is set; must be
  /// positive otherwise (validated at Begin).
  double increment_gb = kDefaultIncrementGb;
  /// When set, called before each increment to size it (e.g. bound to the
  /// cycle's CostModel::Arbitrate grant) instead of the fixed increment_gb.
  /// Non-positive or non-finite returns are clamped to a one-byte floor —
  /// the increment still advances — and the overshoot of the at-least-one-
  /// move rule is reported in IncrementStats/ReorgSummary.
  std::function<double(const BudgetRequest&)> budget_fn;
  /// Worker threads for the simulated increment copy; 0 = auto
  /// (util::ResolveThreadCount). Results are identical for every count, so
  /// the default runs the copy sequentially on the calling thread.
  int copy_threads = 1;
  /// Deterministic fault source consulted per transfer attempt (and for
  /// scheduled node deaths) during Step. Null — the default — disables
  /// injection entirely and keeps Step bit-identical to the fault-free
  /// engine. Must outlive the engine.
  const fault::FaultInjector* injector = nullptr;
  /// Retry schedule for faulted/timed-out increment copies.
  RetryPolicy retry;
  /// Virtual minutes after which one copy attempt is abandoned (counted as a
  /// timeout and retried under the same RetryPolicy). Infinity disables the
  /// timeout; must be positive.
  double increment_timeout_minutes = std::numeric_limits<double>::infinity();
  /// Initial reading of the engine's virtual clock, against which the
  /// injector's scheduled node deaths are matched (the workload runner
  /// passes its elapsed simulated minutes).
  double virtual_start_minutes = 0.0;
  /// Base for the plan ordinal mixed into every fault draw. Each Begin
  /// advances the ordinal, so a plan aborted and restarted (on this engine
  /// or — via this base — a successor engine) draws fresh faults instead of
  /// deterministically re-hitting the same ones (livelock).
  int plan_ordinal_base = 0;
};

/// Fault tallies — the one record shared by an increment (IncrementStats),
/// a reorganization (ReorgSummary), and a workload cycle
/// (workload::CycleMetrics). All zero on the fault-free path.
struct FaultCounts {
  /// Moves that drew a transient transfer failure, summed over attempts.
  int64_t transient_failures = 0;
  /// Moves that drew a slow copy, summed over attempts.
  int64_t slow_copies = 0;
  /// Attempts beyond the first (includes timeout-triggered retries).
  int64_t retries = 0;
  /// Attempts abandoned at the per-increment timeout.
  int64_t timeouts = 0;
  /// Scheduled node deaths observed.
  int64_t node_deaths = 0;
  /// Replans around dead destination nodes.
  int64_t replans = 0;
  /// Virtual backoff milliseconds spent between attempts.
  double backoff_ms = 0.0;

  /// Injected faults: transient failures + slow copies + node deaths. The
  /// reorg.engine.faults_injected counter is emitted from this definition.
  int64_t injected() const {
    return transient_failures + slow_copies + node_deaths;
  }

  FaultCounts& operator+=(const FaultCounts& o) {
    transient_failures += o.transient_failures;
    slow_copies += o.slow_copies;
    retries += o.retries;
    timeouts += o.timeouts;
    node_deaths += o.node_deaths;
    replans += o.replans;
    backoff_ms += o.backoff_ms;
    return *this;
  }

  friend FaultCounts operator-(FaultCounts a, const FaultCounts& b) {
    a.transient_failures -= b.transient_failures;
    a.slow_copies -= b.slow_copies;
    a.retries -= b.retries;
    a.timeouts -= b.timeouts;
    a.node_deaths -= b.node_deaths;
    a.replans -= b.replans;
    a.backoff_ms -= b.backoff_ms;
    return a;
  }

  bool operator==(const FaultCounts&) const = default;
};

/// Accounting for one committed increment.
struct IncrementStats {
  int index = 0;
  /// The slice priced in isolation by CostModel::ReorgMinutes — diagnostic;
  /// totals use the schedule-invariant whole-plan price.
  double minutes = 0.0;
  double moved_gb = 0.0;
  int64_t chunks_moved = 0;
  /// Table-1 incremental property, checked against this slice alone.
  bool only_to_new_nodes = true;
  /// XOR-combined FNV-1a digest of the transferred chunk metadata (the
  /// simulated copy checksum).
  uint64_t transfer_digest = 0;
  /// Budget this increment was sized to (after the one-byte clamp), in GB.
  double budget_gb = 0.0;
  /// True when the at-least-one-move rule pushed the slice past the budget.
  bool over_budget = false;
  /// GB taken beyond the budget (0 when within budget).
  double over_budget_gb = 0.0;
  /// Copy attempts this increment took (1 = fault-free).
  int attempts = 1;
  /// Fault tallies of this increment's copy attempts. Node deaths and
  /// replans are observed before the slice is carved and recorded straight
  /// into ReorgSummary::faults, so they stay zero here.
  FaultCounts faults;
  /// Virtual minutes beyond the fault-free slice price: failed attempts,
  /// backoff, and slow-copy dilation.
  double fault_extra_minutes = 0.0;
};

/// Accounting for a whole reorganization.
struct ReorgSummary {
  int increments = 0;
  /// Whole-plan price from CostModel::ReorgMinutes — identical to what the
  /// legacy atomic path charges, and invariant under increment sizing.
  double work_minutes = 0.0;
  /// Sum of per-increment slice prices (includes the per-increment slicing
  /// tax; >= work_minutes for multi-increment plans).
  double slice_minutes = 0.0;
  double moved_gb = 0.0;
  int64_t chunks_moved = 0;
  bool only_to_new_nodes = true;
  uint64_t transfer_digest = 0;
  /// GB committed so far (moved_gb is the whole plan; the difference is
  /// what remains).
  double committed_gb = 0.0;
  /// Chunks committed so far.
  int64_t committed_chunks = 0;
  /// Increments where the at-least-one-move rule exceeded the budget, and
  /// the total GB taken beyond budgets — previously this overshoot was
  /// silent.
  int over_budget_increments = 0;
  double over_budget_gb = 0.0;
  /// Per-increment moved GB, in commit order (the migration trajectory).
  std::vector<double> moved_gb_per_increment;

  // -- Failure accounting (all zero on the fault-free path) -----------------
  /// Every increment's IncrementStats::faults (folded in once per Step),
  /// plus the node deaths and replans observed between increments.
  FaultCounts faults;
  /// Moves a replan redirected (pending reroutes + reverted re-stages).
  int64_t replanned_chunks = 0;
  /// GB expected to be re-transferred: failed whole-slice attempts plus
  /// replan-reverted committed moves. Feeds
  /// cluster::BandwidthDemand::retry_backlog_gb.
  double retry_gb = 0.0;
  /// GB of committed flips reverted by Abort (rolled back onto sources).
  double rolled_back_gb = 0.0;
  /// True once Abort() has rolled this reorganization back.
  bool aborted = false;
  /// Virtual minutes of pure fault overhead: failed attempts, backoff,
  /// slow-copy dilation, and the modeled re-copy price of replan-reverted
  /// bytes. Kept outside FaultCounts: it is a float accumulated per event in
  /// a fixed order. The recovery-overhead ratio gated by bench_fault is
  /// built from this.
  double recovery_overhead_minutes = 0.0;
};

class IncrementalReorgEngine {
 public:
  /// `cluster` and `cost_model` must outlive the engine.
  IncrementalReorgEngine(cluster::Cluster* cluster,
                         const cluster::CostModel* cost_model,
                         ReorgOptions options = ReorgOptions());

  /// Stages `plan` and prices it. `first_new_node` is the id of the first
  /// node added by the triggering scale-out, for the incremental-property
  /// check. An empty plan completes immediately (active() stays false).
  /// Fails with InvalidArgument when no budget callback is set and
  /// increment_gb is non-positive or non-finite (previously an unchecked
  /// constructor abort).
  util::Status Begin(const cluster::MovePlan& plan,
                     cluster::NodeId first_new_node);

  /// True while staged moves remain or the routing epoch is still pinned
  /// (i.e. until Finish/Drain releases the reorganization).
  bool active() const { return cluster_->reorg_active(); }

  /// Moves staged but not yet committed.
  int64_t pending_chunks() const { return cluster_->pending_reorg_chunks(); }

  /// Copies, validates, and commits the next increment.
  util::StatusOr<IncrementStats> Step();

  /// Steps every remaining increment (data movement completes; the routing
  /// epoch stays pinned until Finish).
  util::Status StepAll();

  /// Releases the reorganization once all moves have committed.
  util::Status Finish();

  /// StepAll + Finish.
  util::Status Drain();

  /// Rolls the active reorganization back: every committed flip is reverted
  /// onto its retained source replica (exact pre-reorg placement, verified
  /// by the chaos tests) and the staging state is released. The work already
  /// spent stays charged — a restarted plan pays again — which is exactly
  /// the recovery overhead bench_fault gates. Fails when no reorganization
  /// is active.
  util::Status Abort();

  /// Routing view queries should use while this reorganization is active.
  DualResidencyView View() const { return DualResidencyView(*cluster_); }

  const ReorgSummary& summary() const { return summary_; }
  const ReorgOptions& options() const { return options_; }

  /// The engine's virtual clock, in simulated minutes: advances with every
  /// attempt's copy price and every backoff. Node deaths trigger against
  /// this clock, so trajectories replay identically on any machine.
  double virtual_minutes() const { return virtual_minutes_; }

  /// Plans Begin()-ed on this engine. Add to ReorgOptions::plan_ordinal_base
  /// when handing fault identity to a successor engine.
  int plans_begun() const { return begins_; }

 private:
  /// Byte budget for the next increment: the callback's grant (or the fixed
  /// increment_gb), clamped to a one-byte floor.
  int64_t NextBudgetBytes();

  /// True when `node` is on the engine's observed-dead list.
  bool IsDead(cluster::NodeId node) const;

  /// Applies injector-scheduled node deaths due at the current virtual time
  /// (and re-checks earlier deaths against freshly staged moves): a death
  /// that owns staged destinations triggers ReplanAroundDeadNode.
  util::Status ProcessNodeDeaths();

  /// Folds fault tallies into the summary and emits the matching
  /// reorg.engine.* counters — the one place either is written.
  void RecordFaults(const FaultCounts& faults);

  /// Reroutes every staged move targeting `dead` onto surviving new nodes
  /// (deterministic least-projected-load, ties to the lowest id), preserving
  /// the Table-1 property by construction. Unavailable when no new node
  /// survives.
  util::Status ReplanAroundDeadNode(cluster::NodeId dead);

  /// Backoff before 1-based retry `k`, in virtual milliseconds.
  double BackoffMsBeforeRetry(int k) const;

  cluster::Cluster* cluster_;
  const cluster::CostModel* cost_model_;
  ReorgOptions options_;
  int copy_threads_ = 1;
  cluster::NodeId first_new_node_ = cluster::kInvalidNode;
  ReorgSummary summary_;
  double virtual_minutes_ = 0.0;
  int begins_ = 0;
  /// Ordinal of the currently staged plan (base + Begin count), mixed into
  /// every fault draw.
  int plan_ordinal_ = 0;
  /// Nodes observed dead, ascending (sorted vector: deterministic iteration
  /// under determinism-lint rule R1).
  std::vector<cluster::NodeId> dead_nodes_;
};

}  // namespace arraydb::reorg

#endif  // ARRAYDB_REORG_REORG_ENGINE_H_

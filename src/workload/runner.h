// WorkloadRunner: executes the cyclic workload model (§3.4) end to end —
// per cycle: provision check, scale-out + reorganization, batch insert,
// then both benchmark suites — and records the metrics behind every figure
// and table of §6: one CycleMetrics record per cycle, from which RunResult
// derives every run total (RunResult::Sum / Series).
//
// Every scale-out's MovePlan runs through reorg::IncrementalReorgEngine.
// The plan is priced once, as a whole (Table 1, Fig. 4), so how its moves
// are sliced changes timing, never placement or price. ReorgSchedule picks
// the timing:
//   * kBlocking drains the plan before the insert; the cycle pays
//     insert + reorg + queries.
//   * kOverlapped drains it in the scale-out cycle, and the cycle's queries
//     run mid-reorg through the dual-residency view (elapsed = insert +
//     max(reorg, queries)). The overlap is priced, not run: the runner
//     starts no thread, and every call happens on the calling thread.
//   * kPaced spreads it across cycles, each cycle's grant priced by
//     cluster::CostModel::Arbitrate so migration finishes just in time for
//     the staircase plan-ahead deadline without starving the ingest. The
//     routing epoch stays pinned until the plan drains.
// Fault injection (FaultConfig) applies under every schedule.

#ifndef ARRAYDB_WORKLOAD_RUNNER_H_
#define ARRAYDB_WORKLOAD_RUNNER_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "cluster/cost_model.h"
#include "core/partitioner_factory.h"
#include "core/provisioner.h"
#include "exec/engine.h"
#include "fault/fault.h"
#include "reorg/reorg_engine.h"
#include "serve/serve.h"
#include "workload/workload.h"

namespace arraydb::workload {

/// When the runner expands the cluster.
enum class ScaleOutPolicy {
  /// §6.2 experiment setup: add a fixed number of nodes whenever projected
  /// load exceeds capacity, up to max_nodes.
  kCapacityTrigger,
  /// §5: the leading-staircase PD control loop decides when and how many.
  kStaircase,
};

/// When a scale-out's MovePlan executes relative to the cycle's insert and
/// queries. Placement, reorganization price, and query results are the same
/// under every schedule; only the elapsed-time accounting differs.
enum class ReorgSchedule {
  /// Drain the whole plan before the insert: the cycle blocks on the
  /// transfer.
  kBlocking,
  /// Drain the whole plan in the scale-out cycle; queries run mid-reorg
  /// through the dual-residency view, so the query workload hides
  /// migration time. The overlap is priced (overlap_saved_minutes); no
  /// thread is started.
  kOverlapped,
  /// As kOverlapped, but the plan is paced across cycles by the cost
  /// model's per-cycle grant (CostModel::Arbitrate), completing by the
  /// staircase plan-ahead deadline — or earlier, force-drained, when the
  /// next scale-out arrives first.
  kPaced,
};

/// Reorganization settings.
struct ReorgConfig {
  ReorgSchedule schedule = ReorgSchedule::kBlocking;
  /// Byte budget per migration increment (GB) for the draining schedules
  /// (kPaced sizes increments by the cycle's grant instead). Defaults to
  /// the same constant as ReorgOptions.increment_gb
  /// (reorg::kDefaultIncrementGb) and is forwarded explicitly, so the two
  /// cannot diverge silently.
  double increment_gb = reorg::kDefaultIncrementGb;
};

/// Serving-layer scenario settings: when enabled, every query cycle also
/// plays a mixed heavy-traffic scenario through serve::SessionServer — the
/// cycle's benchmark suite submitted by N batch sessions while interactive
/// sessions fire point queries at it — and records per-tier latency
/// percentiles. Measurement-only with respect to the legacy metrics:
/// spj/science/elapsed minutes are untouched; the one coupling runs the
/// other way (under kPaced the serving demand enters the bandwidth
/// arbitration, and migration intrusion dilates serving latencies).
struct ServingConfig {
  bool enabled = false;
  /// Concurrent sessions per tier.
  int interactive_sessions = 4;
  int batch_sessions = 2;
  /// Interactive point queries per session per cycle.
  int interactive_per_session = 8;
  /// Virtual workers and slice length (serve::ServerOptions).
  int workers = 4;
  double slice_minutes = 0.05;
  serve::AdmissionLimits admission;
  serve::SchedulerPolicy policy;
};

/// Fault-scenario settings: when enabled, every reorganization runs
/// against a deterministic fault::FaultInjector — transient transfer
/// failures retry under the engine's backoff policy, slow copies dilate,
/// scheduled node deaths trigger replans onto the surviving new nodes — and
/// the runner recovers from exhausted retries by aborting (exact pre-reorg
/// restore via the retained source replicas) and restaging the plan under a
/// fresh fault ordinal. Queries keep flowing mid-fault through the
/// dual-residency view and stay bit-identical to a quiesced cluster.
struct FaultConfig {
  bool enabled = false;
  /// Seeded fault schedule (rates, dilation, node deaths). The node-death
  /// times are matched against the reorg engine's virtual clock, which
  /// starts at the run's elapsed simulated minutes when a plan begins.
  fault::FaultPlan plan;
  /// Per-increment retry/backoff schedule.
  reorg::RetryPolicy retry;
  /// Per-increment copy timeout, in virtual minutes (infinity = disabled).
  double increment_timeout_minutes =
      std::numeric_limits<double>::infinity();
  /// Abort-and-restage attempts per plan after the engine's own retries are
  /// exhausted. Past this the reorganization is abandoned: the rollback has
  /// already restored the exact pre-reorg placement, so the cluster keeps
  /// serving correctly — just unbalanced until a later scale-out.
  int max_plan_restarts = 2;
};

struct RunnerConfig {
  core::PartitionerKind partitioner =
      core::PartitionerKind::kConsistentHash;
  ScaleOutPolicy policy = ScaleOutPolicy::kCapacityTrigger;
  int initial_nodes = 2;
  int nodes_per_scaleout = 2;  // Capacity-trigger step (§6.2 uses 2).
  int max_nodes = 8;           // Capacity-trigger testbed size.
  int staircase_samples = 4;   // s, for the staircase policy.
  int staircase_plan_ahead = 3;  // p, for the staircase policy.
  ReorgConfig reorg;
  ServingConfig serving;
  FaultConfig fault;
  cluster::CostParams cost_params;
  exec::EngineParams engine_params;
  bool run_queries = true;
};

/// One cycle's serving-scenario outcome (latencies in simulated ms).
struct ServingCycleMetrics {
  bool ran = false;
  double p50_interactive_ms = 0.0;
  double p99_interactive_ms = 0.0;
  double p50_batch_ms = 0.0;
  double p99_batch_ms = 0.0;
  int64_t interactive_completed = 0;
  int64_t batch_completed = 0;
  int64_t admitted = 0;
  int64_t rejected = 0;
  /// The bandwidth arbitration's query dilation this cycle (1.0 outside a
  /// paced migration window).
  double dilation = 1.0;
  double makespan_minutes = 0.0;

  bool operator==(const ServingCycleMetrics&) const = default;
};

/// Everything measured in one workload cycle.
struct CycleMetrics {
  int cycle = 0;
  int nodes_before = 0;
  int nodes_after = 0;
  double load_gb = 0.0;          // Storage demand after the insert.
  double insert_minutes = 0.0;   // I_i
  double reorg_minutes = 0.0;    // r_i
  double spj_minutes = 0.0;      // SPJ benchmark share of w_i.
  double science_minutes = 0.0;  // Science benchmark share of w_i.
  double rsd = 0.0;              // Load balance after the insert.
  double moved_gb = 0.0;
  int64_t chunks_moved = 0;
  bool reorg_only_to_new_nodes = true;
  /// Migration increments committed this cycle (depends on
  /// ReorgConfig::increment_gb and the schedule — the one schedule-dependent
  /// metric).
  int reorg_increments = 0;
  /// Migration GB the bandwidth arbitration granted this cycle (kPaced
  /// only; 0 when no migration was pending).
  double migration_budget_gb = 0.0;
  /// Migration minutes not hidden behind the cycle's query window — the
  /// time the ingest pipeline waits on migration traffic:
  /// reorg_minutes - overlap_saved_minutes.
  double ingest_stall_minutes = 0.0;
  /// Increments whose at-least-one-move slice exceeded the granted budget.
  int reorg_over_budget_increments = 0;
  /// True when a scale-out arrived while a paced migration was still in
  /// flight and the remainder was force-drained this cycle.
  bool reorg_forced_drain = false;
  /// Simulated minutes saved by overlapping queries with migration
  /// (kOverlapped and kPaced): min(migration minutes actually executed this
  /// cycle, benchmark minutes) — computed from the increments that ran,
  /// not the whole-plan price, so the credit matches the trajectory when
  /// migration is paced across cycles.
  double overlap_saved_minutes = 0.0;
  /// Wall time of the cycle: insert + reorg + benchmarks, minus the overlap
  /// credit. Equals the serial sum under kBlocking.
  double elapsed_minutes = 0.0;
  // -- Fault/recovery metrics (zero unless FaultConfig::enabled) ----------
  /// The engine's fault tallies for the migration executed this cycle.
  reorg::FaultCounts faults;
  /// Abort-and-restage recoveries this cycle (engine retries exhausted).
  int reorg_aborts = 0;
  /// Committed GB rolled back onto source replicas by aborts this cycle.
  double rolled_back_gb = 0.0;
  /// Plans abandoned after running out of restage attempts (the rollback
  /// left the exact pre-reorg placement; the cluster serves on). A count:
  /// under kPaced a force-drained plan and its successor can both go.
  int reorgs_abandoned = 0;
  /// Virtual minutes of pure fault overhead charged to this cycle's
  /// reorg_minutes (failed attempts, backoff, dilation, replan re-copies).
  double recovery_overhead_minutes = 0.0;
  /// Retry traffic observed this cycle, fed to the next cycle's bandwidth
  /// arbitration as BandwidthDemand::retry_backlog_gb.
  double retry_backlog_gb = 0.0;
  /// True when the serving layer ran this cycle in degraded mode (batch
  /// admission shed) because fault recovery was active.
  bool serving_degraded = false;
  /// Per-query latencies (name, minutes) for figure-level series.
  std::vector<std::pair<std::string, double>> query_minutes;
  /// Serving-layer stats for this cycle (ran == false unless
  /// ServingConfig::enabled).
  ServingCycleMetrics serving;

  bool operator==(const CycleMetrics&) const = default;
};

/// A run's record. The cycles are the only stored metrics: every run-level
/// figure (Eq. 1, the Fig. 4/5/8 minutes, fault tallies) derives from them.
struct RunResult {
  std::vector<CycleMetrics> cycles;
  int final_nodes = 0;
  /// Pooled serving-layer latency summaries across all cycles (counts are
  /// zero unless ServingConfig::enabled). Kept because run-level
  /// percentiles cannot be rebuilt from per-cycle percentiles.
  serve::LatencySummary serving_interactive;
  serve::LatencySummary serving_batch;

  /// Sums `field` — a CycleMetrics member pointer or a projection — over
  /// the cycles in cycle order, starting from T{}. E.g.
  /// Sum(&CycleMetrics::reorg_minutes), Sum(&CycleMetrics::faults).retries.
  template <typename Field>
  auto Sum(Field field) const {
    using T = std::decay_t<std::invoke_result_t<Field, const CycleMetrics&>>;
    static_assert(!std::is_same_v<T, bool>,
                  "project a bool field to int before summing it");
    T total{};
    for (const CycleMetrics& m : cycles) total += std::invoke(field, m);
    return total;
  }

  /// `field` per cycle, in cycle order (a trajectory).
  template <typename Field>
  auto Series(Field field) const {
    using T = std::decay_t<std::invoke_result_t<Field, const CycleMetrics&>>;
    std::vector<T> out;
    out.reserve(cycles.size());
    for (const CycleMetrics& m : cycles) out.push_back(std::invoke(field, m));
    return out;
  }

  double total_benchmark_minutes() const {
    return Sum(&CycleMetrics::spj_minutes) +
           Sum(&CycleMetrics::science_minutes);
  }
  /// Σ (I_i + r_i + w_i). Summed elapsed_minutes equals it under kBlocking
  /// and falls below it when queries overlapped a migration.
  double total_workload_minutes() const {
    return Sum(&CycleMetrics::insert_minutes) +
           Sum(&CycleMetrics::reorg_minutes) + total_benchmark_minutes();
  }
  /// Load balance averaged over all inserts (Figure 4).
  double mean_rsd() const {
    if (cycles.empty()) return 0.0;
    return Sum(&CycleMetrics::rsd) / static_cast<double>(cycles.size());
  }
  /// Eq. 1: Σ N_i * elapsed_i, in node hours (elapsed equals I_i + r_i +
  /// w_i under kBlocking).
  double cost_node_hours() const {
    return Sum([](const CycleMetrics& m) {
      return static_cast<double>(m.nodes_after) * m.elapsed_minutes / 60.0;
    });
  }
};

class WorkloadRunner {
 public:
  explicit WorkloadRunner(RunnerConfig config) : config_(std::move(config)) {}

  /// Runs every cycle of `workload` and returns the collected metrics.
  RunResult Run(const Workload& workload) const;

  const RunnerConfig& config() const { return config_; }

 private:
  RunnerConfig config_;
};

}  // namespace arraydb::workload

#endif  // ARRAYDB_WORKLOAD_RUNNER_H_

// WorkloadRunner: executes the cyclic workload model (§3.4) end to end —
// per cycle: provision check, scale-out + reorganization, batch insert,
// then both benchmark suites — and records the metrics behind every figure
// and table of §6.
//
// Reorganizations execute in one of three modes (ReorgMode): the legacy
// atomic kBlocking path, kIncremental (bandwidth-budgeted increments via
// reorg::IncrementalReorgEngine, drained before the insert), and kOverlapped
// — migration increments run on a background thread overlapped with the
// incoming batch's placement prewarm (the partitioner's rank memo makes the
// subsequent re-derivation free), and the cycle's queries execute mid-reorg
// through the dual-residency routing view, so in simulated time the query
// workload overlaps the migration (elapsed = insert + max(reorg, queries)).
//
// In kOverlapped mode the per-cycle migration budget comes from a
// MigrationBudgetPolicy: kFixedDrain (legacy, whole plan in the scale-out
// cycle), or the paced policies kFixedPaced/kArbitrated, which spread the
// plan across cycles — the routing epoch stays pinned until the plan
// drains, at the latest on the staircase plan-ahead deadline — and record
// the migration_budget_gb / ingest_stall_minutes trajectories. kArbitrated
// prices each cycle's budget through CostModel::ArbitrateBandwidth so
// migration never starves the ingest (and vice versa).

#ifndef ARRAYDB_WORKLOAD_RUNNER_H_
#define ARRAYDB_WORKLOAD_RUNNER_H_

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cost_model.h"
#include "core/partitioner_factory.h"
#include "core/provisioner.h"
#include "exec/engine.h"
#include "fault/fault.h"
#include "reorg/bandwidth_arbiter.h"
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

/// How a scale-out's MovePlan is realized.
enum class ReorgMode {
  /// Atomic Cluster::Apply; the whole cycle blocks on the transfer.
  kBlocking,
  /// Bandwidth-budgeted increments (src/reorg/), fully drained before the
  /// insert. Same serialized cycle time as blocking; records the
  /// per-increment migration trajectory.
  kIncremental,
  /// Increments run in the background: data movement overlaps the batch's
  /// placement prewarm, and queries execute mid-reorg through the
  /// dual-residency view. Query results are bit-identical to a quiesced
  /// cluster; the cycle's elapsed time folds the query workload into the
  /// migration window.
  kOverlapped,
};

/// How the per-cycle migration byte budget is derived in the incremental
/// modes (kIncremental/kOverlapped).
enum class MigrationBudgetPolicy {
  /// Legacy: the whole MovePlan drains within its scale-out cycle, sliced
  /// into fixed reorg_increment_gb increments.
  kFixedDrain,
  /// Pace the plan across cycles — one fixed reorg_increment_gb increment
  /// per cycle — force-draining the remainder on the staircase plan-ahead
  /// deadline (or when an early scale-out needs the cluster quiesced).
  /// Requires ReorgMode::kOverlapped.
  kFixedPaced,
  /// Pace the plan across cycles with per-cycle budgets from
  /// cluster::CostModel::ArbitrateBandwidth (via reorg::BandwidthArbiter):
  /// migration finishes just-in-time for the next staircase step without
  /// starving the cycle's ingest. Requires ReorgMode::kOverlapped.
  kArbitrated,
};

/// Ingest-side settings.
struct IngestConfig {
  /// Worker threads for the chunk-parallel ingest/placement fast path
  /// (per-chunk placement state is precomputed in parallel and merged in
  /// order; all placement decisions remain sequential and deterministic).
  /// 1 = fully sequential; 0 = auto (hardware concurrency). The 0-means-auto
  /// convention is interpreted in exactly one place,
  /// util::ResolveThreadCount, which every consumer calls.
  int threads = 1;
};

/// Reorganization settings.
struct ReorgConfig {
  /// Reorganization execution mode; metrics and query results are
  /// deterministic for every mode, thread count, and increment size.
  ReorgMode mode = ReorgMode::kBlocking;
  /// Per-cycle migration budget derivation for the incremental modes. The
  /// paced policies require mode == kOverlapped.
  MigrationBudgetPolicy budget_policy = MigrationBudgetPolicy::kFixedDrain;
  /// Byte budget per migration increment (GB) for the fixed budget
  /// policies. Defaults to the same constant as ReorgOptions.increment_gb
  /// (reorg::kDefaultIncrementGb) and is forwarded explicitly, so the two
  /// cannot diverge silently.
  double increment_gb = reorg::kDefaultIncrementGb;
  /// EWMA smoothing factor for the arbiter's query-overlap window estimate
  /// (reorg::OverlapWindowEstimator). 1.0 reproduces the legacy
  /// previous-cycle estimator bit for bit.
  double overlap_window_alpha = reorg::OverlapWindowEstimator::kDefaultAlpha;
  /// Floor/ceiling clamps for MigrationBudgetPolicy::kArbitrated (and the
  /// serving scenario's three-way arbitration).
  cluster::ArbitrationClamps arbitration;
};

/// Serving-layer scenario settings: when enabled, every query cycle also
/// plays a mixed heavy-traffic scenario through serve::SessionServer — the
/// cycle's benchmark suite submitted by N batch sessions while interactive
/// sessions fire point queries at it — and records per-tier latency
/// percentiles. Measurement-only with respect to the legacy metrics:
/// spj/science/elapsed minutes are untouched; the one coupling runs the
/// other way (under kArbitrated the serving demand enters the three-way
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

/// Fault-scenario settings: when enabled, every incremental reorganization
/// runs against a deterministic fault::FaultInjector — transient transfer
/// failures retry under the engine's backoff policy, slow copies dilate,
/// scheduled node deaths trigger replans onto the surviving new nodes — and
/// the runner recovers from exhausted retries by aborting (exact pre-reorg
/// restore via the retained source replicas) and restaging the plan under a
/// fresh fault ordinal. Queries keep flowing mid-fault through the
/// dual-residency view and stay bit-identical to a quiesced cluster.
/// Requires an incremental ReorgMode; kBlocking scale-outs bypass the
/// injection hooks entirely.
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
  IngestConfig ingest;
  ReorgConfig reorg;
  ServingConfig serving;
  FaultConfig fault;
  cluster::CostParams cost_params;
  exec::EngineParams engine_params;
  bool run_queries = true;
  /// When non-empty, Run() records telemetry trace spans for its duration
  /// and writes them to this path as Chrome trace-event JSON (load it in
  /// chrome://tracing or Perfetto). Observe-only: results are bit-identical
  /// with or without tracing. The ARRAYDB_TRACE environment variable offers
  /// the same capture process-wide without touching the config.
  std::string trace_path;
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
  /// The three-way arbiter's query dilation this cycle (1.0 outside a
  /// paced migration window).
  double dilation = 1.0;
  double makespan_minutes = 0.0;
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
  /// Migration increments committed this cycle (0 in blocking mode; depends
  /// on reorg_increment_gb — the one schedule-dependent metric).
  int reorg_increments = 0;
  /// Migration GB the budget policy granted this cycle (paced policies
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
  /// (kOverlapped only): min(migration minutes actually executed this
  /// cycle, benchmark minutes) — computed from the increments that ran,
  /// not the whole-plan price, so the credit matches the trajectory when
  /// migration is paced across cycles.
  double overlap_saved_minutes = 0.0;
  /// Wall time of the cycle: insert + reorg + benchmarks, minus the overlap
  /// credit. Equals the serial sum outside kOverlapped.
  double elapsed_minutes = 0.0;
  // -- Fault/recovery metrics (zero unless FaultConfig::enabled) ----------
  int64_t faults_injected = 0;
  int64_t transient_failures = 0;
  int64_t slow_copies = 0;
  int64_t retries = 0;
  int64_t timeouts = 0;
  int64_t node_deaths = 0;
  int64_t replans = 0;
  /// Virtual backoff milliseconds spent between copy attempts.
  double backoff_ms = 0.0;
  /// Abort-and-restage recoveries this cycle (engine retries exhausted).
  int reorg_aborts = 0;
  /// Committed GB rolled back onto source replicas by aborts this cycle.
  double rolled_back_gb = 0.0;
  /// True when the plan ran out of restage attempts and was abandoned (the
  /// rollback left the exact pre-reorg placement; the cluster serves on).
  bool reorg_abandoned = false;
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
};

struct RunResult {
  std::vector<CycleMetrics> cycles;
  double total_insert_minutes = 0.0;
  double total_reorg_minutes = 0.0;
  double total_spj_minutes = 0.0;
  double total_science_minutes = 0.0;
  double mean_rsd = 0.0;          // Averaged over all inserts (Figure 4).
  double cost_node_hours = 0.0;   // Eq. 1, on elapsed cycle time.
  int final_nodes = 0;
  int64_t total_reorg_increments = 0;
  double total_overlap_saved_minutes = 0.0;
  /// Total minutes the ingest pipeline waited on migration traffic.
  double total_ingest_stall_minutes = 0.0;
  int64_t total_over_budget_increments = 0;
  /// Paced migrations force-drained by an early scale-out.
  int forced_drains = 0;
  /// Sum of per-cycle elapsed times; equals total_workload_minutes() outside
  /// kOverlapped, strictly below it when queries overlapped a migration.
  double total_elapsed_minutes = 0.0;
  /// Pooled serving-layer latency summaries across all cycles (counts are
  /// zero unless ServingConfig::enabled).
  serve::LatencySummary serving_interactive;
  serve::LatencySummary serving_batch;
  int64_t serving_admitted = 0;
  int64_t serving_rejected = 0;
  // -- Fault/recovery totals (zero unless FaultConfig::enabled) -----------
  int64_t total_faults_injected = 0;
  int64_t total_retries = 0;
  int64_t total_timeouts = 0;
  int64_t total_node_deaths = 0;
  int64_t total_replans = 0;
  int total_reorg_aborts = 0;
  /// Reorganizations abandoned after exhausting restage attempts.
  int reorgs_abandoned = 0;
  double total_backoff_ms = 0.0;
  double total_recovery_overhead_minutes = 0.0;

  double total_benchmark_minutes() const {
    return total_spj_minutes + total_science_minutes;
  }
  double total_workload_minutes() const {
    return total_insert_minutes + total_reorg_minutes +
           total_benchmark_minutes();
  }

  /// Per-cycle moved GB, in cycle order (the reorganization trajectory).
  std::vector<double> MovedGbTrajectory() const;

  /// Per-cycle granted migration budgets (the arbitration trajectory).
  std::vector<double> MigrationBudgetTrajectory() const;

  /// Per-cycle ingest stall minutes.
  std::vector<double> IngestStallTrajectory() const;
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

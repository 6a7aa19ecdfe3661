#include "workload/runner.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <thread>

#include "core/elastic_engine.h"
#include "reorg/bandwidth_arbiter.h"
#include "reorg/reorg_engine.h"
#include "telemetry/trace.h"
#include "util/logging.h"
#include "util/thread_pool.h"
#include "util/units.h"

namespace arraydb::workload {

std::vector<double> RunResult::MovedGbTrajectory() const {
  std::vector<double> out;
  out.reserve(cycles.size());
  for (const auto& m : cycles) out.push_back(m.moved_gb);
  return out;
}

std::vector<double> RunResult::MigrationBudgetTrajectory() const {
  std::vector<double> out;
  out.reserve(cycles.size());
  for (const auto& m : cycles) out.push_back(m.migration_budget_gb);
  return out;
}

std::vector<double> RunResult::IngestStallTrajectory() const {
  std::vector<double> out;
  out.reserve(cycles.size());
  for (const auto& m : cycles) out.push_back(m.ingest_stall_minutes);
  return out;
}

namespace {

// Simulated minutes → integer milliseconds for the telemetry registry
// (metric values are integers so snapshots stay byte-stable).
int64_t MinutesToMs(double minutes) {
  return std::llround(minutes * 60.0 * 1000.0);
}

// Mirrors one finished cycle's metrics into the process-wide registry
// (workload.runner.*). Observe-only: reads CycleMetrics, writes nothing.
void RecordCycleTelemetry(const CycleMetrics& m, bool scaled_out) {
  TELEM_COUNTER_ADD("workload.runner.cycles", 1);
  if (scaled_out) TELEM_COUNTER_ADD("workload.runner.scale_outs", 1);
  if (m.reorg_forced_drain) {
    TELEM_COUNTER_ADD("workload.runner.forced_drains", 1);
  }
  TELEM_COUNTER_ADD("workload.runner.queries",
                    static_cast<int64_t>(m.query_minutes.size()));
  TELEM_COUNTER_ADD("workload.runner.insert_ms",
                    MinutesToMs(m.insert_minutes));
  TELEM_COUNTER_ADD("workload.runner.reorg_ms", MinutesToMs(m.reorg_minutes));
  TELEM_COUNTER_ADD("workload.runner.query_ms",
                    MinutesToMs(m.spj_minutes + m.science_minutes));
  TELEM_GAUGE_SET("workload.runner.nodes", m.nodes_after);
  for (const auto& [name, minutes] : m.query_minutes) {
    TELEM_HISTOGRAM_RECORD("workload.runner.query_latency_ms",
                           MinutesToMs(minutes));
  }
  TELEM_HISTOGRAM_RECORD("workload.runner.cycle_elapsed_ms",
                         MinutesToMs(m.elapsed_minutes));
  // Fault/recovery mirror (zero-valued adds are skipped so fault-free runs
  // leave no workload.runner.fault metrics behind).
  if (m.faults_injected > 0) {
    TELEM_COUNTER_ADD("workload.runner.faults_injected", m.faults_injected);
  }
  if (m.retries > 0) TELEM_COUNTER_ADD("workload.runner.retries", m.retries);
  if (m.replans > 0) TELEM_COUNTER_ADD("workload.runner.replans", m.replans);
  if (m.reorg_aborts > 0) {
    TELEM_COUNTER_ADD("workload.runner.reorg_aborts", m.reorg_aborts);
  }
  if (m.reorg_abandoned) {
    TELEM_COUNTER_ADD("workload.runner.reorgs_abandoned", 1);
  }
  if (m.recovery_overhead_minutes > 0.0) {
    TELEM_COUNTER_ADD("workload.runner.recovery_overhead_ms",
                      MinutesToMs(m.recovery_overhead_minutes));
  }
}

// Raw latencies and admission counts pooled across every serving cycle
// (the run-level percentiles come from the pooled population, not from
// averaging per-cycle percentiles).
struct ServingPools {
  std::vector<double> interactive_latencies;
  std::vector<double> batch_latencies;
  int64_t admitted = 0;
  int64_t rejected = 0;
};

// Plays one cycle's mixed heavy-traffic scenario through the serving
// layer: every batch session replays the cycle's full benchmark suite
// from t = 0 while the interactive sessions fire deterministic point
// queries spread across the expected service window. All requests are
// priced by the same QueryEngine against the same placement view as the
// cycle's sequential pricing, so the scenario is exactly reproducible.
ServingCycleMetrics RunServingCycle(
    const ServingConfig& cfg, const exec::QueryEngine& engine,
    const cluster::PlacementView& view, const array::ArraySchema& schema,
    const std::vector<std::pair<std::string, exec::QueryCost>>& suite,
    double dilation, bool degraded, int cycle, ServingPools* pools) {
  serve::ServerOptions options;
  options.workers = cfg.workers;
  options.slice_minutes = cfg.slice_minutes;
  options.service_dilation = dilation;
  options.degraded = degraded;
  options.admission = cfg.admission;
  options.policy = cfg.policy;
  serve::SessionServer server(options);

  const int num_interactive = std::max(1, cfg.interactive_sessions);
  const int num_batch = std::max(1, cfg.batch_sessions);
  std::vector<int> interactive_sessions;
  std::vector<int> batch_sessions;
  for (int s = 0; s < num_interactive; ++s) {
    interactive_sessions.push_back(
        server.OpenSession(serve::Tier::kInteractive));
  }
  for (int s = 0; s < num_batch; ++s) {
    batch_sessions.push_back(server.OpenSession(serve::Tier::kBatch));
  }

  // Batch tier: the sustained heavy load, submitted in arrival order
  // (everything at t = 0; the virtual clock never rewinds).
  double batch_minutes = 0.0;
  for (const auto& [name, cost] : suite) batch_minutes += cost.minutes;
  for (int s = 0; s < num_batch; ++s) {
    for (const auto& [name, cost] : suite) {
      serve::Request request;
      request.name = name;
      request.cost_minutes = cost.minutes;
      request.scan_gb = cost.scanned_gb;
      request.arrival_minutes = 0.0;
      server.Submit(batch_sessions[static_cast<size_t>(s)],
                    std::move(request));
    }
  }

  // Interactive tier: single-chunk point selections at deterministic grid
  // positions (a splitmix-style hash of cycle and index), arriving spread
  // across the window the batch load is expected to occupy.
  const double window =
      std::max(1e-3, batch_minutes * std::max(1.0, dilation) *
                         static_cast<double>(num_batch) /
                         static_cast<double>(std::max(1, cfg.workers)));
  const int total_points =
      num_interactive * std::max(0, cfg.interactive_per_session);
  const auto extents = schema.ChunkGridExtents();
  for (int i = 0; i < total_points; ++i) {
    exec::QuerySpec spec;
    spec.name = "pt-" + std::to_string(cycle) + "-" + std::to_string(i);
    spec.kind = exec::QueryKind::kFilter;
    array::Coordinates at(extents.size());
    uint64_t h = 0x9e3779b97f4a7c15ull * static_cast<uint64_t>(i + 1) +
                 0xbf58476d1ce4e5b9ull * static_cast<uint64_t>(cycle + 1);
    for (size_t d = 0; d < extents.size(); ++d) {
      h ^= h >> 29;
      h *= 0x94d049bb133111ebull;
      at[d] = extents[d] > 0
                  ? static_cast<int64_t>(h % static_cast<uint64_t>(extents[d]))
                  : 0;
    }
    spec.region.lo = at;
    spec.region.hi = at;
    const auto cost = engine.Simulate(spec, view, schema);
    serve::Request request;
    request.name = spec.name;
    request.cost_minutes = cost.minutes;
    request.scan_gb = cost.scanned_gb;
    request.arrival_minutes = window * static_cast<double>(i + 1) /
                              static_cast<double>(total_points + 1);
    server.Submit(
        interactive_sessions[static_cast<size_t>(i % num_interactive)],
        std::move(request));
  }

  const serve::ServeResult served = server.Finish();
  const serve::TierStats& interactive =
      served.tier(serve::Tier::kInteractive);
  const serve::TierStats& batch = served.tier(serve::Tier::kBatch);
  ServingCycleMetrics metrics;
  metrics.ran = true;
  metrics.p50_interactive_ms = interactive.latency.p50_ms;
  metrics.p99_interactive_ms = interactive.latency.p99_ms;
  metrics.p50_batch_ms = batch.latency.p50_ms;
  metrics.p99_batch_ms = batch.latency.p99_ms;
  metrics.interactive_completed = interactive.latency.count;
  metrics.batch_completed = batch.latency.count;
  metrics.admitted = interactive.admitted + batch.admitted;
  metrics.rejected = served.total_rejected();
  metrics.dilation = dilation;
  metrics.makespan_minutes = served.makespan_minutes;

  pools->admitted += metrics.admitted;
  pools->rejected += metrics.rejected;
  for (const serve::Completed& rec : served.completed) {
    (rec.tier == serve::Tier::kInteractive ? pools->interactive_latencies
                                           : pools->batch_latencies)
        .push_back(rec.latency_minutes);
  }
  return metrics;
}

}  // namespace

RunResult WorkloadRunner::Run(const Workload& workload) const {
  // Config-scoped trace capture: span recording turns on for the run and
  // the buffered events are written at the end. A no-op when trace_path is
  // empty (the ARRAYDB_TRACE env hook covers that case process-wide).
  std::optional<telemetry::ScopedTracing> tracing;
  if (!config_.trace_path.empty()) tracing.emplace();

  const double capacity = workload.node_capacity_gb();
  core::ElasticEngine engine(
      core::MakePartitioner(config_.partitioner, workload.schema(),
                            config_.initial_nodes, capacity,
                            workload.growth_dim()),
      config_.initial_nodes, capacity, config_.cost_params);
  const int ingest_threads = util::ResolveThreadCount(config_.ingest.threads);
  engine.set_ingest_threads(ingest_threads);
  exec::QueryEngine query_engine(config_.engine_params);

  core::StaircaseConfig stair_cfg;
  stair_cfg.node_capacity_gb = capacity;
  stair_cfg.samples = config_.staircase_samples;
  stair_cfg.plan_ahead = config_.staircase_plan_ahead;
  core::LeadingStaircase staircase(stair_cfg);

  const bool paced =
      config_.reorg.budget_policy != MigrationBudgetPolicy::kFixedDrain;
  // Paced budgets spread a plan across cycles; that only makes sense when
  // queries can run mid-reorg through the dual-residency view.
  ARRAYDB_CHECK(!paced || config_.reorg.mode == ReorgMode::kOverlapped);

  RunResult result;
  // Paced-migration state living across cycles: the engine (its routing
  // epoch stays pinned until the plan drains), the arbiter owning the
  // just-in-time deadline countdown, the current cycle's grant (read by the
  // engine's budget callback), the schedule-invariant work minutes already
  // charged (pro-rated by bytes per cycle), and the EWMA of observed
  // benchmark minutes (the arbiter's overlap-window estimate; survives
  // across plans so a new plan starts with a warm window).
  std::optional<reorg::IncrementalReorgEngine> background;
  std::optional<reorg::BandwidthArbiter> arbiter;
  double cycle_budget_gb = 0.0;
  double plan_minutes_charged = 0.0;
  reorg::OverlapWindowEstimator overlap_window(
      config_.reorg.overlap_window_alpha);
  ServingPools serving_pools;
  // Summary totals already attributed to a cycle (charge_migration's
  // snapshot; reset when a plan begins).
  struct {
    double committed_gb = 0.0;
    int64_t committed_chunks = 0;
    int increments = 0;
    int over_budget_increments = 0;
    int64_t faults_injected = 0;
    int64_t transient_failures = 0;
    int64_t slow_copies = 0;
    int64_t retries = 0;
    int64_t timeouts = 0;
    int64_t node_deaths = 0;
    int64_t replans = 0;
    double backoff_ms = 0.0;
    double recovery_overhead_minutes = 0.0;
    double retry_gb = 0.0;
  } charged;

  // Fault-scenario state. The injector outlives every engine; the ordinal
  // base accumulates Begin counts across engine instances so a restaged or
  // successor plan draws fresh fault fates; the virtual clock feeds node-
  // death schedules; the staged plan is kept so an abort can restage it.
  const bool faults_on = config_.fault.enabled;
  ARRAYDB_CHECK(!faults_on || config_.reorg.mode != ReorgMode::kBlocking);
  std::optional<fault::FaultInjector> injector;
  if (faults_on) injector.emplace(config_.fault.plan);
  int plan_ordinal_base = 0;
  double virtual_now = 0.0;
  double retry_backlog_gb = 0.0;
  cluster::MovePlan active_plan;
  cluster::NodeId active_first_new = cluster::kInvalidNode;
  int plan_restarts = 0;
  // Folds the accumulated Begin count into the ordinal base and releases
  // the engine — every background.reset() goes through here.
  const auto release_background = [&] {
    plan_ordinal_base += background->plans_begun();
    background.reset();
    arbiter.reset();
  };

  for (int cycle = 0; cycle < workload.num_cycles(); ++cycle) {
    TELEM_SPAN("workload.runner.cycle");
    CycleMetrics m;
    m.cycle = cycle;
    m.nodes_before = engine.cluster().num_nodes();

    const auto batch = workload.GenerateBatch(cycle);
    double batch_gb = 0.0;
    for (const auto& c : batch) {
      batch_gb += util::BytesToGb(static_cast<double>(c.bytes));
    }
    const double projected = engine.cluster().TotalGb() + batch_gb;

    // Accounts the migration executed since the last charge (the snapshot
    // is tracked in charged, reset when a plan begins): deltas feed the
    // per-cycle trajectory, and the cycle is charged its byte share of the
    // schedule-invariant whole-plan price (the completion cycle absorbs
    // the floating-point residue, so per-cycle charges sum exactly to
    // work_minutes).
    const auto charge_migration = [&] {
      const auto& s = background->summary();
      const double moved = s.committed_gb - charged.committed_gb;
      m.moved_gb += moved;
      m.chunks_moved += s.committed_chunks - charged.committed_chunks;
      m.reorg_increments += s.increments - charged.increments;
      m.reorg_over_budget_increments +=
          s.over_budget_increments - charged.over_budget_increments;
      m.reorg_only_to_new_nodes =
          m.reorg_only_to_new_nodes && s.only_to_new_nodes;
      // A replan can revert committed bytes, driving the delta negative;
      // the charge never goes negative (the re-copy re-charges those bytes,
      // and the completion cycle absorbs the residue exactly).
      double charge =
          s.moved_gb > 0.0
              ? std::max(0.0, s.work_minutes * (moved / s.moved_gb))
              : 0.0;
      if (background->pending_chunks() == 0) {
        charge = s.work_minutes - plan_minutes_charged;
      }
      plan_minutes_charged += charge;
      m.reorg_minutes += charge;
      engine.RecordReorgMinutes(charge);
      charged.committed_gb = s.committed_gb;
      charged.committed_chunks = s.committed_chunks;
      charged.increments = s.increments;
      charged.over_budget_increments = s.over_budget_increments;
      // Fault/recovery deltas. Overhead minutes are real elapsed work on
      // top of the plan's schedule-invariant price; retry traffic feeds
      // the next cycle's bandwidth demand.
      m.faults_injected += s.faults_injected - charged.faults_injected;
      m.transient_failures +=
          s.transient_failures - charged.transient_failures;
      m.slow_copies += s.slow_copies - charged.slow_copies;
      m.retries += s.retries - charged.retries;
      m.timeouts += s.timeouts - charged.timeouts;
      m.node_deaths += s.node_deaths - charged.node_deaths;
      m.replans += s.replans - charged.replans;
      m.backoff_ms += s.backoff_ms - charged.backoff_ms;
      const double recovery =
          s.recovery_overhead_minutes - charged.recovery_overhead_minutes;
      if (recovery > 0.0) {
        m.recovery_overhead_minutes += recovery;
        m.reorg_minutes += recovery;
        engine.RecordReorgMinutes(recovery);
      }
      const double new_retry_gb = s.retry_gb - charged.retry_gb;
      if (new_retry_gb > 0.0) {
        m.retry_backlog_gb += new_retry_gb;
        retry_backlog_gb += new_retry_gb;
      }
      charged.faults_injected = s.faults_injected;
      charged.transient_failures = s.transient_failures;
      charged.slow_copies = s.slow_copies;
      charged.retries = s.retries;
      charged.timeouts = s.timeouts;
      charged.node_deaths = s.node_deaths;
      charged.replans = s.replans;
      charged.backoff_ms = s.backoff_ms;
      charged.recovery_overhead_minutes = s.recovery_overhead_minutes;
      charged.retry_gb = s.retry_gb;
    };

    // Recovery driver for every migration call site: runs the engine work,
    // and when it fails (an increment exhausted its retries, or a replan
    // found no surviving destination) charges the work done, aborts — the
    // rollback restores the exact pre-reorg placement from the retained
    // source replicas — and restages the plan under a fresh fault ordinal,
    // up to FaultConfig::max_plan_restarts. Past that the reorganization is
    // abandoned: the cluster keeps serving, just unbalanced. The first
    // attempt runs on a migrator thread overlapped with the batch placement
    // prewarm when asked (kOverlapped's structure); recovery reruns skip
    // the prewarm, which already happened.
    const auto run_migration = [&](bool drain_all, bool overlap_prewarm) {
      bool prewarmed = false;
      for (;;) {
        util::Status status;
        std::thread migrator([&background, &status, drain_all] {
          status = drain_all ? background->StepAll()
                             : background->Step().status();
        });
        if (overlap_prewarm && !prewarmed && ingest_threads > 1) {
          engine.partitioner().PrewarmPlacement(batch, ingest_threads);
        }
        prewarmed = true;
        migrator.join();
        if (status.ok()) return;
        ARRAYDB_CHECK(faults_on);
        charge_migration();
        m.reorg_aborts += 1;
        result.total_reorg_aborts += 1;
        ARRAYDB_CHECK(background->Abort().ok());
        m.rolled_back_gb += background->summary().rolled_back_gb;
        if (plan_restarts >= config_.fault.max_plan_restarts) {
          release_background();
          m.reorg_abandoned = true;
          result.reorgs_abandoned += 1;
          return;
        }
        plan_restarts += 1;
        ARRAYDB_CHECK(
            background->Begin(active_plan, active_first_new).ok());
        plan_minutes_charged = 0.0;
        charged = {};
      }
    };

    // Phase 1 (§3.4): determine whether the cluster is under-provisioned
    // for the incoming insert; if so scale out and redistribute the
    // preexisting chunks.
    int to_add = 0;
    if (config_.policy == ScaleOutPolicy::kCapacityTrigger) {
      const int nodes = engine.cluster().num_nodes();
      if (projected > engine.cluster().CapacityGb() &&
          nodes < config_.max_nodes) {
        to_add = std::min(config_.nodes_per_scaleout,
                          config_.max_nodes - nodes);
      }
    } else {
      to_add = staircase.Evaluate(projected,
                                  engine.cluster().num_nodes())
                   .nodes_to_add;
    }

    // A scale-out arriving while a paced migration is still in flight
    // force-drains the remainder first: the cluster must quiesce before the
    // next repartitioning can stage its plan.
    if (to_add > 0 && background.has_value()) {
      const double remaining = background->summary().moved_gb -
                               background->summary().committed_gb;
      cycle_budget_gb = remaining;
      run_migration(/*drain_all=*/true, /*overlap_prewarm=*/false);
      if (background.has_value()) {
        charge_migration();
        ARRAYDB_CHECK(background->Finish().ok());
        release_background();
      }
      m.migration_budget_gb += remaining;
      m.reorg_forced_drain = true;
      result.forced_drains += 1;
    }

    if (to_add > 0) {
      if (config_.reorg.mode == ReorgMode::kBlocking) {
        const auto reorg = engine.ScaleOut(to_add);
        m.reorg_minutes = reorg.minutes;
        m.moved_gb = reorg.moved_gb;
        m.chunks_moved = reorg.chunks_moved;
        m.reorg_only_to_new_nodes = reorg.only_to_new_nodes;
      } else {
        const auto prep = engine.PrepareScaleOut(to_add);
        reorg::ReorgOptions opts;
        opts.increment_gb = config_.reorg.increment_gb;
        opts.copy_threads = ingest_threads;
        if (faults_on) {
          opts.injector = &*injector;
          opts.retry = config_.fault.retry;
          opts.increment_timeout_minutes =
              config_.fault.increment_timeout_minutes;
          opts.virtual_start_minutes = virtual_now;
          opts.plan_ordinal_base = plan_ordinal_base;
        }
        if (paced) {
          // Each increment is sized by the cycle grant the budget policy
          // last computed (the arbiter's, or the fixed per-cycle budget).
          opts.budget_fn = [&cycle_budget_gb](const reorg::BudgetRequest&) {
            return cycle_budget_gb;
          };
        }
        background.emplace(&engine.mutable_cluster(), &engine.cost_model(),
                           opts);
        const auto begun =
            background->Begin(prep.plan, prep.first_new_node);
        ARRAYDB_CHECK(begun.ok());
        active_plan = prep.plan;
        active_first_new = prep.first_new_node;
        plan_restarts = 0;
        plan_minutes_charged = 0.0;
        charged = {};
        if (paced) {
          reorg::ArbiterOptions arbiter_opts;
          arbiter_opts.clamps = config_.reorg.arbitration;
          arbiter_opts.plan_ahead_cycles = config_.staircase_plan_ahead;
          if (config_.reorg.budget_policy ==
              MigrationBudgetPolicy::kFixedPaced) {
            arbiter_opts.fixed_gb = config_.reorg.increment_gb;
          }
          arbiter.emplace(&engine.cost_model(), arbiter_opts);
          arbiter->BeginPlan();
        } else if (config_.reorg.mode == ReorgMode::kIncremental) {
          // Drain before the insert: same serialized schedule as blocking,
          // but sliced, validated, and tracked per increment.
          run_migration(/*drain_all=*/true, /*overlap_prewarm=*/false);
        } else {
          // kOverlapped: migrate on a background thread while this thread
          // prewarms the batch's placement state. The two touch disjoint
          // state (cluster vs. partitioner) and are each deterministic, so
          // the overlap is free of ordering effects. The prewarm's rank memo
          // makes IngestBatch's own prewarm a cache hit.
          run_migration(/*drain_all=*/true, /*overlap_prewarm=*/true);
        }
        if (!paced && background.has_value()) {
          // Fully drained: the charge is exactly the plan's work_minutes
          // (plus any fault-recovery overhead), same as the legacy direct
          // summary read.
          charge_migration();
          if (config_.reorg.mode == ReorgMode::kIncremental) {
            ARRAYDB_CHECK(background->Finish().ok());
            release_background();
          }
        }
      }
    }

    // Paced policies: one budgeted increment per cycle (the whole remainder
    // on the deadline cycle), overlapped with the batch placement prewarm
    // exactly like the drain path. The workload's last cycle is always a
    // deadline: the plan quiesces with the run, so no migration work (or
    // its charge) is lost off the end of the experiment.
    double serving_dilation = 1.0;
    if (paced && background.has_value() && background->pending_chunks() > 0) {
      const auto& s = background->summary();
      cluster::BandwidthDemand demand;
      demand.remaining_migration_gb = s.moved_gb - s.committed_gb;
      // Retry traffic observed since the last grant widens this cycle's
      // migration demand (one-cycle lag keeps the arbitration causal and
      // deterministic); presented once, then cleared.
      demand.retry_backlog_gb = retry_backlog_gb;
      retry_backlog_gb = 0.0;
      demand.projected_ingest_gb = batch_gb;
      demand.overlap_window_minutes = overlap_window.estimate();
      demand.num_nodes = engine.cluster().num_nodes();
      if (config_.serving.enabled) {
        // Three-way arbitration: reserve query service capacity in the
        // window, and charge any migration intrusion beyond the remaining
        // free time to the serving layer as a service-time dilation.
        demand.projected_query_minutes = overlap_window.estimate();
      }
      if (cycle + 1 >= workload.num_cycles()) arbiter->ForceDeadline();
      const bool deadline = arbiter->cycles_left() <= 1;
      const auto shares = arbiter->PlanCycleShares(demand);
      cycle_budget_gb = shares.budget.migration_gb;
      m.migration_budget_gb += shares.budget.migration_gb;
      serving_dilation = shares.query_dilation;
      run_migration(/*drain_all=*/deadline, /*overlap_prewarm=*/true);
      if (background.has_value()) charge_migration();
    }

    // Phase 2: ingest the batch. In kOverlapped mode with the legacy drain
    // policy all increments have committed (placement decisions match the
    // blocking schedule exactly) and only the routing epoch remains pinned
    // for the query phase; under the paced policies the plan may still
    // hold uncommitted moves, so the insert lands on a partially migrated
    // cluster — placement consults authoritative owners, queries stay on
    // the pinned dual-residency snapshot.
    const auto insert = engine.IngestBatch(batch);
    m.insert_minutes = insert.minutes;
    m.load_gb = engine.cluster().TotalGb();
    m.rsd = engine.cluster().LoadRsd();
    m.nodes_after = engine.cluster().num_nodes();
    staircase.ObserveLoad(m.load_gb);

    // Phase 3: execute the query workload. Mid-reorg cycles route through
    // the dual-residency view, which pins reads to the retained source
    // replicas — results are bit-identical to a quiesced cluster and
    // independent of migration progress.
    if (config_.run_queries) {
      const reorg::DualResidencyView dual_view(engine.cluster());
      const cluster::PlacementView& view =
          background.has_value()
              ? static_cast<const cluster::PlacementView&>(dual_view)
              : engine.cluster();
      std::vector<std::pair<std::string, exec::QueryCost>> suite;
      for (const auto& q : workload.SpjQueries(cycle)) {
        const auto cost = query_engine.Simulate(q, view, workload.schema());
        m.spj_minutes += cost.minutes;
        m.query_minutes.emplace_back(q.name, cost.minutes);
        if (config_.serving.enabled) suite.emplace_back(q.name, cost);
      }
      for (const auto& q : workload.ScienceQueries(cycle)) {
        const auto cost = query_engine.Simulate(q, view, workload.schema());
        m.science_minutes += cost.minutes;
        m.query_minutes.emplace_back(q.name, cost.minutes);
        if (config_.serving.enabled) suite.emplace_back(q.name, cost);
      }
      // Serving scenario: replay the cycle's suite as concurrent batch
      // sessions plus an interactive point-query stream through the
      // SessionServer. Measurement-only with respect to the legacy cycle
      // metrics — the one coupling is the three-way arbiter's dilation
      // computed above, which stretches virtual service times.
      if (config_.serving.enabled) {
        // Graceful degradation: a cycle that saw fault recovery (retries,
        // timeouts, replans, aborts) serves with the batch tier's queue
        // capacity shed, protecting interactive latency while the
        // migration plane re-transfers.
        m.serving_degraded =
            faults_on && (m.retries > 0 || m.timeouts > 0 ||
                          m.replans > 0 || m.reorg_aborts > 0);
        m.serving = RunServingCycle(config_.serving, query_engine, view,
                                    workload.schema(), suite,
                                    serving_dilation, m.serving_degraded,
                                    cycle, &serving_pools);
      }
    }

    // The migration window closes once the plan has drained: release the
    // routing epoch. Paced plans with moves remaining stay pinned across
    // cycles (queries keep routing through the dual-residency view).
    if (background.has_value() &&
        (!paced || background->pending_chunks() == 0)) {
      ARRAYDB_CHECK(background->Finish().ok());
      release_background();
    }

    // Overlap credit: in kOverlapped mode the query workload executed during
    // the migration window, so the cycle's elapsed time only pays the longer
    // of the two. The credit comes from the migration minutes actually
    // executed this cycle (m.reorg_minutes is the executed share, not the
    // whole-plan price), so it matches the trajectory when migration is
    // paced across cycles. What the query window does not hide lands on the
    // ingest path: the stall metric.
    const double benchmark_minutes = m.spj_minutes + m.science_minutes;
    if (config_.reorg.mode == ReorgMode::kOverlapped) {
      m.overlap_saved_minutes = std::min(m.reorg_minutes, benchmark_minutes);
    }
    m.ingest_stall_minutes = m.reorg_minutes - m.overlap_saved_minutes;
    m.elapsed_minutes = m.insert_minutes + m.reorg_minutes +
                        benchmark_minutes - m.overlap_saved_minutes;
    overlap_window.Observe(benchmark_minutes);

    // Eq. 1: N_i * elapsed_i, accumulated in node hours (elapsed equals
    // I_i + r_i + w_i outside kOverlapped).
    result.cost_node_hours +=
        static_cast<double>(m.nodes_after) * m.elapsed_minutes / 60.0;

    result.total_insert_minutes += m.insert_minutes;
    result.total_reorg_minutes += m.reorg_minutes;
    result.total_spj_minutes += m.spj_minutes;
    result.total_science_minutes += m.science_minutes;
    result.total_reorg_increments += m.reorg_increments;
    result.total_overlap_saved_minutes += m.overlap_saved_minutes;
    result.total_ingest_stall_minutes += m.ingest_stall_minutes;
    result.total_over_budget_increments += m.reorg_over_budget_increments;
    result.total_elapsed_minutes += m.elapsed_minutes;
    result.total_faults_injected += m.faults_injected;
    result.total_retries += m.retries;
    result.total_timeouts += m.timeouts;
    result.total_node_deaths += m.node_deaths;
    result.total_replans += m.replans;
    result.total_backoff_ms += m.backoff_ms;
    result.total_recovery_overhead_minutes += m.recovery_overhead_minutes;
    result.mean_rsd += m.rsd;
    // Simulated wall time feeds the virtual clock the next plan's engine
    // starts at (node-death schedules trigger against it).
    virtual_now += m.elapsed_minutes;
    RecordCycleTelemetry(m, to_add > 0);
    result.cycles.push_back(std::move(m));
  }
  if (!result.cycles.empty()) {
    result.mean_rsd /= static_cast<double>(result.cycles.size());
  }
  result.final_nodes = result.cycles.empty()
                           ? config_.initial_nodes
                           : result.cycles.back().nodes_after;
  if (config_.serving.enabled) {
    result.serving_interactive =
        serve::Summarize(std::move(serving_pools.interactive_latencies));
    result.serving_batch =
        serve::Summarize(std::move(serving_pools.batch_latencies));
    result.serving_admitted = serving_pools.admitted;
    result.serving_rejected = serving_pools.rejected;
  }
  if (tracing.has_value()) {
    tracing.reset();  // Close the capture window before serializing.
    telemetry::WriteTrace(config_.trace_path);
  }
  return result;
}

}  // namespace arraydb::workload

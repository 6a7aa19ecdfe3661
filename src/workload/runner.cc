#include "workload/runner.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "core/elastic_engine.h"
#include "exec/engine.h"
#include "reorg/overlap_window.h"
#include "reorg/reorg_engine.h"
#include "telemetry/trace.h"
#include "util/logging.h"
#include "util/units.h"

namespace arraydb::workload {

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
  // Recovery outcomes the engine cannot see (its own fault tallies are the
  // reorg.engine.* counters). Zero-valued adds are skipped so fault-free
  // runs leave no recovery metrics behind.
  if (m.reorgs_abandoned > 0) {
    TELEM_COUNTER_ADD("workload.runner.reorgs_abandoned", m.reorgs_abandoned);
  }
  if (m.recovery_overhead_minutes > 0.0) {
    TELEM_COUNTER_ADD("workload.runner.recovery_overhead_ms",
                      MinutesToMs(m.recovery_overhead_minutes));
  }
}

// Raw latencies pooled across every serving cycle (the run-level
// percentiles come from the pooled population, not from averaging
// per-cycle percentiles).
struct ServingPools {
  std::vector<double> interactive_latencies;
  std::vector<double> batch_latencies;
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

  const int num_interactive = ServingConfig::kInteractiveSessions;
  const int num_batch = ServingConfig::kBatchSessions;
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
      num_interactive * ServingConfig::kInteractivePerSession;
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

  for (const serve::Completed& rec : served.completed) {
    (rec.tier == serve::Tier::kInteractive ? pools->interactive_latencies
                                           : pools->batch_latencies)
        .push_back(rec.latency_minutes);
  }
  return metrics;
}

}  // namespace

RunResult WorkloadRunner::Run(const Workload& workload) const {
  const double capacity = workload.node_capacity_gb();
  core::ElasticEngine engine(
      core::MakePartitioner(config_.partitioner, workload.schema(),
                            config_.initial_nodes, capacity,
                            workload.growth_dim()),
      config_.initial_nodes, capacity, config_.cost_params);
  const exec::QueryEngine query_engine;

  core::StaircaseConfig stair_cfg;
  stair_cfg.node_capacity_gb = capacity;
  stair_cfg.samples = config_.staircase_samples;
  stair_cfg.plan_ahead = config_.staircase_plan_ahead;
  core::LeadingStaircase staircase(stair_cfg);

  const ReorgSchedule schedule = config_.reorg.schedule;
  const bool paced = schedule == ReorgSchedule::kPaced;

  RunResult result;
  // Migration state living across cycles: the engine (its routing epoch
  // stays pinned until the plan drains), the just-in-time deadline
  // countdown, the current cycle's grant (read by the engine's budget
  // callback), the schedule-invariant work minutes already charged
  // (pro-rated by bytes per cycle), and the EWMA of observed benchmark
  // minutes (the overlap-window estimate; survives across plans so a new
  // plan starts with a warm window).
  std::optional<reorg::IncrementalReorgEngine> background;
  int cycles_left = 1;
  double cycle_budget_gb = 0.0;
  double plan_minutes_charged = 0.0;
  reorg::OverlapWindowEstimator overlap_window;
  ServingPools serving_pools;
  // Summary totals already attributed to a cycle (charge_migration's
  // snapshot; reset when a plan begins).
  reorg::ReorgSummary charged;

  // Fault-scenario state. The injector outlives every engine; the ordinal
  // base accumulates Begin counts across engine instances so a restaged or
  // successor plan draws fresh fault fates; the virtual clock feeds node-
  // death schedules; the staged plan is kept so an abort can restage it.
  const bool faults_on = config_.fault.enabled;
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
      // Fault/recovery deltas. Overhead minutes are real elapsed work on
      // top of the plan's schedule-invariant price; retry traffic feeds
      // the next cycle's bandwidth demand.
      m.faults += s.faults - charged.faults;
      const double recovery =
          s.recovery_overhead_minutes - charged.recovery_overhead_minutes;
      if (recovery > 0.0) {
        m.recovery_overhead_minutes += recovery;
        m.reorg_minutes += recovery;
      }
      const double new_retry_gb = s.retry_gb - charged.retry_gb;
      if (new_retry_gb > 0.0) {
        m.retry_backlog_gb += new_retry_gb;
        retry_backlog_gb += new_retry_gb;
      }
      charged = s;
    };

    // Recovery driver for every migration call site: runs the engine work,
    // and when it fails (an increment exhausted its retries, or a replan
    // found no surviving destination) charges the work done, aborts — the
    // rollback restores the exact pre-reorg placement from the retained
    // source replicas — and restages the plan under a fresh fault ordinal,
    // up to FaultConfig::max_plan_restarts. Past that the reorganization is
    // abandoned: the cluster keeps serving, just unbalanced.
    const auto run_migration = [&](bool drain_all) {
      for (;;) {
        const util::Status status =
            drain_all ? background->StepAll() : background->Step().status();
        if (status.ok()) return;
        // Only injected faults fail a step; they surface as kUnavailable.
        ARRAYDB_CHECK(status.code() == util::StatusCode::kUnavailable);
        charge_migration();
        m.reorg_aborts += 1;
        ARRAYDB_CHECK(background->Abort().ok());
        m.rolled_back_gb += background->summary().rolled_back_gb;
        if (plan_restarts >= config_.fault.max_plan_restarts) {
          release_background();
          m.reorgs_abandoned += 1;
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
      run_migration(/*drain_all=*/true);
      if (background.has_value()) {
        charge_migration();
        ARRAYDB_CHECK(background->Finish().ok());
        release_background();
      }
      m.migration_budget_gb += remaining;
      m.reorg_forced_drain = true;
    }

    if (to_add > 0) {
      const auto prep = engine.PrepareScaleOut(to_add);
      reorg::ReorgOptions opts;
      opts.increment_gb = config_.reorg.increment_gb;
      if (faults_on) {
        opts.injector = &*injector;
        opts.retry = config_.fault.retry;
        opts.increment_timeout_minutes =
            config_.fault.increment_timeout_minutes;
        opts.virtual_start_minutes = virtual_now;
        opts.plan_ordinal_base = plan_ordinal_base;
      }
      if (paced) {
        // Each increment is sized by the cycle grant last arbitrated.
        opts.budget_fn = [&cycle_budget_gb](const reorg::BudgetRequest&) {
          return cycle_budget_gb;
        };
      }
      background.emplace(&engine.mutable_cluster(), &engine.cost_model(),
                         opts);
      const auto begun = background->Begin(prep.plan, prep.first_new_node);
      ARRAYDB_CHECK(begun.ok());
      active_plan = prep.plan;
      active_first_new = prep.first_new_node;
      plan_restarts = 0;
      plan_minutes_charged = 0.0;
      charged = {};
      if (paced) {
        cycles_left = std::max(1, config_.staircase_plan_ahead);
      } else {
        // kBlocking drains before the insert; kOverlapped drains here too,
        // and its overlap with the cycle's queries is priced below
        // (overlap_saved_minutes), not run concurrently.
        run_migration(/*drain_all=*/true);
        if (background.has_value()) {
          // Fully drained: the charge is exactly the plan's work_minutes
          // (plus any fault-recovery overhead).
          charge_migration();
          if (schedule == ReorgSchedule::kBlocking) {
            ARRAYDB_CHECK(background->Finish().ok());
            release_background();
          }
        }
      }
    }

    // kPaced: one budgeted increment per cycle (the whole remainder on the
    // deadline cycle). The workload's last cycle is always a deadline:
    // the plan quiesces with the run, so no migration work (or its charge)
    // is lost off the end of the experiment.
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
        // Reserve query service capacity in the window, and charge any
        // migration intrusion beyond the remaining free time to the
        // serving layer as a service-time dilation.
        demand.projected_query_minutes = overlap_window.estimate();
      }
      if (cycle + 1 >= workload.num_cycles()) cycles_left = 1;
      const bool deadline = cycles_left <= 1;
      demand.cycles_until_deadline = cycles_left;
      const auto shares = engine.cost_model().Arbitrate(demand);
      TELEM_COUNTER_ADD("reorg.arbiter.grants", 1);
      TELEM_COUNTER_ADD("reorg.arbiter.granted_bytes",
                        std::llround(util::GbToBytes(shares.migration_gb)));
      if (shares.deadline_binding) {
        TELEM_COUNTER_ADD("reorg.arbiter.deadline_force_grants", 1);
      }
      TELEM_GAUGE_SET("reorg.arbiter.cycles_left", cycles_left);
      cycles_left = std::max(1, cycles_left - 1);
      cycle_budget_gb = shares.migration_gb;
      m.migration_budget_gb += shares.migration_gb;
      serving_dilation = shares.query_dilation;
      run_migration(/*drain_all=*/deadline);
      if (background.has_value()) charge_migration();
    }

    // Phase 2: ingest the batch. Under kOverlapped all increments have
    // committed (placement decisions match the blocking schedule exactly)
    // and only the routing epoch remains pinned for the query phase; under
    // kPaced the plan may still hold uncommitted moves, so the insert lands
    // on a partially migrated cluster — placement consults authoritative
    // owners, queries stay on the pinned dual-residency snapshot.
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
      // metrics — the one coupling is the arbitrated query dilation
      // computed above, which stretches virtual service times.
      if (config_.serving.enabled) {
        // Graceful degradation: a cycle that saw fault recovery (retries,
        // timeouts, replans, aborts) serves with the batch tier's queue
        // capacity shed, protecting interactive latency while the
        // migration plane re-transfers.
        m.serving_degraded =
            faults_on && (m.faults.retries > 0 || m.faults.timeouts > 0 ||
                          m.faults.replans > 0 || m.reorg_aborts > 0);
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

    // Overlap credit: outside kBlocking the query workload executed during
    // the migration window, so the cycle's elapsed time only pays the longer
    // of the two. The credit comes from the migration minutes actually
    // executed this cycle (m.reorg_minutes is the executed share, not the
    // whole-plan price), so it matches the trajectory when migration is
    // paced across cycles. What the query window does not hide lands on the
    // ingest path: the stall metric.
    const double benchmark_minutes = m.spj_minutes + m.science_minutes;
    if (schedule != ReorgSchedule::kBlocking) {
      m.overlap_saved_minutes = std::min(m.reorg_minutes, benchmark_minutes);
    }
    m.ingest_stall_minutes = m.reorg_minutes - m.overlap_saved_minutes;
    m.elapsed_minutes = m.insert_minutes + m.reorg_minutes +
                        benchmark_minutes - m.overlap_saved_minutes;
    overlap_window.Observe(benchmark_minutes);

    // Simulated wall time feeds the virtual clock the next plan's engine
    // starts at (node-death schedules trigger against it).
    virtual_now += m.elapsed_minutes;
    RecordCycleTelemetry(m, to_add > 0);
    result.cycles.push_back(std::move(m));
  }
  result.final_nodes = result.cycles.empty()
                           ? config_.initial_nodes
                           : result.cycles.back().nodes_after;
  if (config_.serving.enabled) {
    result.serving_interactive =
        serve::Summarize(std::move(serving_pools.interactive_latencies));
    result.serving_batch =
        serve::Summarize(std::move(serving_pools.batch_latencies));
  }
  return result;
}

}  // namespace arraydb::workload

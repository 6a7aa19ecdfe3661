// Tests for cost-model-driven queries/ingest/migration bandwidth
// arbitration: CostModel::Arbitrate (grants monotone in ingest and query
// load, query dilation >= 1, floor/ceiling clamps, just-in-time pace, the
// deadline grant), the paced WorkloadRunner schedule (migration completes
// within the plan-ahead window, arbitration beats the drained schedule on
// ingest stall), and bit-identical mid-reorg query results while a paced
// migration interleaves with inserts.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/cost_model.h"
#include "exec/engine.h"
#include "reorg/overlap_window.h"
#include "reorg/reorg_engine.h"
#include "util/units.h"
#include "workload/ais.h"
#include "workload/runner.h"

namespace arraydb::reorg {
namespace {

using cluster::ArbitrationClamps;
using cluster::BandwidthDemand;
using cluster::BandwidthShares;
using cluster::ChunkMove;
using cluster::Cluster;
using cluster::CostModel;
using cluster::MovePlan;

constexpr int64_t kMiB = 1024 * 1024;

BandwidthDemand BaseDemand() {
  BandwidthDemand demand;
  demand.remaining_migration_gb = 48.0;
  demand.projected_ingest_gb = 20.0;
  demand.cycles_until_deadline = 3;
  demand.overlap_window_minutes = 30.0;
  demand.num_nodes = 8;
  return demand;
}

TEST(ArbitrateTest, GrantsNothingWithoutRemainingWork) {
  CostModel model;
  BandwidthDemand demand = BaseDemand();
  demand.remaining_migration_gb = 0.0;
  const BandwidthShares budget = model.Arbitrate(demand);
  EXPECT_DOUBLE_EQ(budget.migration_gb, 0.0);
  EXPECT_DOUBLE_EQ(budget.predicted_stall_minutes, 0.0);
}

TEST(ArbitrateTest, BudgetsMonotoneNonIncreasingInIngestLoad) {
  CostModel model;
  // Sweeps one load term from 0 to 200 and checks the grant never rises
  // and the query dilation never drops below 1. Returns the grants at the
  // two ends of the sweep.
  const auto sweep = [&model](double BandwidthDemand::*load,
                              double query_minutes) {
    double prev = std::numeric_limits<double>::infinity();
    std::vector<double> grants;
    for (double x = 0.0; x <= 200.0; x += 5.0) {
      BandwidthDemand demand = BaseDemand();
      demand.projected_query_minutes = query_minutes;
      demand.*load = x;
      const BandwidthShares shares = model.Arbitrate(demand);
      EXPECT_LE(shares.migration_gb, prev) << "load " << x;
      EXPECT_GT(shares.migration_gb, 0.0) << "load " << x;
      EXPECT_GE(shares.query_dilation, 1.0) << "load " << x;
      if (demand.projected_query_minutes == 0.0) {
        EXPECT_EQ(shares.query_dilation, 1.0) << "load " << x;
      }
      prev = shares.migration_gb;
      grants.push_back(shares.migration_gb);
    }
    return std::make_pair(grants.front(), grants.back());
  };
  // The policy actually responds: an ingest-heavy cycle gets a strictly
  // smaller migration grant than an idle one, with or without queries.
  for (const double query_minutes : {0.0, 10.0}) {
    const auto [idle, heavy] =
        sweep(&BandwidthDemand::projected_ingest_gb, query_minutes);
    EXPECT_LT(heavy, idle) << "query minutes " << query_minutes;
  }
  // Query reservations shrink the free window the same way.
  const auto [idle, heavy] = sweep(&BandwidthDemand::projected_query_minutes,
                                   /*query_minutes=*/0.0);
  EXPECT_LT(heavy, idle);
}

TEST(ArbitrateTest, NeverBelowJustInTimePace) {
  CostModel model;
  BandwidthDemand demand = BaseDemand();
  demand.overlap_window_minutes = 0.0;  // No free window at all.
  demand.projected_ingest_gb = 500.0;   // Ingest-saturated cycle.
  const BandwidthShares budget = model.Arbitrate(demand);
  EXPECT_DOUBLE_EQ(budget.jit_gb, 16.0);  // 48 GB over 3 cycles.
  EXPECT_GE(budget.migration_gb, budget.jit_gb);
  EXPECT_TRUE(budget.deadline_binding);
  EXPECT_GT(budget.predicted_stall_minutes, 0.0);
}

TEST(ArbitrateTest, FreeWindowAcceleratesBeyondJustInTime) {
  CostModel model;
  BandwidthDemand demand = BaseDemand();
  demand.projected_ingest_gb = 0.0;
  demand.overlap_window_minutes = 1000.0;  // Window swallows the plan.
  ArbitrationClamps clamps;
  clamps.ceiling_gb = 1000.0;
  const BandwidthShares budget = model.Arbitrate(demand, clamps);
  // Everything remaining fits behind the queries: grant it all, stall-free.
  EXPECT_DOUBLE_EQ(budget.migration_gb, demand.remaining_migration_gb);
  EXPECT_FALSE(budget.deadline_binding);
  EXPECT_DOUBLE_EQ(budget.predicted_stall_minutes, 0.0);
}

TEST(ArbitrateTest, FloorAndCeilingClampsHold) {
  CostModel model;
  ArbitrationClamps clamps;
  clamps.floor_gb = 2.0;
  clamps.ceiling_gb = 10.0;

  // Distant deadline and no window: just-in-time pace would be ~0, but the
  // floor keeps migration alive.
  BandwidthDemand demand = BaseDemand();
  demand.cycles_until_deadline = 1000;
  demand.overlap_window_minutes = 0.0;
  EXPECT_DOUBLE_EQ(model.Arbitrate(demand, clamps).migration_gb,
                   2.0);

  // Huge window: the ceiling keeps migration from monopolizing the cycle.
  demand.overlap_window_minutes = 1e6;
  EXPECT_DOUBLE_EQ(model.Arbitrate(demand, clamps).migration_gb,
                   10.0);

  // Less remaining than the floor: grant only what remains.
  demand.remaining_migration_gb = 0.5;
  demand.overlap_window_minutes = 0.0;
  EXPECT_DOUBLE_EQ(model.Arbitrate(demand, clamps).migration_gb,
                   0.5);
}

TEST(ArbitrateTest, DeadlineCycleGrantsTheRemainder) {
  CostModel model;
  ArbitrationClamps clamps;
  clamps.ceiling_gb = 8.0;  // Tight: jit alone cannot finish by p.

  double remaining = 48.0;
  for (const int cycles_left : {3, 2, 1}) {
    BandwidthDemand demand = BaseDemand();
    demand.remaining_migration_gb = remaining;
    demand.overlap_window_minutes = 0.0;
    demand.cycles_until_deadline = cycles_left;
    const BandwidthShares granted = model.Arbitrate(demand, clamps);
    if (cycles_left > 1) {
      EXPECT_LE(granted.migration_gb, 8.0) << "cycles left " << cycles_left;
    } else {
      // Deadline: the clamps yield to just-in-time completion.
      EXPECT_DOUBLE_EQ(granted.migration_gb, remaining);
      EXPECT_TRUE(granted.deadline_binding);
      // Retry traffic widens the demand but never the deadline grant,
      // which covers the plan's remainder only.
      demand.retry_backlog_gb = 6.0;
      EXPECT_DOUBLE_EQ(model.Arbitrate(demand, clamps).migration_gb,
                       remaining);
    }
    remaining -= granted.migration_gb;
  }
  EXPECT_DOUBLE_EQ(remaining, 0.0);
}

// Paced migration interleaved with fresh inserts: queries through the
// dual-residency view must stay bit-identical to a cluster that never
// migrated but received the same inserts.
TEST(ArbitratedReorgTest, MidReorgPacedQueriesMatchQuiescedCluster) {
  Cluster migrating(2, 1.0);
  Cluster quiesced(2, 1.0);
  for (int64_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(migrating.PlaceChunk({i}, 64 * kMiB, 0).ok());
    ASSERT_TRUE(quiesced.PlaceChunk({i}, 64 * kMiB, 0).ok());
  }
  const cluster::NodeId first_new = migrating.AddNodes(2);
  quiesced.AddNodes(2);
  MovePlan plan;
  for (int64_t i = 4; i < 8; ++i) {
    plan.Add(ChunkMove{{i}, 64 * kMiB, 0, first_new});
  }

  CostModel model;
  ReorgOptions options;
  options.budget_fn = [](const BudgetRequest&) {
    return util::BytesToGb(64.0 * kMiB);  // One move per increment.
  };
  IncrementalReorgEngine engine(&migrating, &model, options);
  ASSERT_TRUE(engine.Begin(plan, first_new).ok());

  exec::QueryEngine qe;
  array::ArraySchema schema("s", {array::DimensionDesc{"x", 0, 63, 1, false}},
                            {array::AttributeDesc{
                                "v", array::AttrType::kDouble}});
  const auto view = engine.View();
  int64_t next_coord = 100;
  while (engine.pending_chunks() > 0) {
    ASSERT_TRUE(engine.Step().ok());
    // A fresh insert lands between increments, on both clusters alike.
    ASSERT_TRUE(migrating.PlaceChunk({next_coord}, 8 * kMiB, 1).ok());
    ASSERT_TRUE(quiesced.PlaceChunk({next_coord}, 8 * kMiB, 1).ok());
    ++next_coord;
    for (const auto kind :
         {exec::QueryKind::kFilter, exec::QueryKind::kWindow,
          exec::QueryKind::kGroupBy}) {
      exec::QuerySpec spec;
      spec.kind = kind;
      spec.region = exec::ChunkRegion::All(1);
      const auto mid = qe.Simulate(spec, view, schema);
      const auto quiet = qe.Simulate(spec, quiesced, schema);
      EXPECT_EQ(mid.minutes, quiet.minutes);
      EXPECT_EQ(mid.scanned_gb, quiet.scanned_gb);
      EXPECT_EQ(mid.chunks_touched, quiet.chunks_touched);
      EXPECT_EQ(mid.remote_neighbor_fetches, quiet.remote_neighbor_fetches);
    }
  }
  ASSERT_TRUE(engine.Finish().ok());
  // Released: the migrated chunks now read from the new node.
  cluster::NodeId node = cluster::kInvalidNode;
  int64_t bytes = 0;
  ASSERT_TRUE(view.Lookup({4}, &node, &bytes));
  EXPECT_EQ(node, first_new);
}

// -- Overlap window estimation (EWMA) --------------------------------------

TEST(OverlapWindowEstimatorTest, SeedsOnFirstObservationAndAlphaOneIsLegacy) {
  OverlapWindowEstimator ewma(0.5);
  EXPECT_FALSE(ewma.has_estimate());
  EXPECT_DOUBLE_EQ(ewma.estimate(), 0.0);  // Legacy cold start.
  ewma.Observe(40.0);
  EXPECT_TRUE(ewma.has_estimate());
  EXPECT_DOUBLE_EQ(ewma.estimate(), 40.0);  // First observation seeds.

  // alpha = 1 reproduces the previous-cycle estimator bit for bit.
  OverlapWindowEstimator legacy(1.0);
  for (const double minutes : {10.0, 35.5, 0.0, 17.25}) {
    legacy.Observe(minutes);
    EXPECT_DOUBLE_EQ(legacy.estimate(), minutes);
  }
}

TEST(OverlapWindowEstimatorTest, ReactsToAQueryLoadSwingFasterThanAMean) {
  // A sustained query-load swing: three light cycles (10 min of
  // benchmarks), then the workload jumps to 50 min. The EWMA crosses the
  // midpoint within two post-swing cycles; a cumulative running mean — the
  // natural "stable" alternative smoother — is still far below it. (The
  // raw previous-cycle estimator reacts instantly but chases every spike;
  // see the smoothing test below.)
  OverlapWindowEstimator ewma(0.5);
  double mean = 0.0;
  int n = 0;
  const auto observe = [&](double minutes) {
    ewma.Observe(minutes);
    mean = (mean * n + minutes) / (n + 1);
    ++n;
  };
  for (int i = 0; i < 3; ++i) observe(10.0);
  EXPECT_DOUBLE_EQ(ewma.estimate(), 10.0);
  observe(50.0);
  observe(50.0);
  EXPECT_GE(ewma.estimate(), 40.0);  // 10 -> 30 -> 40 after two cycles.
  EXPECT_LT(mean, 30.0);             // The mean has barely moved.
  EXPECT_GT(ewma.estimate(), mean);
  // And it converges: five more cycles land within 2% of the new level.
  for (int i = 0; i < 5; ++i) observe(50.0);
  EXPECT_NEAR(ewma.estimate(), 50.0, 1.0);
}

TEST(OverlapWindowEstimatorTest, SmoothsSpikesBetterThanPreviousCycle) {
  // Alternating light/heavy cycles around a 20-minute mean: the EWMA's
  // prediction error for the next cycle is strictly below the legacy
  // previous-cycle estimator's (which always predicts the opposite phase).
  OverlapWindowEstimator ewma(0.5);
  OverlapWindowEstimator legacy(1.0);
  double ewma_err = 0.0, legacy_err = 0.0;
  double minutes = 0.0;
  for (int cycle = 0; cycle < 40; ++cycle) {
    minutes = cycle % 2 == 0 ? 0.0 : 40.0;
    if (cycle > 0) {
      ewma_err += std::abs(ewma.estimate() - minutes);
      legacy_err += std::abs(legacy.estimate() - minutes);
    }
    ewma.Observe(minutes);
    legacy.Observe(minutes);
  }
  EXPECT_LT(ewma_err, legacy_err * 0.75);
}

}  // namespace
}  // namespace arraydb::reorg

namespace arraydb::workload {
namespace {

constexpr int64_t kMiB = 1024 * 1024;

// The bench's ingest-heavy staircase setup, shrunk only in spirit: a
// bandwidth-constrained cluster where migration and ingest actually
// compete for link time.
RunnerConfig HeavyStaircaseConfig(ReorgSchedule schedule) {
  RunnerConfig cfg;
  cfg.partitioner = core::PartitionerKind::kHilbertCurve;
  cfg.policy = ScaleOutPolicy::kStaircase;
  cfg.initial_nodes = 2;
  cfg.max_nodes = 64;
  cfg.reorg.schedule = schedule;
  cfg.cost_params.net_minutes_per_gb = 1.0;
  return cfg;
}

int ForcedDrains(const RunResult& r) {
  return r.Sum([](const CycleMetrics& m) { return int{m.reorg_forced_drain}; });
}

AisWorkload HeavyAis() {
  AisConfig heavy;
  heavy.gb_per_month = 25.0;
  return AisWorkload(heavy);
}

TEST(ArbitratedRunnerTest, MigrationCompletesWithinThePlanAheadWindow) {
  const AisWorkload ais = HeavyAis();
  const RunnerConfig cfg =
      HeavyStaircaseConfig(ReorgSchedule::kPaced);
  const auto result = WorkloadRunner(cfg).Run(ais);

  // Every cycle that executed migration lies within plan_ahead cycles of a
  // scale-out (the just-in-time deadline), and nothing was force-drained
  // by an early scale-out.
  EXPECT_EQ(ForcedDrains(result), 0);
  std::vector<int> scaleouts;
  for (const auto& m : result.cycles) {
    if (m.nodes_after > m.nodes_before) scaleouts.push_back(m.cycle);
  }
  ASSERT_FALSE(scaleouts.empty());
  for (const auto& m : result.cycles) {
    if (m.moved_gb <= 0.0) continue;
    bool within_window = false;
    for (const int s : scaleouts) {
      if (m.cycle >= s && m.cycle < s + cfg.staircase_plan_ahead) {
        within_window = true;
        break;
      }
    }
    EXPECT_TRUE(within_window) << "cycle " << m.cycle
                               << " migrated outside every deadline window";
  }
}

TEST(ArbitratedRunnerTest, ArbitrationReducesIngestStall) {
  const AisWorkload ais = HeavyAis();
  const auto fixed =
      WorkloadRunner(HeavyStaircaseConfig(ReorgSchedule::kOverlapped))
          .Run(ais);
  const auto arbitrated =
      WorkloadRunner(HeavyStaircaseConfig(ReorgSchedule::kPaced))
          .Run(ais);

  // The acceptance property: lower ingest stall at identical total work.
  EXPECT_GT(fixed.Sum(&CycleMetrics::ingest_stall_minutes), 0.0);
  EXPECT_LT(arbitrated.Sum(&CycleMetrics::ingest_stall_minutes),
            fixed.Sum(&CycleMetrics::ingest_stall_minutes));
  // Placement (and so the plans) are identical; the pro-rated per-cycle
  // charges must sum back to the same schedule-invariant price.
  EXPECT_NEAR(arbitrated.Sum(&CycleMetrics::moved_gb),
              fixed.Sum(&CycleMetrics::moved_gb), 1e-9);
  EXPECT_NEAR(arbitrated.Sum(&CycleMetrics::reorg_minutes),
              fixed.Sum(&CycleMetrics::reorg_minutes), 1e-9);
  EXPECT_EQ(arbitrated.final_nodes, fixed.final_nodes);
}

TEST(ArbitratedRunnerTest, PerCycleAccountingStaysConsistent) {
  const AisWorkload ais = HeavyAis();
  const auto result =
      WorkloadRunner(HeavyStaircaseConfig(ReorgSchedule::kPaced))
          .Run(ais);
  bool saw_budget = false;
  for (const auto& m : result.cycles) {
    const double bench = m.spj_minutes + m.science_minutes;
    // Overlap credit from the migration actually executed this cycle.
    EXPECT_DOUBLE_EQ(m.overlap_saved_minutes,
                     std::min(m.reorg_minutes, bench));
    EXPECT_DOUBLE_EQ(m.ingest_stall_minutes,
                     m.reorg_minutes - m.overlap_saved_minutes);
    EXPECT_NEAR(m.elapsed_minutes,
                m.insert_minutes + m.reorg_minutes + bench -
                    m.overlap_saved_minutes,
                1e-12);
    if (m.moved_gb > 0.0) {
      EXPECT_GT(m.migration_budget_gb, 0.0) << "cycle " << m.cycle;
      saw_budget = true;
    }
  }
  EXPECT_TRUE(saw_budget);
  const auto budgets = result.Series(&CycleMetrics::migration_budget_gb);
  ASSERT_EQ(budgets.size(), result.cycles.size());
}

// A workload whose only scale-out lands on its final cycle: without the
// workload-end deadline, a paced plan would still be in flight when the
// run ends and its remaining work would silently vanish from the metrics.
class TailScaleOutWorkload final : public Workload {
 public:
  TailScaleOutWorkload()
      : schema_("tail",
                {array::DimensionDesc{"t", 0, 1023, 1, false},
                 array::DimensionDesc{"x", 0, 63, 1, false}},
                {array::AttributeDesc{"v", array::AttrType::kDouble}}) {}

  const char* name() const override { return "tail-scale-out"; }
  const array::ArraySchema& schema() const override { return schema_; }
  int num_cycles() const override { return 4; }
  double node_capacity_gb() const override { return 1.0; }

  std::vector<array::ChunkInfo> GenerateBatch(int cycle) const override {
    // 2 nodes x 1 GB: cycles 0-2 stay under capacity; cycle 3 crosses it.
    std::vector<array::ChunkInfo> batch;
    const int chunks = cycle == 3 ? 10 : 4;
    for (int i = 0; i < chunks; ++i) {
      array::ChunkInfo info;
      info.coords = {static_cast<int64_t>(cycle),
                     static_cast<int64_t>(cycle * 16 + i)};
      info.cell_count = 1;
      info.bytes = 128 * kMiB;
      batch.push_back(info);
    }
    return batch;
  }
  std::vector<exec::QuerySpec> SpjQueries(int) const override { return {}; }
  std::vector<exec::QuerySpec> ScienceQueries(int) const override {
    return {};
  }

 private:
  array::ArraySchema schema_;
};

TEST(ArbitratedRunnerTest, PlanStartedOnTheFinalCycleDrainsWithTheRun) {
  TailScaleOutWorkload workload;
  RunnerConfig cfg;
  cfg.partitioner = core::PartitionerKind::kHilbertCurve;
  cfg.policy = ScaleOutPolicy::kCapacityTrigger;
  cfg.initial_nodes = 2;
  cfg.nodes_per_scaleout = 2;
  cfg.max_nodes = 8;
  cfg.run_queries = false;  // Window = 0: pacing would stretch past the end.

  cfg.reorg.schedule = ReorgSchedule::kOverlapped;
  const auto drained = WorkloadRunner(cfg).Run(workload);
  cfg.reorg.schedule = ReorgSchedule::kPaced;
  const auto arbitrated = WorkloadRunner(cfg).Run(workload);

  // The scale-out happened on the last cycle in both runs...
  ASSERT_GT(drained.cycles.back().moved_gb, 0.0);
  // ...and the paced run still committed (and charged) the whole plan.
  EXPECT_EQ(arbitrated.cycles.back().moved_gb,
            drained.cycles.back().moved_gb);
  EXPECT_EQ(arbitrated.cycles.back().chunks_moved,
            drained.cycles.back().chunks_moved);
  EXPECT_NEAR(arbitrated.Sum(&CycleMetrics::reorg_minutes),
              drained.Sum(&CycleMetrics::reorg_minutes), 1e-9);
  EXPECT_EQ(ForcedDrains(arbitrated), 0);
}

}  // namespace
}  // namespace arraydb::workload

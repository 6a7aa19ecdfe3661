// Integration tests: the full cyclic workload (§3.4) across partitioners
// and provisioning policies, driving every module together.

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "reorg/reorg_engine.h"
#include "workload/ais.h"
#include "workload/modis.h"
#include "workload/runner.h"

namespace arraydb::workload {
namespace {

TEST(RunnerConfigTest, IncrementBudgetDefaultsShareOneSourceOfTruth) {
  // Regression: RunnerConfig.reorg_increment_gb and ReorgOptions.
  // increment_gb once carried independent literals that could silently
  // diverge; both now default to reorg::kDefaultIncrementGb.
  EXPECT_DOUBLE_EQ(RunnerConfig().reorg.increment_gb,
                   reorg::ReorgOptions().increment_gb);
  EXPECT_DOUBLE_EQ(reorg::ReorgOptions().increment_gb,
                   reorg::kDefaultIncrementGb);
}

RunnerConfig BaseConfig(core::PartitionerKind kind) {
  RunnerConfig cfg;
  cfg.partitioner = kind;
  cfg.policy = ScaleOutPolicy::kCapacityTrigger;
  cfg.initial_nodes = 2;
  cfg.nodes_per_scaleout = 2;
  cfg.max_nodes = 8;
  return cfg;
}

TEST(RunnerIntegrationTest, ModisReachesEightNodes) {
  // §6.2 setup: start with 2 nodes, add 2 at capacity, end at 8.
  ModisWorkload modis;
  WorkloadRunner runner(BaseConfig(core::PartitionerKind::kConsistentHash));
  const auto result = runner.Run(modis);
  ASSERT_EQ(result.cycles.size(), 14u);
  EXPECT_EQ(result.final_nodes, 8);
  // Demand ends around 630 GB, within the 800 GB testbed.
  EXPECT_GT(result.cycles.back().load_gb, 550.0);
  EXPECT_LT(result.cycles.back().load_gb, 800.0);
  // Every phase charged time.
  EXPECT_GT(result.Sum(&CycleMetrics::insert_minutes), 0.0);
  EXPECT_GT(result.Sum(&CycleMetrics::reorg_minutes), 0.0);
  EXPECT_GT(result.Sum(&CycleMetrics::spj_minutes), 0.0);
  EXPECT_GT(result.Sum(&CycleMetrics::science_minutes), 0.0);
  EXPECT_GT(result.cost_node_hours(), 0.0);
}

TEST(RunnerIntegrationTest, AisReachesEightNodes) {
  AisWorkload ais;
  WorkloadRunner runner(BaseConfig(core::PartitionerKind::kKdTree));
  const auto result = runner.Run(ais);
  ASSERT_EQ(result.cycles.size(), 10u);
  EXPECT_EQ(result.final_nodes, 8);
  EXPECT_GT(result.cycles.back().load_gb, 330.0);
}

TEST(RunnerIntegrationTest, IncrementalSchemesKeepTheInvariantAtScale) {
  ModisWorkload modis;
  for (const auto kind :
       {core::PartitionerKind::kAppend, core::PartitionerKind::kConsistentHash,
        core::PartitionerKind::kExtendibleHash,
        core::PartitionerKind::kHilbertCurve,
        core::PartitionerKind::kIncrementalQuadtree,
        core::PartitionerKind::kKdTree}) {
    WorkloadRunner runner(BaseConfig(kind));
    const auto result = runner.Run(modis);
    for (const auto& m : result.cycles) {
      EXPECT_TRUE(m.reorg_only_to_new_nodes)
          << core::PartitionerKindName(kind) << " cycle " << m.cycle;
    }
  }
}

TEST(RunnerIntegrationTest, GlobalSchemesMoveMoreData) {
  // §6.2.1: Round Robin and Uniform Range pay a far larger reorganization
  // than the incremental schemes.
  ModisWorkload modis;
  std::map<core::PartitionerKind, double> moved;
  for (const auto kind :
       {core::PartitionerKind::kRoundRobin, core::PartitionerKind::kKdTree,
        core::PartitionerKind::kHilbertCurve}) {
    RunnerConfig cfg = BaseConfig(kind);
    cfg.run_queries = false;  // Only placement matters here.
    WorkloadRunner runner(cfg);
    double gb = 0.0;
    for (const auto& m : runner.Run(modis).cycles) gb += m.moved_gb;
    moved[kind] = gb;
  }
  EXPECT_GT(moved[core::PartitionerKind::kRoundRobin],
            2.0 * moved[core::PartitionerKind::kKdTree]);
  EXPECT_GT(moved[core::PartitionerKind::kRoundRobin],
            2.0 * moved[core::PartitionerKind::kHilbertCurve]);
}

TEST(RunnerIntegrationTest, AppendMovesNothingOnReorg) {
  ModisWorkload modis;
  RunnerConfig cfg = BaseConfig(core::PartitionerKind::kAppend);
  cfg.run_queries = false;
  WorkloadRunner runner(cfg);
  const auto result = runner.Run(modis);
  for (const auto& m : result.cycles) {
    EXPECT_EQ(m.chunks_moved, 0);
  }
}

TEST(RunnerIntegrationTest, StaircasePolicyTracksDemand) {
  ModisWorkload modis;
  RunnerConfig cfg = BaseConfig(core::PartitionerKind::kConsistentHash);
  cfg.policy = ScaleOutPolicy::kStaircase;
  cfg.staircase_samples = 4;
  cfg.staircase_plan_ahead = 3;
  cfg.max_nodes = 64;  // Staircase decides on its own.
  WorkloadRunner runner(cfg);
  const auto result = runner.Run(modis);
  for (const auto& m : result.cycles) {
    // Capacity (nodes * 100 GB) always covers demand after provisioning.
    EXPECT_GE(static_cast<double>(m.nodes_after) * 100.0, m.load_gb)
        << "cycle " << m.cycle;
  }
  // The staircase never wildly over-provisions on this steady workload.
  EXPECT_LE(result.final_nodes, 10);
}

TEST(RunnerIntegrationTest, EagerStaircaseUsesFewerSteps) {
  ModisWorkload modis;
  std::map<int, int> scaleouts;
  for (const int p : {1, 6}) {
    RunnerConfig cfg = BaseConfig(core::PartitionerKind::kConsistentHash);
    cfg.policy = ScaleOutPolicy::kStaircase;
    cfg.staircase_plan_ahead = p;
    cfg.max_nodes = 64;
    cfg.run_queries = false;
    WorkloadRunner runner(cfg);
    int count = 0;
    for (const auto& m : runner.Run(modis).cycles) {
      if (m.nodes_after > m.nodes_before) ++count;
    }
    scaleouts[p] = count;
  }
  EXPECT_LT(scaleouts[6], scaleouts[1])
      << "eager provisioning must reorganize less often";
}

TEST(RunnerIntegrationTest, DisablingQueriesZeroesBenchmarkTime) {
  ModisWorkload modis;
  RunnerConfig cfg = BaseConfig(core::PartitionerKind::kConsistentHash);
  cfg.run_queries = false;
  WorkloadRunner runner(cfg);
  const auto result = runner.Run(modis);
  EXPECT_EQ(result.total_benchmark_minutes(), 0.0);
  EXPECT_GT(result.Sum(&CycleMetrics::insert_minutes), 0.0);
}

TEST(RunnerIntegrationTest, ResultsAreDeterministic) {
  AisWorkload ais;
  WorkloadRunner runner(BaseConfig(core::PartitionerKind::kHilbertCurve));
  const auto a = runner.Run(ais);
  const auto b = runner.Run(ais);
  EXPECT_EQ(a.cycles, b.cycles);
}

TEST(RunResultTest, TotalsAreSumsOfCycleMetrics) {
  RunResult r;
  for (int i = 0; i < 3; ++i) {
    CycleMetrics m;
    m.cycle = i;
    m.nodes_after = 2 * (i + 1);
    m.insert_minutes = 1.5 * (i + 1);
    m.reorg_minutes = 0.25 * i;
    m.spj_minutes = 1.0;
    m.science_minutes = 2.0;
    m.elapsed_minutes = 30.0 * (i + 1);
    m.rsd = 0.1 * i;
    m.reorg_forced_drain = i == 1;
    m.faults.retries = i;
    m.faults.node_deaths = 1;
    m.faults.backoff_ms = 100.0 * i;
    r.cycles.push_back(m);
  }
  EXPECT_EQ(r.Sum(&CycleMetrics::insert_minutes), 1.5 + 3.0 + 4.5);
  EXPECT_EQ(r.Series(&CycleMetrics::reorg_minutes),
            (std::vector<double>{0.0, 0.25, 0.5}));
  EXPECT_EQ(r.total_benchmark_minutes(), 9.0);
  EXPECT_EQ(r.total_workload_minutes(), 9.0 + 0.75 + 9.0);
  EXPECT_DOUBLE_EQ(r.mean_rsd(), 0.1);
  // Eq. 1: 2 nodes x 0.5 h + 4 x 1 h + 6 x 1.5 h.
  EXPECT_EQ(r.cost_node_hours(), 1.0 + 4.0 + 9.0);
  const auto forced_drain = [](const CycleMetrics& m) {
    return int{m.reorg_forced_drain};
  };
  EXPECT_EQ(r.Sum(forced_drain), 1);
  const reorg::FaultCounts faults = r.Sum(&CycleMetrics::faults);
  EXPECT_EQ(faults.retries, 3);
  EXPECT_EQ(faults.backoff_ms, 300.0);
  EXPECT_EQ(faults.injected(), 3);
  EXPECT_EQ(RunResult().mean_rsd(), 0.0);
}

}  // namespace
}  // namespace arraydb::workload

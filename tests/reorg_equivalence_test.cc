// Determinism and equivalence tests for incremental reorganization: a
// drained plan must land exactly where the atomic apply puts it, at the
// same price, for every partitioner; queries interleaved with background
// migration must return results bit-identical to a fully quiesced cluster;
// and runner metrics must be bit-identical across thread counts and
// increment sizes (the migration schedule itself — the increment count —
// is the only schedule-dependent metric).

#include <gtest/gtest.h>

#include <vector>

#include "core/elastic_engine.h"
#include "core/partitioner_factory.h"
#include "exec/engine.h"
#include "reorg/reorg_engine.h"
#include "workload/ais.h"
#include "workload/modis.h"
#include "workload/runner.h"

namespace arraydb::workload {
namespace {

RunnerConfig BaseConfig(core::PartitionerKind kind, ReorgSchedule schedule) {
  RunnerConfig cfg;
  cfg.partitioner = kind;
  cfg.policy = ScaleOutPolicy::kCapacityTrigger;
  cfg.initial_nodes = 2;
  cfg.nodes_per_scaleout = 2;
  cfg.max_nodes = 8;
  cfg.reorg.schedule = schedule;
  return cfg;
}

// Exact (bit-level) equality of every cycle's record except the increment
// tallies, which the increment budget sets by design.
void ExpectEquivalentModuloSchedule(const RunResult& a, const RunResult& b) {
  const auto strip = [](std::vector<CycleMetrics> cycles) {
    for (CycleMetrics& m : cycles) {
      m.reorg_increments = 0;
      m.reorg_over_budget_increments = 0;
    }
    return cycles;
  };
  EXPECT_EQ(strip(a.cycles), strip(b.cycles));
  EXPECT_EQ(a.final_nodes, b.final_nodes);
}

TEST(ReorgEquivalenceTest, MidReorgQueriesMatchQuiescedCluster) {
  // Two identical engines are driven to the same pre-scale-out state. Run A
  // interleaves the benchmark queries with migration increments; run B
  // defers the entire migration until after the queries (a fully quiesced
  // cluster) and then applies the plan atomically. Query costs and final
  // placement must be bit-identical.
  AisWorkload ais;
  const auto make_engine = [&ais]() {
    core::ElasticEngine engine(
        core::MakePartitioner(core::PartitionerKind::kHilbertCurve,
                              ais.schema(), 2, ais.node_capacity_gb(),
                              ais.growth_dim()),
        2, ais.node_capacity_gb());
    for (int cycle = 0; cycle < 4; ++cycle) {
      engine.IngestBatch(ais.GenerateBatch(cycle));
    }
    return engine;
  };
  core::ElasticEngine a = make_engine();
  core::ElasticEngine b = make_engine();

  const auto prep_a = a.PrepareScaleOut(2);
  const auto prep_b = b.PrepareScaleOut(2);
  ASSERT_FALSE(prep_a.plan.empty());
  ASSERT_EQ(prep_a.plan.num_chunks(), prep_b.plan.num_chunks());

  reorg::ReorgOptions opts;
  opts.increment_gb = 1.0;  // Many small increments.
  reorg::IncrementalReorgEngine bg(&a.mutable_cluster(), &a.cost_model(),
                                   opts);
  ASSERT_TRUE(bg.Begin(prep_a.plan, prep_a.first_new_node).ok());
  ASSERT_TRUE(bg.active());

  exec::QueryEngine qe;
  const auto view = bg.View();
  std::vector<exec::QuerySpec> queries = ais.SpjQueries(4);
  for (const auto& q : ais.ScienceQueries(4)) queries.push_back(q);
  for (const auto& q : queries) {
    // Interleave: one migration increment between queries while any remain.
    if (bg.pending_chunks() > 0) {
      ASSERT_TRUE(bg.Step().ok());
    }
    const auto mid = qe.Simulate(q, view, ais.schema());
    const auto quiesced = qe.Simulate(q, b.cluster(), ais.schema());
    EXPECT_EQ(mid.minutes, quiesced.minutes) << q.name;
    EXPECT_EQ(mid.makespan_minutes, quiesced.makespan_minutes) << q.name;
    EXPECT_EQ(mid.network_minutes, quiesced.network_minutes) << q.name;
    EXPECT_EQ(mid.scanned_gb, quiesced.scanned_gb) << q.name;
    EXPECT_EQ(mid.chunks_touched, quiesced.chunks_touched) << q.name;
    EXPECT_EQ(mid.remote_neighbor_fetches, quiesced.remote_neighbor_fetches)
        << q.name;
  }
  ASSERT_TRUE(bg.Drain().ok());
  ASSERT_TRUE(b.mutable_cluster().Apply(prep_b.plan).ok());

  const auto chunks_a = a.cluster().AllChunks();
  const auto chunks_b = b.cluster().AllChunks();
  ASSERT_EQ(chunks_a.size(), chunks_b.size());
  for (size_t i = 0; i < chunks_a.size(); ++i) {
    EXPECT_EQ(chunks_a[i].node, chunks_b[i].node);
    EXPECT_EQ(chunks_a[i].bytes, chunks_b[i].bytes);
  }
}

TEST(ReorgEquivalenceTest, EngineDrainMatchesAtomicScaleOut) {
  // Twin engines reach the same pre-scale-out state; one applies the plan
  // atomically (ElasticEngine::ScaleOut), the other drains it through the
  // incremental engine in 1 GB increments. Placement and the priced work
  // must be identical: slicing changes timing, never placement or price.
  AisWorkload ais;
  for (const auto kind : core::AllPartitionerKinds()) {
    SCOPED_TRACE(core::PartitionerKindName(kind));
    const auto make_engine = [&ais, kind]() {
      core::ElasticEngine engine(
          core::MakePartitioner(kind, ais.schema(), 2, ais.node_capacity_gb(),
                                ais.growth_dim()),
          2, ais.node_capacity_gb());
      for (int cycle = 0; cycle < 4; ++cycle) {
        engine.IngestBatch(ais.GenerateBatch(cycle));
      }
      return engine;
    };
    core::ElasticEngine atomic = make_engine();
    core::ElasticEngine sliced = make_engine();

    const core::ReorgStats reference = atomic.ScaleOut(2);
    const auto prep = sliced.PrepareScaleOut(2);
    reorg::ReorgOptions opts;
    opts.increment_gb = 1.0;
    reorg::IncrementalReorgEngine bg(&sliced.mutable_cluster(),
                                     &sliced.cost_model(), opts);
    ASSERT_TRUE(bg.Begin(prep.plan, prep.first_new_node).ok());
    ASSERT_TRUE(bg.Drain().ok());

    const auto chunks_atomic = atomic.cluster().AllChunks();
    const auto chunks_sliced = sliced.cluster().AllChunks();
    ASSERT_EQ(chunks_atomic.size(), chunks_sliced.size());
    for (size_t i = 0; i < chunks_atomic.size(); ++i) {
      EXPECT_EQ(chunks_atomic[i].coords, chunks_sliced[i].coords);
      EXPECT_EQ(chunks_atomic[i].node, chunks_sliced[i].node);
      EXPECT_EQ(chunks_atomic[i].bytes, chunks_sliced[i].bytes);
    }
    EXPECT_EQ(bg.summary().work_minutes, reference.minutes);
    EXPECT_EQ(bg.summary().moved_gb, reference.moved_gb);
    EXPECT_EQ(bg.summary().chunks_moved, reference.chunks_moved);
    EXPECT_EQ(bg.summary().only_to_new_nodes, reference.only_to_new_nodes);
  }
}

TEST(ReorgEquivalenceTest, OverlappedRunDeterministicAcrossIncrementSizes) {
  AisWorkload ais;
  RunnerConfig base =
      BaseConfig(core::PartitionerKind::kHilbertCurve,
                 ReorgSchedule::kOverlapped);
  std::vector<RunResult> results;
  // Increment budgets from many-small-slices to one-shot must not change
  // any metric but the increment count.
  for (const double increment_gb : {0.5, 8.0, 1e9}) {
    RunnerConfig cfg = base;
    cfg.reorg.increment_gb = increment_gb;
    results.push_back(WorkloadRunner(cfg).Run(ais));
  }
  for (size_t i = 1; i < results.size(); ++i) {
    ExpectEquivalentModuloSchedule(results[0], results[i]);
  }
  // The single-increment variant really ran one increment per reorg cycle.
  int reorg_cycles = 0;
  for (const auto& m : results.back().cycles) {
    if (m.chunks_moved > 0) {
      ++reorg_cycles;
      EXPECT_EQ(m.reorg_increments, 1);
    }
  }
  EXPECT_GT(reorg_cycles, 0);
  // The small-budget variant sliced more finely.
  EXPECT_GT(results[0].Sum(&CycleMetrics::reorg_increments),
            results.back().Sum(&CycleMetrics::reorg_increments));
}

TEST(ReorgEquivalenceTest, OverlappedMatchesBlockingPlacementAndWork) {
  // Placement-side metrics (inserts, reorg work, balance, trajectory) are
  // identical across schedules; only the query phase observes a different —
  // but internally consistent — routing epoch.
  AisWorkload ais;
  const auto blocking =
      WorkloadRunner(BaseConfig(core::PartitionerKind::kHilbertCurve,
                                ReorgSchedule::kBlocking))
          .Run(ais);
  const auto overlapped =
      WorkloadRunner(BaseConfig(core::PartitionerKind::kHilbertCurve,
                                ReorgSchedule::kOverlapped))
          .Run(ais);
  ASSERT_EQ(overlapped.cycles.size(), blocking.cycles.size());
  EXPECT_EQ(overlapped.Sum(&CycleMetrics::insert_minutes),
            blocking.Sum(&CycleMetrics::insert_minutes));
  EXPECT_EQ(overlapped.Sum(&CycleMetrics::reorg_minutes),
            blocking.Sum(&CycleMetrics::reorg_minutes));
  EXPECT_EQ(overlapped.final_nodes, blocking.final_nodes);
  EXPECT_EQ(overlapped.mean_rsd(), blocking.mean_rsd());
  for (size_t i = 0; i < overlapped.cycles.size(); ++i) {
    EXPECT_EQ(overlapped.cycles[i].moved_gb, blocking.cycles[i].moved_gb);
    EXPECT_EQ(overlapped.cycles[i].chunks_moved,
              blocking.cycles[i].chunks_moved);
    EXPECT_EQ(overlapped.cycles[i].load_gb, blocking.cycles[i].load_gb);
    EXPECT_EQ(overlapped.cycles[i].rsd, blocking.cycles[i].rsd);
    EXPECT_TRUE(overlapped.cycles[i].reorg_only_to_new_nodes);
    EXPECT_TRUE(blocking.cycles[i].reorg_only_to_new_nodes);
  }
  // Blocking keeps the serial schedule; overlap buys elapsed time.
  // (NEAR, not EQ: the totals are accumulated in different summation
  // orders.)
  const double overlapped_elapsed =
      overlapped.Sum(&CycleMetrics::elapsed_minutes);
  const double overlapped_saved =
      overlapped.Sum(&CycleMetrics::overlap_saved_minutes);
  EXPECT_NEAR(blocking.Sum(&CycleMetrics::elapsed_minutes),
              blocking.total_workload_minutes(), 1e-9);
  EXPECT_LT(overlapped_elapsed, blocking.total_workload_minutes());
  EXPECT_GT(overlapped_saved, 0.0);
  EXPECT_NEAR(overlapped_elapsed,
              overlapped.total_workload_minutes() - overlapped_saved, 1e-9);
  // The moved-GB trajectory is schedule-independent.
  EXPECT_EQ(overlapped.Series(&CycleMetrics::moved_gb),
            blocking.Series(&CycleMetrics::moved_gb));
}

TEST(ReorgEquivalenceTest, EmptyPlanWorkloadsRunOverlapped) {
  // Append never moves data on scale-out: the overlapped machinery must
  // degrade to a clean no-op (empty MovePlan edge case).
  ModisWorkload modis;
  const auto blocking =
      WorkloadRunner(
          BaseConfig(core::PartitionerKind::kAppend, ReorgSchedule::kBlocking))
          .Run(modis);
  const auto overlapped =
      WorkloadRunner(BaseConfig(core::PartitionerKind::kAppend,
                                ReorgSchedule::kOverlapped))
          .Run(modis);
  ASSERT_EQ(overlapped.cycles.size(), blocking.cycles.size());
  EXPECT_EQ(overlapped.Sum(&CycleMetrics::reorg_increments), 0);
  EXPECT_EQ(overlapped.Sum(&CycleMetrics::overlap_saved_minutes), 0.0);
  EXPECT_NEAR(overlapped.Sum(&CycleMetrics::elapsed_minutes),
              blocking.total_workload_minutes(), 1e-9);
  for (size_t i = 0; i < overlapped.cycles.size(); ++i) {
    EXPECT_EQ(overlapped.cycles[i].chunks_moved, 0);
    EXPECT_EQ(overlapped.cycles[i].spj_minutes, blocking.cycles[i].spj_minutes);
    EXPECT_EQ(overlapped.cycles[i].science_minutes,
              blocking.cycles[i].science_minutes);
  }
}

}  // namespace
}  // namespace arraydb::workload

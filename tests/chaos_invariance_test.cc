// Chaos invariance sweep (ISSUE PR 10, satellite 3): seeds × thread counts ×
// fault mixes, checking the robustness contracts under every schedule:
//   * queries issued mid-fault through the dual-residency view are
//     bit-identical to a quiesced (pre-reorg) cluster,
//   * Abort restores the exact pre-reorg placement,
//   * the whole fault trajectory — retries, backoff, aborts, replans,
//     telemetry counters included — is invariant under copy thread count
//     and replays identically for the same seed.
// Runs under TSan in CI alongside the other invariance suites.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/cost_model.h"
#include "exec/engine.h"
#include "fault/fault.h"
#include "reorg/reorg_engine.h"
#include "telemetry/telemetry.h"
#include "util/strings.h"
#include "util/units.h"
#include "workload/ais.h"
#include "workload/runner.h"

namespace arraydb::reorg {
namespace {

using cluster::ChunkMove;
using cluster::Cluster;
using cluster::CostModel;
using cluster::MovePlan;
using cluster::NodeId;
using fault::FaultPlan;

constexpr int64_t kMiB = 1024 * 1024;

struct FaultMix {
  double transient_rate = 0.0;
  double slow_rate = 0.0;
};

// The sweep's grid. Three mixes: retry-heavy, dilation-heavy, and both.
const FaultMix kMixes[] = {{0.3, 0.0}, {0.0, 0.4}, {0.25, 0.25}};
const uint64_t kSeeds[] = {1, 2, 3};
const int kThreadCounts[] = {1, 4};

// 2 nodes, 12 chunks of 64 MiB on node 0, 2 new nodes; the plan splits
// chunks {6..11} across both new nodes.
struct ChaosFixture {
  Cluster cluster{2, 1.0};
  NodeId first_new = cluster::kInvalidNode;
  MovePlan plan;

  ChaosFixture() {
    for (int64_t i = 0; i < 12; ++i) {
      EXPECT_TRUE(cluster.PlaceChunk({i}, 64 * kMiB, 0).ok());
    }
    first_new = cluster.AddNodes(2);
    for (int64_t i = 6; i < 12; ++i) {
      plan.Add(ChunkMove{{i}, 64 * kMiB, 0, i % 2 == 0 ? 2 : 3});
    }
  }
};

std::string PlacementString(const Cluster& cluster) {
  std::string out;
  for (const auto& c : cluster.AllChunks()) {
    for (const int64_t v : c.coords) {
      out += util::StrFormat("%lld,", static_cast<long long>(v));
    }
    out += util::StrFormat("@%d:%lld;", c.node,
                           static_cast<long long>(c.bytes));
  }
  return out;
}

// Queries through the mid-reorg view must price identically to the quiesced
// pre-reorg cluster (the dual-residency view pins reads to the retained
// source replicas).
void ExpectQueriesMatchQuiesced(const IncrementalReorgEngine& engine,
                                const Cluster& quiesced) {
  exec::QueryEngine qe;
  array::ArraySchema schema("s", {array::DimensionDesc{"x", 0, 11, 1, false}},
                            {array::AttributeDesc{
                                "v", array::AttrType::kDouble}});
  for (const auto kind : {exec::QueryKind::kFilter, exec::QueryKind::kWindow,
                          exec::QueryKind::kGroupBy}) {
    exec::QuerySpec spec;
    spec.kind = kind;
    spec.region = exec::ChunkRegion::All(1);
    const auto a = qe.Simulate(spec, engine.View(), schema);
    const auto b = qe.Simulate(spec, quiesced, schema);
    ASSERT_EQ(a.minutes, b.minutes);
    ASSERT_EQ(a.makespan_minutes, b.makespan_minutes);
    ASSERT_EQ(a.network_minutes, b.network_minutes);
    ASSERT_EQ(a.scanned_gb, b.scanned_gb);
    ASSERT_EQ(a.chunks_touched, b.chunks_touched);
    ASSERT_EQ(a.remote_neighbor_fetches, b.remote_neighbor_fetches);
  }
}

// Plays one chaos schedule to completion: Step until the plan drains,
// recovering from retry exhaustion the way the workload runner does (Abort,
// verify the exact pre-reorg restore, restage under a fresh ordinal).
// Returns a full trajectory transcript — every Step outcome, clock reading,
// and summary counter — which must be bit-identical across thread counts.
std::string RunChaosSchedule(uint64_t seed, const FaultMix& mix, int threads,
                             bool check_queries) {
  ChaosFixture f;
  const std::string pre_reorg = PlacementString(f.cluster);
  Cluster quiesced{2, 1.0};
  for (int64_t i = 0; i < 12; ++i) {
    EXPECT_TRUE(quiesced.PlaceChunk({i}, 64 * kMiB, 0).ok());
  }
  quiesced.AddNodes(2);

  CostModel model;
  FaultPlan plan;
  plan.seed = seed;
  plan.transient_failure_rate = mix.transient_rate;
  plan.slow_copy_rate = mix.slow_rate;
  plan.slow_copy_dilation = 3.0;
  const fault::FaultInjector injector(plan);
  ReorgOptions opts;
  opts.increment_gb = util::BytesToGb(128.0 * kMiB);
  opts.copy_threads = threads;
  opts.injector = &injector;
  IncrementalReorgEngine engine(&f.cluster, &model, opts);
  EXPECT_TRUE(engine.Begin(f.plan, f.first_new).ok());

  std::string transcript;
  int restarts = 0;
  while (engine.active() && engine.pending_chunks() > 0) {
    const auto step = engine.Step();
    if (step.ok()) {
      transcript += util::StrFormat(
          "step i=%d attempts=%d transient=%lld slow=%lld timeouts=%d "
          "backoff=%.6f extra=%.9f digest=%llx;",
          step->index, step->attempts,
          static_cast<long long>(step->transient_failures),
          static_cast<long long>(step->slow_copies), step->timeouts,
          step->backoff_ms, step->fault_extra_minutes,
          static_cast<unsigned long long>(step->transfer_digest));
    } else {
      transcript +=
          util::StrFormat("fail \"%s\";", step.status().message().c_str());
      EXPECT_TRUE(engine.Abort().ok());
      // The abort contract: the exact pre-reorg placement, byte for byte.
      EXPECT_EQ(PlacementString(f.cluster), pre_reorg);
      if (restarts >= 50) {
        ADD_FAILURE() << "chaos schedule failed to converge";
        break;
      }
      restarts += 1;
      EXPECT_TRUE(engine.Begin(f.plan, f.first_new).ok());
    }
    if (check_queries && engine.active()) {
      ExpectQueriesMatchQuiesced(engine, quiesced);
    }
    transcript += util::StrFormat("clock=%.9f;", engine.virtual_minutes());
  }
  EXPECT_TRUE(engine.Finish().ok());

  const auto& s = engine.summary();
  transcript += util::StrFormat(
      "summary inc=%d faults=%lld transient=%lld slow=%lld retries=%lld "
      "timeouts=%lld backoff=%.6f retry_gb=%.9f recovery=%.9f digest=%llx "
      "restarts=%d;",
      s.increments, static_cast<long long>(s.faults_injected),
      static_cast<long long>(s.transient_failures),
      static_cast<long long>(s.slow_copies), static_cast<long long>(s.retries),
      static_cast<long long>(s.timeouts), s.backoff_ms, s.retry_gb,
      s.recovery_overhead_minutes,
      static_cast<unsigned long long>(s.transfer_digest), restarts);
  transcript += "final=" + PlacementString(f.cluster);
  return transcript;
}

TEST(ChaosInvarianceTest, SweepIsThreadCountInvariantAndQueriesStayQuiesced) {
  for (const uint64_t seed : kSeeds) {
    for (const auto& mix : kMixes) {
      std::vector<std::string> transcripts;
      for (const int threads : kThreadCounts) {
        // Query equivalence is checked on the single-thread leg (it is
        // per-step and slow); the transcript comparison then pins every
        // other leg to that one.
        transcripts.push_back(
            RunChaosSchedule(seed, mix, threads, threads == 1));
      }
      for (size_t i = 1; i < transcripts.size(); ++i) {
        EXPECT_EQ(transcripts[0], transcripts[i])
            << "seed " << seed << " mix (" << mix.transient_rate << ", "
            << mix.slow_rate << ") diverged at " << kThreadCounts[i]
            << " threads";
      }
      // Faults actually fired (the sweep is not vacuously green).
      EXPECT_NE(transcripts[0].find("summary"), std::string::npos);
    }
  }
}

TEST(ChaosInvarianceTest, SameSeedReplaysIdenticalTelemetryTrajectory) {
  // The wall-clock histograms (util.thread_pool.*_us) are observe-only and
  // machine-dependent, so the replay contract is over the fault/recovery
  // counters: every one of them must land on identical values when the same
  // seed replays.
  const char* kFaultCounters[] = {
      "reorg.engine.faults_injected", "reorg.engine.transient_failures",
      "reorg.engine.slow_copies",     "reorg.engine.retries",
      "reorg.engine.backoff_ms",      "reorg.engine.timeouts",
      "reorg.engine.retry_exhausted", "reorg.engine.node_deaths",
      "reorg.engine.replans",         "reorg.engine.replanned_chunks",
      "reorg.engine.aborts"};
  auto& registry = telemetry::Registry::Global();
  std::vector<std::string> trajectories;
  for (int run = 0; run < 2; ++run) {
    registry.ResetValues();
    RunChaosSchedule(7, {0.25, 0.25}, 2, false);
    std::string traj;
    for (const char* name : kFaultCounters) {
      traj += util::StrFormat(
          "%s=%lld;", name,
          static_cast<long long>(registry.counter(name).Value()));
    }
    trajectories.push_back(traj);
  }
  EXPECT_EQ(trajectories[0], trajectories[1]);
  // The trajectory recorded real fault activity.
  EXPECT_GT(registry.counter("reorg.engine.faults_injected").Value(), 0);
  EXPECT_GT(registry.counter("reorg.engine.retries").Value(), 0);
}

TEST(ChaosInvarianceTest, NodeDeathReplanKeepsTheSweepInvariant) {
  FaultMix mix{0.1, 0.1};
  for (const uint64_t seed : kSeeds) {
    std::vector<std::string> transcripts;
    for (const int threads : kThreadCounts) {
      ChaosFixture f;
      CostModel model;
      FaultPlan plan;
      plan.seed = seed;
      plan.transient_failure_rate = mix.transient_rate;
      plan.slow_copy_rate = mix.slow_rate;
      plan.node_deaths.push_back({0.6, 3});
      const fault::FaultInjector injector(plan);
      ReorgOptions opts;
      opts.increment_gb = util::BytesToGb(128.0 * kMiB);
      opts.copy_threads = threads;
      opts.injector = &injector;
      IncrementalReorgEngine engine(&f.cluster, &model, opts);
      ASSERT_TRUE(engine.Begin(f.plan, f.first_new).ok());
      int restarts = 0;
      while (engine.active() && engine.pending_chunks() > 0) {
        const auto step = engine.Step();
        if (!step.ok()) {
          ASSERT_TRUE(engine.Abort().ok());
          ASSERT_LT(restarts, 50);
          restarts += 1;
          ASSERT_TRUE(engine.Begin(f.plan, f.first_new).ok());
        }
      }
      ASSERT_TRUE(engine.Finish().ok());
      // Node 3 died mid-plan: every move landed on the surviving new node.
      for (int64_t i = 6; i < 12; ++i) {
        EXPECT_EQ(f.cluster.OwnerOf({i}), 2) << "seed " << seed;
      }
      EXPECT_GE(engine.summary().replans, 1);
      EXPECT_TRUE(engine.summary().only_to_new_nodes);
      transcripts.push_back(
          PlacementString(f.cluster) +
          util::StrFormat("|replans=%lld deaths=%lld restarts=%d",
                          static_cast<long long>(engine.summary().replans),
                          static_cast<long long>(
                              engine.summary().node_deaths),
                          restarts));
    }
    EXPECT_EQ(transcripts[0], transcripts[1]) << "seed " << seed;
  }
}

}  // namespace
}  // namespace arraydb::reorg

namespace arraydb::workload {
namespace {

RunnerConfig ChaosBase(ReorgSchedule schedule) {
  RunnerConfig cfg;
  cfg.partitioner = core::PartitionerKind::kConsistentHash;
  cfg.policy = ScaleOutPolicy::kCapacityTrigger;
  cfg.initial_nodes = 2;
  cfg.nodes_per_scaleout = 2;
  cfg.max_nodes = 8;
  cfg.reorg.schedule = schedule;
  return cfg;
}

// Slow-copy chaos never fails an increment, so the placement trajectory is
// untouched and every query result must stay bit-identical to the
// fault-free run — under the blocking schedule the plan drains before the
// queries, under the overlapped one mid-fault queries route through the
// dual-residency view exactly as before.
TEST(RunnerChaosTest, SlowCopyFaultsLeaveQueryResultsBitIdentical) {
  AisWorkload ais;
  for (const ReorgSchedule schedule :
       {ReorgSchedule::kBlocking, ReorgSchedule::kOverlapped}) {
    SCOPED_TRACE(schedule == ReorgSchedule::kBlocking ? "blocking"
                                                      : "overlapped");
    const auto clean = WorkloadRunner(ChaosBase(schedule)).Run(ais);

    RunnerConfig cfg = ChaosBase(schedule);
    cfg.fault.enabled = true;
    cfg.fault.plan.seed = 11;
    cfg.fault.plan.slow_copy_rate = 0.4;
    cfg.fault.plan.slow_copy_dilation = 2.5;
    const auto faulted = WorkloadRunner(cfg).Run(ais);

    ASSERT_EQ(faulted.cycles.size(), clean.cycles.size());
    EXPECT_EQ(faulted.final_nodes, clean.final_nodes);
    EXPECT_GT(faulted.total_faults_injected, 0);
    EXPECT_GT(faulted.total_recovery_overhead_minutes, 0.0);
    EXPECT_EQ(faulted.total_reorg_aborts, 0);
    // Dilation slows migration; it must never change what queries compute.
    for (size_t c = 0; c < clean.cycles.size(); ++c) {
      ASSERT_EQ(faulted.cycles[c].query_minutes.size(),
                clean.cycles[c].query_minutes.size());
      for (size_t q = 0; q < clean.cycles[c].query_minutes.size(); ++q) {
        EXPECT_EQ(faulted.cycles[c].query_minutes[q].first,
                  clean.cycles[c].query_minutes[q].first);
        EXPECT_EQ(faulted.cycles[c].query_minutes[q].second,
                  clean.cycles[c].query_minutes[q].second)
            << "cycle " << c << " query "
            << clean.cycles[c].query_minutes[q].first;
      }
      EXPECT_EQ(faulted.cycles[c].rsd, clean.cycles[c].rsd) << "cycle " << c;
    }
    // The overhead is visible in the recovery metrics, not hidden in the
    // fault-free accounting.
    EXPECT_GT(faulted.total_reorg_minutes, clean.total_reorg_minutes);
  }
}

// A hostile mix (retry exhaustion near-certain on wide slices) exercises the
// abort → restage → abandon path end to end: the run must complete, serve
// every query, and replay deterministically.
TEST(RunnerChaosTest, HostileMixDegradesGracefullyAndReplays) {
  AisWorkload ais;
  RunnerConfig cfg = ChaosBase(ReorgSchedule::kOverlapped);
  cfg.fault.enabled = true;
  cfg.fault.plan.seed = 5;
  cfg.fault.plan.transient_failure_rate = 0.6;
  cfg.fault.max_plan_restarts = 1;
  const auto a = WorkloadRunner(cfg).Run(ais);
  const auto b = WorkloadRunner(cfg).Run(ais);

  ASSERT_EQ(a.cycles.size(), 10u);
  EXPECT_EQ(a.final_nodes, 8);
  EXPECT_GT(a.total_retries, 0);
  EXPECT_GT(a.total_reorg_aborts, 0);
  // Same seed, same trajectory — including the recovery path.
  EXPECT_EQ(a.total_faults_injected, b.total_faults_injected);
  EXPECT_EQ(a.total_retries, b.total_retries);
  EXPECT_EQ(a.total_reorg_aborts, b.total_reorg_aborts);
  EXPECT_EQ(a.reorgs_abandoned, b.reorgs_abandoned);
  EXPECT_EQ(a.total_recovery_overhead_minutes,
            b.total_recovery_overhead_minutes);
  EXPECT_EQ(a.total_elapsed_minutes, b.total_elapsed_minutes);
  EXPECT_EQ(a.mean_rsd, b.mean_rsd);
  for (size_t c = 0; c < a.cycles.size(); ++c) {
    ASSERT_EQ(a.cycles[c].query_minutes.size(),
              b.cycles[c].query_minutes.size());
    for (size_t q = 0; q < a.cycles[c].query_minutes.size(); ++q) {
      EXPECT_EQ(a.cycles[c].query_minutes[q].second,
                b.cycles[c].query_minutes[q].second);
    }
  }
  // Degraded serving was signalled on at least one faulted cycle.
  bool any_fault_cycle = false;
  for (const auto& cycle : a.cycles) {
    if (cycle.retries > 0 || cycle.reorg_aborts > 0) any_fault_cycle = true;
  }
  EXPECT_TRUE(any_fault_cycle);
}

}  // namespace
}  // namespace arraydb::workload

// Unit tests for the fault-injection subsystem (src/fault/) and the reorg
// engine's failure semantics: deterministic fault draws, retry/backoff
// accounting, per-increment timeouts, Abort's exact pre-reorg restore, and
// replanning around a dead destination node.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/cost_model.h"
#include "cluster/transfer.h"
#include "fault/fault.h"
#include "reorg/reorg_engine.h"
#include "util/status.h"
#include "util/units.h"

namespace arraydb::reorg {
namespace {

using cluster::ChunkMove;
using cluster::Cluster;
using cluster::CostModel;
using cluster::MovePlan;
using cluster::NodeId;
using fault::FaultInjector;
using fault::FaultKind;
using fault::FaultPlan;
using fault::TransferOp;

constexpr int64_t kMiB = 1024 * 1024;

// 2 nodes, 8 chunks of 64 MiB each on node 0, then 2 empty nodes added.
// The plan splits chunks {4..7} across both new nodes: {4,5} -> 2 first
// (so a byte budget of 128 MiB commits them in the first increment), then
// {6,7} -> 3.
struct Fixture {
  Cluster cluster{2, 1.0};
  NodeId first_new = cluster::kInvalidNode;
  MovePlan plan;

  Fixture() {
    for (int64_t i = 0; i < 8; ++i) {
      EXPECT_TRUE(cluster.PlaceChunk({i}, 64 * kMiB, 0).ok());
    }
    first_new = cluster.AddNodes(2);
    plan.Add(ChunkMove{{4}, 64 * kMiB, 0, 2});
    plan.Add(ChunkMove{{5}, 64 * kMiB, 0, 2});
    plan.Add(ChunkMove{{6}, 64 * kMiB, 0, 3});
    plan.Add(ChunkMove{{7}, 64 * kMiB, 0, 3});
  }
};

ReorgOptions TwoChunkIncrements() {
  ReorgOptions opts;
  opts.increment_gb = util::BytesToGb(128.0 * kMiB);
  return opts;
}

// -- util::Status additions ------------------------------------------------

TEST(StatusAnnotateTest, PrependsContextAndPreservesCode) {
  const auto base = util::Unavailable("transfer to node 5 failed");
  const auto annotated = util::Annotate(base, "increment 3, retry 2");
  EXPECT_EQ(annotated.code(), util::StatusCode::kUnavailable);
  EXPECT_EQ(annotated.message(),
            "increment 3, retry 2: transfer to node 5 failed");
  // Chains compose outermost-first.
  const auto chained = util::Annotate(annotated, "plan 7");
  EXPECT_EQ(chained.message(),
            "plan 7: increment 3, retry 2: transfer to node 5 failed");
}

TEST(StatusAnnotateTest, OkAndEmptyContextPassThrough) {
  EXPECT_TRUE(util::Annotate(util::Status::Ok(), "ctx").ok());
  const auto base = util::Internal("boom");
  EXPECT_EQ(util::Annotate(base, "").message(), "boom");
  // Annotating a message-less status adopts the context as the message.
  const auto bare = util::Status(util::StatusCode::kUnavailable, "");
  EXPECT_EQ(util::Annotate(bare, "increment 0").message(), "increment 0");
}

// -- Plan validation at Begin -----------------------------------------------
//
// The plan rules themselves are tested on Cluster (cluster_test); Begin
// checks a plan only through Cluster::BeginApply and annotates a rejection.

TEST(ReorgBeginTest, RejectsMalformedPlansWithContext) {
  Fixture f;
  CostModel model;
  IncrementalReorgEngine engine(&f.cluster, &model, TwoChunkIncrements());
  MovePlan self;
  self.Add(ChunkMove{{4}, 64 * kMiB, 0, 0});
  const auto status = engine.Begin(self, f.first_new);
  EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("reorg plan rejected at Begin"),
            std::string::npos);
  // Nothing was staged: a well-formed Begin still works.
  EXPECT_FALSE(engine.active());

  // Placement faults are annotated the same way.
  MovePlan wrong_owner;
  wrong_owner.Add(ChunkMove{{4}, 64 * kMiB, 1, 2});
  const auto placement = engine.Begin(wrong_owner, f.first_new);
  EXPECT_EQ(placement.code(), util::StatusCode::kFailedPrecondition);
  EXPECT_NE(placement.message().find("reorg plan rejected at Begin"),
            std::string::npos);
  EXPECT_FALSE(engine.active());
  EXPECT_TRUE(engine.Begin(f.plan, f.first_new).ok());
}

// -- FaultInjector ----------------------------------------------------------

TEST(FaultInjectorTest, DrawsAreDeterministicAndSeedDependent) {
  FaultPlan plan;
  plan.seed = 42;
  plan.transient_failure_rate = 0.5;
  const FaultInjector a(plan);
  const FaultInjector b(plan);
  plan.seed = 43;
  const FaultInjector c(plan);
  int diverged = 0;
  for (uint64_t d = 1; d <= 256; ++d) {
    TransferOp op;
    op.plan_ordinal = 1;
    op.increment = 2;
    op.attempt = 1;
    op.move_digest = d * 0x9e3779b97f4a7c15ull;
    EXPECT_EQ(a.TransferFault(op), b.TransferFault(op));
    if (a.TransferFault(op) != c.TransferFault(op)) diverged += 1;
  }
  // A different seed must change some fates (128 expected).
  EXPECT_GT(diverged, 32);
}

TEST(FaultInjectorTest, RatesBoundTheDrawAndAttemptsAreIndependent) {
  FaultPlan none;
  none.transient_failure_rate = 0.0;
  none.slow_copy_rate = 0.0;
  const FaultInjector quiet(none);
  FaultPlan always;
  always.transient_failure_rate = 1.0;
  const FaultInjector hostile(always);
  int changed_by_attempt = 0;
  FaultPlan half;
  half.seed = 7;
  half.transient_failure_rate = 0.5;
  const FaultInjector coin(half);
  for (uint64_t d = 1; d <= 128; ++d) {
    TransferOp op;
    op.move_digest = d * 0xbf58476d1ce4e5b9ull;
    EXPECT_EQ(quiet.TransferFault(op), FaultKind::kNone);
    EXPECT_EQ(hostile.TransferFault(op), FaultKind::kTransientFailure);
    TransferOp retry = op;
    retry.attempt = 2;
    if (coin.TransferFault(op) != coin.TransferFault(retry)) {
      changed_by_attempt += 1;
    }
  }
  // Retries redraw: a transient fault must not deterministically persist
  // across attempts.
  EXPECT_GT(changed_by_attempt, 16);
}

TEST(FaultInjectorTest, NodeDeathScheduleIsAVirtualTimeline) {
  FaultPlan plan;
  plan.node_deaths.push_back({5.0, 3});
  plan.node_deaths.push_back({2.0, 1});
  const FaultInjector injector(plan);
  EXPECT_TRUE(injector.NodeAlive(1, 1.9));
  EXPECT_FALSE(injector.NodeAlive(1, 2.0));
  EXPECT_TRUE(injector.NodeAlive(3, 4.0));
  EXPECT_FALSE(injector.NodeAlive(3, 5.0));
  EXPECT_TRUE(injector.DeadNodesAt(1.0).empty());
  EXPECT_EQ(injector.DeadNodesAt(3.0), std::vector<NodeId>{1});
  EXPECT_EQ(injector.DeadNodesAt(10.0), (std::vector<NodeId>{1, 3}));
}

// -- Engine failure semantics ------------------------------------------------

TEST(ReorgFaultTest, ZeroRateInjectorIsBitIdenticalToNoInjector) {
  Fixture plain_fixture;
  CostModel model;
  IncrementalReorgEngine plain(&plain_fixture.cluster, &model,
                               TwoChunkIncrements());
  ASSERT_TRUE(plain.Begin(plain_fixture.plan, plain_fixture.first_new).ok());
  ASSERT_TRUE(plain.Drain().ok());

  Fixture injected_fixture;
  const FaultInjector injector(FaultPlan{});
  ReorgOptions opts = TwoChunkIncrements();
  opts.injector = &injector;
  IncrementalReorgEngine faulty(&injected_fixture.cluster, &model, opts);
  ASSERT_TRUE(
      faulty.Begin(injected_fixture.plan, injected_fixture.first_new).ok());
  ASSERT_TRUE(faulty.Drain().ok());

  EXPECT_EQ(plain.summary().transfer_digest, faulty.summary().transfer_digest);
  EXPECT_EQ(plain.summary().increments, faulty.summary().increments);
  EXPECT_EQ(plain.summary().slice_minutes, faulty.summary().slice_minutes);
  EXPECT_EQ(faulty.summary().faults, FaultCounts{});
  EXPECT_EQ(faulty.summary().recovery_overhead_minutes, 0.0);
}

TEST(ReorgFaultTest, TransientFaultsExhaustRetriesWithCappedBackoff) {
  Fixture f;
  CostModel model;
  FaultPlan hostile;
  hostile.transient_failure_rate = 1.0;
  const FaultInjector injector(hostile);
  ReorgOptions opts = TwoChunkIncrements();
  opts.injector = &injector;
  IncrementalReorgEngine engine(&f.cluster, &model, opts);
  ASSERT_TRUE(engine.Begin(f.plan, f.first_new).ok());

  const auto step = engine.Step();
  ASSERT_FALSE(step.ok());
  EXPECT_EQ(step.status().code(), util::StatusCode::kUnavailable);
  // Satellite contract: the error carries "increment N, retry K" context.
  EXPECT_NE(step.status().message().find("increment 0, retry 3"),
            std::string::npos);
  const auto& s = engine.summary();
  EXPECT_EQ(s.faults.retries, 3);  // 4 attempts = 3 retries.
  EXPECT_EQ(s.faults.timeouts, 0);
  // Default schedule: 100, 200, 400 ms (cap 1600 never reached).
  EXPECT_DOUBLE_EQ(s.faults.backoff_ms, 700.0);
  EXPECT_GT(s.faults.transient_failures, 0);
  EXPECT_EQ(s.increments, 0);  // Nothing committed.
  // The failed slice was rewound, not left in flight.
  EXPECT_FALSE(f.cluster.increment_in_flight());
  // Each failed attempt queued the slice for re-transfer.
  EXPECT_DOUBLE_EQ(s.retry_gb, 4.0 * util::BytesToGb(128.0 * kMiB));
  EXPECT_GT(s.recovery_overhead_minutes, 0.0);
}

TEST(ReorgFaultTest, SlowCopiesDilateButCommit) {
  Fixture f;
  CostModel model;
  FaultPlan syrup;
  syrup.slow_copy_rate = 1.0;
  syrup.slow_copy_dilation = 4.0;
  const FaultInjector injector(syrup);
  ReorgOptions opts = TwoChunkIncrements();
  opts.injector = &injector;
  IncrementalReorgEngine engine(&f.cluster, &model, opts);
  ASSERT_TRUE(engine.Begin(f.plan, f.first_new).ok());
  const auto step = engine.Step();
  ASSERT_TRUE(step.ok());
  EXPECT_EQ(step->attempts, 1);
  EXPECT_EQ(step->faults.slow_copies, 2);
  // Every byte dilated 4x: the extra 3x of the slice price is overhead.
  EXPECT_NEAR(step->fault_extra_minutes, 3.0 * step->minutes, 1e-9);
  ASSERT_TRUE(engine.Drain().ok());
  EXPECT_EQ(f.cluster.OwnerOf({4}), 2);
  EXPECT_EQ(f.cluster.OwnerOf({7}), 3);
  EXPECT_TRUE(engine.summary().only_to_new_nodes);
}

TEST(ReorgFaultTest, TimeoutAbandonsTheAttempt) {
  Fixture f;
  CostModel model;
  FaultPlan syrup;
  syrup.slow_copy_rate = 1.0;
  syrup.slow_copy_dilation = 1000.0;
  const FaultInjector injector(syrup);
  ReorgOptions opts = TwoChunkIncrements();
  opts.injector = &injector;
  opts.increment_timeout_minutes = 1.0;
  opts.retry.max_attempts = 2;
  IncrementalReorgEngine engine(&f.cluster, &model, opts);
  ASSERT_TRUE(engine.Begin(f.plan, f.first_new).ok());
  const auto step = engine.Step();
  ASSERT_FALSE(step.ok());
  EXPECT_EQ(step.status().code(), util::StatusCode::kUnavailable);
  EXPECT_NE(step.status().message().find("timeout"), std::string::npos);
  EXPECT_EQ(engine.summary().faults.timeouts, 2);
  // Each attempt was charged exactly the timeout, plus one backoff.
  EXPECT_NEAR(engine.virtual_minutes(), 2.0 + 100.0 / 60000.0, 1e-9);
}

TEST(ReorgFaultTest, AbortRestoresExactPreReorgPlacement) {
  Fixture f;
  const auto before = f.cluster.AllChunks();
  const uint64_t epoch_before = f.cluster.reorg_epoch();
  CostModel model;
  IncrementalReorgEngine engine(&f.cluster, &model, TwoChunkIncrements());
  ASSERT_TRUE(engine.Begin(f.plan, f.first_new).ok());
  ASSERT_TRUE(engine.Step().ok());  // {4,5} committed to node 2.
  ASSERT_EQ(f.cluster.OwnerOf({4}), 2);

  ASSERT_TRUE(engine.Abort().ok());
  EXPECT_FALSE(engine.active());
  EXPECT_TRUE(engine.summary().aborted);
  EXPECT_DOUBLE_EQ(engine.summary().rolled_back_gb,
                   util::BytesToGb(128.0 * kMiB));
  const auto after = f.cluster.AllChunks();
  ASSERT_EQ(after.size(), before.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(after[i].coords, before[i].coords);
    EXPECT_EQ(after[i].node, before[i].node);
    EXPECT_EQ(after[i].bytes, before[i].bytes);
  }
  // Stale routing views can detect the rollback.
  EXPECT_GT(f.cluster.reorg_epoch(), epoch_before);
  // Aborting twice is an error; a fresh Begin works.
  EXPECT_EQ(engine.Abort().code(), util::StatusCode::kFailedPrecondition);
  EXPECT_TRUE(engine.Begin(f.plan, f.first_new).ok());
  EXPECT_TRUE(engine.Drain().ok());
  EXPECT_EQ(engine.plans_begun(), 2);
}

TEST(ReorgFaultTest, PendingMovesRerouteAroundADeadDestination) {
  Fixture f;
  CostModel model;
  FaultPlan plan;
  plan.node_deaths.push_back({0.0, 3});  // Dead before the first Step.
  const FaultInjector injector(plan);
  ReorgOptions opts = TwoChunkIncrements();
  opts.injector = &injector;
  IncrementalReorgEngine engine(&f.cluster, &model, opts);
  ASSERT_TRUE(engine.Begin(f.plan, f.first_new).ok());
  ASSERT_TRUE(engine.Drain().ok());
  // Every move landed on the surviving new node, and the Table-1 property
  // held throughout.
  for (int64_t i = 4; i < 8; ++i) {
    EXPECT_EQ(f.cluster.OwnerOf({i}), 2) << "chunk " << i;
  }
  const auto& s = engine.summary();
  EXPECT_TRUE(s.only_to_new_nodes);
  EXPECT_EQ(s.faults.node_deaths, 1);
  EXPECT_EQ(s.faults.replans, 1);
  EXPECT_EQ(s.replanned_chunks, 2);  // {6,7} were still pending.
}

TEST(ReorgFaultTest, CommittedMovesRevertAndRestageOnDeath) {
  // Reorder the plan so the node-3 moves commit first, then kill node 3
  // once the virtual clock has passed the first increment.
  Cluster cluster(2, 1.0);
  for (int64_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(cluster.PlaceChunk({i}, 64 * kMiB, 0).ok());
  }
  const NodeId first_new = cluster.AddNodes(2);
  MovePlan plan;
  plan.Add(ChunkMove{{4}, 64 * kMiB, 0, 3});
  plan.Add(ChunkMove{{5}, 64 * kMiB, 0, 3});
  plan.Add(ChunkMove{{6}, 64 * kMiB, 0, 2});
  plan.Add(ChunkMove{{7}, 64 * kMiB, 0, 2});
  CostModel model;
  FaultPlan deaths;
  // Increment prices include the 0.5-minute fixed reorg overhead, so the
  // clock passes 0.1 after the first Step.
  deaths.node_deaths.push_back({0.1, 3});
  const FaultInjector injector(deaths);
  ReorgOptions opts = TwoChunkIncrements();
  opts.injector = &injector;
  IncrementalReorgEngine engine(&cluster, &model, opts);
  ASSERT_TRUE(engine.Begin(plan, first_new).ok());
  ASSERT_TRUE(engine.Step().ok());  // {4,5} committed to node 3.
  ASSERT_EQ(cluster.OwnerOf({4}), 3);
  ASSERT_TRUE(engine.Drain().ok());  // Death processed at the next Step.
  for (int64_t i = 4; i < 8; ++i) {
    EXPECT_EQ(cluster.OwnerOf({i}), 2) << "chunk " << i;
  }
  const auto& s = engine.summary();
  EXPECT_EQ(s.faults.replans, 1);
  EXPECT_EQ(s.replanned_chunks, 2);  // {4,5} reverted and re-staged.
  EXPECT_GT(s.retry_gb, 0.0);       // Their re-copy was retry backlog.
  EXPECT_GT(s.recovery_overhead_minutes, 0.0);
  EXPECT_TRUE(s.only_to_new_nodes);
  // Committed accounting ends consistent: all four chunks counted once.
  EXPECT_DOUBLE_EQ(s.committed_gb, util::BytesToGb(256.0 * kMiB));
  EXPECT_EQ(s.committed_chunks, 4);
}

TEST(ReorgFaultTest, NoSurvivingDestinationIsUnavailable) {
  Fixture f;
  CostModel model;
  FaultPlan plan;
  plan.node_deaths.push_back({0.0, 2});
  plan.node_deaths.push_back({0.0, 3});
  const FaultInjector injector(plan);
  ReorgOptions opts = TwoChunkIncrements();
  opts.injector = &injector;
  IncrementalReorgEngine engine(&f.cluster, &model, opts);
  ASSERT_TRUE(engine.Begin(f.plan, f.first_new).ok());
  const auto step = engine.Step();
  ASSERT_FALSE(step.ok());
  EXPECT_EQ(step.status().code(), util::StatusCode::kUnavailable);
  EXPECT_NE(step.status().message().find("replanning around dead node"),
            std::string::npos);
  // The caller's recovery path still works: Abort restores the placement.
  ASSERT_TRUE(engine.Abort().ok());
  for (int64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(f.cluster.OwnerOf({i}), 0);
  }
}

TEST(ReorgFaultTest, DeadSourceIsUnrecoverable) {
  Fixture f;
  CostModel model;
  FaultPlan plan;
  plan.node_deaths.push_back({0.0, 0});  // Every move's source.
  const FaultInjector injector(plan);
  ReorgOptions opts = TwoChunkIncrements();
  opts.injector = &injector;
  IncrementalReorgEngine engine(&f.cluster, &model, opts);
  ASSERT_TRUE(engine.Begin(f.plan, f.first_new).ok());
  const auto step = engine.Step();
  ASSERT_FALSE(step.ok());
  EXPECT_EQ(step.status().code(), util::StatusCode::kUnavailable);
}

}  // namespace
}  // namespace arraydb::reorg

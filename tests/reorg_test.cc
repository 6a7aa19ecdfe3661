// Unit tests for the incremental reorganization subsystem: Cluster's
// copy-then-flip staging, the IncrementalReorgEngine, and the
// dual-residency routing view.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/cost_model.h"
#include "exec/engine.h"
#include "reorg/dual_residency.h"
#include "reorg/reorg_engine.h"
#include "util/units.h"

namespace arraydb::reorg {
namespace {

using cluster::ChunkMove;
using cluster::Cluster;
using cluster::CostModel;
using cluster::MovePlan;
using cluster::NodeId;

constexpr int64_t kMiB = 1024 * 1024;

// 2 nodes, 8 chunks of 64 MiB each on node 0, then 2 empty nodes added.
// Returns the plan moving chunks {4..7} to node 2.
struct Fixture {
  Cluster cluster{2, 1.0};
  NodeId first_new = cluster::kInvalidNode;
  MovePlan plan;

  Fixture() {
    for (int64_t i = 0; i < 8; ++i) {
      EXPECT_TRUE(cluster.PlaceChunk({i}, 64 * kMiB, 0).ok());
    }
    first_new = cluster.AddNodes(2);
    for (int64_t i = 4; i < 8; ++i) {
      plan.Add(ChunkMove{{i}, 64 * kMiB, 0, first_new});
    }
  }
};

TEST(ClusterIncrementalTest, BeginValidatesLikeApply) {
  Fixture f;
  MovePlan unknown;
  unknown.Add(ChunkMove{{99}, 64 * kMiB, 0, 2});
  EXPECT_EQ(f.cluster.BeginApply(unknown).code(),
            util::StatusCode::kNotFound);

  MovePlan wrong_owner;
  wrong_owner.Add(ChunkMove{{1}, 64 * kMiB, 1, 2});
  EXPECT_EQ(f.cluster.BeginApply(wrong_owner).code(),
            util::StatusCode::kFailedPrecondition);

  // A failed Begin leaves the cluster idle.
  EXPECT_FALSE(f.cluster.reorg_active());
}

TEST(ClusterIncrementalTest, EmptyPlanIsANoOp) {
  Fixture f;
  EXPECT_TRUE(f.cluster.BeginApply(MovePlan()).ok());
  EXPECT_FALSE(f.cluster.reorg_active());
  // A normal Apply still works afterwards.
  EXPECT_TRUE(f.cluster.Apply(f.plan).ok());
}

TEST(ClusterIncrementalTest, AtomicApplyRefusedWhileActive) {
  Fixture f;
  ASSERT_TRUE(f.cluster.BeginApply(f.plan).ok());
  EXPECT_EQ(f.cluster.Apply(f.plan).code(),
            util::StatusCode::kFailedPrecondition);
  EXPECT_EQ(f.cluster.BeginApply(f.plan).code(),
            util::StatusCode::kFailedPrecondition);
  ASSERT_TRUE(f.cluster.RollbackReorg().ok());
  EXPECT_FALSE(f.cluster.reorg_active());
}

TEST(ClusterIncrementalTest, BudgetSlicingTakesAtLeastOneMove) {
  Fixture f;
  ASSERT_TRUE(f.cluster.BeginApply(f.plan).ok());
  // Budget below one chunk still yields one move per increment.
  auto slice = f.cluster.AdvanceIncrement(1);
  ASSERT_TRUE(slice.ok());
  EXPECT_EQ(slice->num_chunks(), 1);
  // No second advance while in flight.
  EXPECT_EQ(f.cluster.AdvanceIncrement(1).status().code(),
            util::StatusCode::kFailedPrecondition);
  ASSERT_TRUE(f.cluster.CommitIncrement().ok());
  // Budget of two chunks takes exactly two.
  slice = f.cluster.AdvanceIncrement(128 * kMiB);
  ASSERT_TRUE(slice.ok());
  EXPECT_EQ(slice->num_chunks(), 2);
  ASSERT_TRUE(f.cluster.CommitIncrement().ok());
  EXPECT_EQ(f.cluster.pending_reorg_chunks(), 1);
}

TEST(ClusterIncrementalTest, CommitFlipsOwnershipAndAccounting) {
  Fixture f;
  ASSERT_TRUE(f.cluster.BeginApply(f.plan).ok());
  auto slice = f.cluster.AdvanceIncrement(128 * kMiB);
  ASSERT_TRUE(slice.ok());
  // Before commit the authoritative owner is still the source.
  EXPECT_EQ(f.cluster.OwnerOf({4}), 0);
  ASSERT_TRUE(f.cluster.CommitIncrement().ok());
  EXPECT_EQ(f.cluster.OwnerOf({4}), 2);
  EXPECT_EQ(f.cluster.OwnerOf({5}), 2);
  EXPECT_EQ(f.cluster.OwnerOf({6}), 0);  // Not yet migrated.
  EXPECT_EQ(f.cluster.NodeBytes(2), 2 * 64 * kMiB);
  EXPECT_EQ(f.cluster.NodeChunkCount(2), 2);
  // Source replicas are retained for routing until FinishApply.
  EXPECT_EQ(f.cluster.SourceReplicaOf({4}), 0);
  EXPECT_EQ(f.cluster.SourceReplicaOf({0}), cluster::kInvalidNode);
}

TEST(ClusterIncrementalTest, FinishRequiresFullCommit) {
  Fixture f;
  ASSERT_TRUE(f.cluster.BeginApply(f.plan).ok());
  EXPECT_EQ(f.cluster.FinishApply().code(),
            util::StatusCode::kFailedPrecondition);
  while (f.cluster.pending_reorg_chunks() > 0) {
    ASSERT_TRUE(f.cluster.AdvanceIncrement(64 * kMiB).ok());
    ASSERT_TRUE(f.cluster.CommitIncrement().ok());
  }
  const uint64_t epoch = f.cluster.reorg_epoch();
  ASSERT_TRUE(f.cluster.FinishApply().ok());
  EXPECT_GT(f.cluster.reorg_epoch(), epoch);
  EXPECT_FALSE(f.cluster.reorg_active());
  EXPECT_EQ(f.cluster.SourceReplicaOf({4}), cluster::kInvalidNode);
  // Final placement matches the atomic path.
  Fixture g;
  ASSERT_TRUE(g.cluster.Apply(g.plan).ok());
  EXPECT_EQ(f.cluster.AllChunks().size(), g.cluster.AllChunks().size());
  const auto fa = f.cluster.AllChunks();
  const auto ga = g.cluster.AllChunks();
  for (size_t i = 0; i < fa.size(); ++i) {
    EXPECT_EQ(fa[i].node, ga[i].node);
    EXPECT_EQ(fa[i].bytes, ga[i].bytes);
  }
}

// Node the view routes a read of `coords` to, or kInvalidNode.
NodeId RoutedNode(const DualResidencyView& view,
                  const array::Coordinates& coords) {
  NodeId node = cluster::kInvalidNode;
  int64_t bytes = 0;
  return view.Lookup(coords, &node, &bytes) ? node : cluster::kInvalidNode;
}

TEST(DualResidencyViewTest, RoutesReadsToSourceUntilRelease) {
  Fixture f;
  DualResidencyView view(f.cluster);
  // Quiesced: exact pass-through.
  EXPECT_EQ(RoutedNode(view, {4}), 0);
  EXPECT_EQ(f.cluster.SourceReplicaOf({4}), cluster::kInvalidNode);

  ASSERT_TRUE(f.cluster.BeginApply(f.plan).ok());
  ASSERT_TRUE(f.cluster.AdvanceIncrement(256 * kMiB).ok());
  ASSERT_TRUE(f.cluster.CommitIncrement().ok());
  // Authoritative owner flipped, but reads stay pinned to the source.
  EXPECT_EQ(f.cluster.OwnerOf({4}), 2);
  EXPECT_EQ(RoutedNode(view, {4}), 0);
  EXPECT_EQ(f.cluster.SourceReplicaOf({4}), 0);
  NodeId node = cluster::kInvalidNode;
  int64_t bytes = 0;
  ASSERT_TRUE(view.Lookup({4}, &node, &bytes));
  EXPECT_EQ(node, 0);
  EXPECT_EQ(bytes, 64 * kMiB);
  int64_t on_source = 0;
  view.ForEachChunk([&](const array::Coordinates&, NodeId n, int64_t) {
    if (n == 0) ++on_source;
  });
  EXPECT_EQ(on_source, 8);  // All chunks still read from node 0.

  while (f.cluster.pending_reorg_chunks() > 0) {
    ASSERT_TRUE(f.cluster.AdvanceIncrement(256 * kMiB).ok());
    ASSERT_TRUE(f.cluster.CommitIncrement().ok());
  }
  ASSERT_TRUE(f.cluster.FinishApply().ok());
  EXPECT_EQ(RoutedNode(view, {4}), 2);  // Released: routed to the new owner.
  EXPECT_EQ(f.cluster.SourceReplicaOf({4}), cluster::kInvalidNode);
}

TEST(DualResidencyViewTest, ForEachChunkEnumeratesInSortedOrder) {
  // Chunks placed out of order; the plan moves some of them in reverse
  // order, and the view is read with one increment committed.
  Cluster cluster(2, 1.0);
  for (const int64_t x : {3, 0, 5, 1, 4, 2}) {
    for (const int64_t y : {1, 0}) {
      ASSERT_TRUE(cluster.PlaceChunk({x, y}, kMiB, x % 2 == 0 ? 0 : 1).ok());
    }
  }
  const NodeId first_new = cluster.AddNodes(1);
  MovePlan plan;
  for (const int64_t x : {4, 2, 0}) {
    plan.Add(ChunkMove{{x, 1}, kMiB, 0, first_new});
  }
  ASSERT_TRUE(cluster.BeginApply(plan).ok());
  ASSERT_TRUE(cluster.AdvanceIncrement(kMiB).ok());
  ASSERT_TRUE(cluster.CommitIncrement().ok());

  DualResidencyView view(cluster);
  ASSERT_EQ(cluster.SourceReplicaOf({4, 1}), 0);
  std::vector<array::Coordinates> order;
  view.ForEachChunk([&](const array::Coordinates& coords, NodeId node,
                        int64_t) {
    order.push_back(coords);
    EXPECT_EQ(node, coords[0] % 2 == 0 ? 0 : 1);  // Pinned to the source.
  });
  ASSERT_EQ(order.size(), 12u);
  auto sorted = order;
  std::sort(sorted.begin(), sorted.end(), array::CoordinatesLess);
  EXPECT_EQ(order, sorted);
}

TEST(ReorgEngineTest, DrainsInBudgetedIncrements) {
  Fixture f;
  CostModel model;
  ReorgOptions opts;
  opts.increment_gb = util::BytesToGb(128.0 * kMiB);
  IncrementalReorgEngine engine(&f.cluster, &model, opts);
  ASSERT_TRUE(engine.Begin(f.plan, f.first_new).ok());
  EXPECT_TRUE(engine.active());
  EXPECT_EQ(engine.pending_chunks(), 4);
  ASSERT_TRUE(engine.Drain().ok());
  EXPECT_FALSE(engine.active());
  const auto& s = engine.summary();
  EXPECT_EQ(s.increments, 2);  // 4 chunks, 2 per 128 MiB budget.
  EXPECT_EQ(s.chunks_moved, 4);
  EXPECT_TRUE(s.only_to_new_nodes);
  EXPECT_GT(s.work_minutes, 0.0);
  // Slicing pays a per-increment tax relative to the one-shot price.
  EXPECT_GE(s.slice_minutes, s.work_minutes);
  EXPECT_EQ(s.moved_gb_per_increment.size(), 2u);
  EXPECT_DOUBLE_EQ(s.moved_gb_per_increment[0] + s.moved_gb_per_increment[1],
                   s.moved_gb);
}

TEST(ReorgEngineTest, SingleIncrementWhenBudgetCoversThePlan) {
  Fixture f;
  CostModel model;
  ReorgOptions opts;
  opts.increment_gb = 1024.0;
  IncrementalReorgEngine engine(&f.cluster, &model, opts);
  ASSERT_TRUE(engine.Begin(f.plan, f.first_new).ok());
  ASSERT_TRUE(engine.Drain().ok());
  EXPECT_EQ(engine.summary().increments, 1);
  // One increment carries no slicing tax.
  EXPECT_DOUBLE_EQ(engine.summary().slice_minutes,
                   engine.summary().work_minutes);
}

TEST(ReorgEngineTest, RejectsNonPositiveIncrementBudgetAtBegin) {
  // Previously an unchecked constructor abort; now a clean InvalidArgument
  // that leaves the cluster idle.
  for (const double bad : {0.0, -8.0}) {
    Fixture f;
    CostModel model;
    ReorgOptions opts;
    opts.increment_gb = bad;
    IncrementalReorgEngine engine(&f.cluster, &model, opts);
    EXPECT_EQ(engine.Begin(f.plan, f.first_new).code(),
              util::StatusCode::kInvalidArgument)
        << bad;
    EXPECT_FALSE(f.cluster.reorg_active());
    // The cluster is untouched: a fresh engine still reorganizes.
    IncrementalReorgEngine ok(&f.cluster, &model);
    ASSERT_TRUE(ok.Begin(f.plan, f.first_new).ok());
    ASSERT_TRUE(ok.Drain().ok());
  }
}

TEST(ReorgEngineTest, OverBudgetIncrementsAreReported) {
  // A budget below one move still advances (the at-least-one-move rule),
  // but the overshoot is no longer silent.
  Fixture f;
  CostModel model;
  ReorgOptions opts;
  opts.increment_gb = util::BytesToGb(1.0);  // One byte.
  IncrementalReorgEngine engine(&f.cluster, &model, opts);
  ASSERT_TRUE(engine.Begin(f.plan, f.first_new).ok());
  while (engine.pending_chunks() > 0) {
    auto stats = engine.Step();
    ASSERT_TRUE(stats.ok());
    EXPECT_TRUE(stats->over_budget);
    EXPECT_NEAR(stats->over_budget_gb,
                util::BytesToGb(64.0 * kMiB - 1.0), 1e-12);
  }
  const auto& s = engine.summary();
  EXPECT_EQ(s.over_budget_increments, 4);
  EXPECT_NEAR(s.over_budget_gb, 4.0 * util::BytesToGb(64.0 * kMiB - 1.0),
              1e-12);
  ASSERT_TRUE(engine.Finish().ok());
}

TEST(ReorgEngineTest, WithinBudgetIncrementsReportNoOvershoot) {
  Fixture f;
  CostModel model;
  ReorgOptions opts;
  opts.increment_gb = util::BytesToGb(128.0 * kMiB);
  IncrementalReorgEngine engine(&f.cluster, &model, opts);
  ASSERT_TRUE(engine.Begin(f.plan, f.first_new).ok());
  ASSERT_TRUE(engine.Drain().ok());
  EXPECT_EQ(engine.summary().over_budget_increments, 0);
  EXPECT_DOUBLE_EQ(engine.summary().over_budget_gb, 0.0);
}

TEST(ReorgEngineTest, NonPositiveCallbackBudgetClampsToOneByteFloor) {
  Fixture f;
  CostModel model;
  ReorgOptions opts;
  opts.increment_gb = -1.0;  // Irrelevant: the callback takes precedence.
  opts.budget_fn = [](const BudgetRequest&) { return -5.0; };
  IncrementalReorgEngine engine(&f.cluster, &model, opts);
  ASSERT_TRUE(engine.Begin(f.plan, f.first_new).ok());
  ASSERT_TRUE(engine.Drain().ok());
  const auto& s = engine.summary();
  // Clamped to the one-byte floor: one move per increment, all flagged.
  EXPECT_EQ(s.increments, 4);
  EXPECT_EQ(s.over_budget_increments, 4);
  EXPECT_EQ(s.chunks_moved, 4);
}

TEST(ReorgEngineTest, BudgetCallbackSizesEachIncrement) {
  Fixture f;
  CostModel model;
  std::vector<double> seen_remaining;
  ReorgOptions opts;
  opts.budget_fn = [&seen_remaining](const BudgetRequest& request) {
    seen_remaining.push_back(request.remaining_gb);
    // First increment: two chunks; afterwards: everything left.
    return request.increment_index == 0 ? util::BytesToGb(128.0 * kMiB)
                                        : 1024.0;
  };
  IncrementalReorgEngine engine(&f.cluster, &model, opts);
  ASSERT_TRUE(engine.Begin(f.plan, f.first_new).ok());
  auto first = engine.Step();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->chunks_moved, 2);
  EXPECT_FALSE(first->over_budget);
  auto second = engine.Step();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->chunks_moved, 2);
  ASSERT_TRUE(engine.Finish().ok());
  // The callback saw the remaining work shrink.
  ASSERT_EQ(seen_remaining.size(), 2u);
  EXPECT_DOUBLE_EQ(seen_remaining[0], util::BytesToGb(4.0 * 64.0 * kMiB));
  EXPECT_DOUBLE_EQ(seen_remaining[1], util::BytesToGb(2.0 * 64.0 * kMiB));
}

TEST(ReorgEngineTest, EmptyPlanCompletesImmediately) {
  Fixture f;
  CostModel model;
  IncrementalReorgEngine engine(&f.cluster, &model);
  ASSERT_TRUE(engine.Begin(MovePlan(), f.first_new).ok());
  EXPECT_FALSE(engine.active());
  EXPECT_TRUE(engine.Drain().ok());
  EXPECT_EQ(engine.summary().increments, 0);
  EXPECT_DOUBLE_EQ(engine.summary().work_minutes, 0.0);
}

TEST(ReorgEngineTest, FlagsNonIncrementalSlices) {
  Fixture f;
  CostModel model;
  IncrementalReorgEngine engine(&f.cluster, &model);
  MovePlan sideways;  // Moves to a preexisting node: not incremental.
  sideways.Add(ChunkMove{{1}, 64 * kMiB, 0, 1});
  ASSERT_TRUE(engine.Begin(sideways, f.first_new).ok());
  ASSERT_TRUE(engine.Drain().ok());
  EXPECT_FALSE(engine.summary().only_to_new_nodes);
}

TEST(ReorgEngineTest, DigestIdenticalAcrossThreadCountsAndIncrementSizes) {
  std::vector<uint64_t> digests;
  for (const int threads : {1, 2, 8}) {
    for (const double inc_gb : {util::BytesToGb(64.0 * kMiB),
                                util::BytesToGb(192.0 * kMiB), 1024.0}) {
      Fixture f;
      CostModel model;
      ReorgOptions opts;
      opts.increment_gb = inc_gb;
      opts.copy_threads = threads;
      IncrementalReorgEngine engine(&f.cluster, &model, opts);
      ASSERT_TRUE(engine.Begin(f.plan, f.first_new).ok());
      ASSERT_TRUE(engine.Drain().ok());
      digests.push_back(engine.summary().transfer_digest);
    }
  }
  for (const uint64_t d : digests) {
    EXPECT_EQ(d, digests[0]);
    EXPECT_NE(d, 0u);
  }
}

TEST(ReorgEngineTest, MidReorgQueriesMatchQuiescedPlacement) {
  // A filter and a window query priced mid-migration through the view must
  // be bit-identical to the quiesced (pre-reorg) cluster.
  Fixture quiesced;
  Fixture migrating;
  CostModel model;
  ReorgOptions opts;
  opts.increment_gb = util::BytesToGb(64.0 * kMiB);
  IncrementalReorgEngine engine(&migrating.cluster, &model, opts);
  ASSERT_TRUE(engine.Begin(migrating.plan, migrating.first_new).ok());
  ASSERT_TRUE(engine.Step().ok());  // Half-committed migration.
  ASSERT_TRUE(engine.Step().ok());

  exec::QueryEngine qe;
  array::ArraySchema schema("s", {array::DimensionDesc{"x", 0, 7, 1, false}},
                            {array::AttributeDesc{
                                "v", array::AttrType::kDouble}});
  for (const auto kind : {exec::QueryKind::kFilter, exec::QueryKind::kWindow,
                          exec::QueryKind::kGroupBy}) {
    exec::QuerySpec spec;
    spec.kind = kind;
    spec.region = exec::ChunkRegion::All(1);
    const auto a = qe.Simulate(spec, engine.View(), schema);
    const auto b = qe.Simulate(spec, quiesced.cluster, schema);
    EXPECT_EQ(a.minutes, b.minutes);
    EXPECT_EQ(a.makespan_minutes, b.makespan_minutes);
    EXPECT_EQ(a.network_minutes, b.network_minutes);
    EXPECT_EQ(a.scanned_gb, b.scanned_gb);
    EXPECT_EQ(a.chunks_touched, b.chunks_touched);
    EXPECT_EQ(a.remote_neighbor_fetches, b.remote_neighbor_fetches);
  }
}

}  // namespace
}  // namespace arraydb::reorg

// Unit tests for the shared-nothing cluster substrate: placement,
// move-plan application and validation, accounting, and the RSD balance
// metric.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "array/schema.h"
#include "cluster/cluster.h"
#include "core/elastic_engine.h"
#include "core/round_robin.h"
#include "reorg/reorg_engine.h"
#include "util/status.h"
#include "util/units.h"

namespace arraydb::cluster {
namespace {

TEST(ClusterTest, StartsEmpty) {
  Cluster c(2, 100.0);
  EXPECT_EQ(c.num_nodes(), 2);
  EXPECT_DOUBLE_EQ(c.CapacityGb(), 200.0);
  EXPECT_EQ(c.num_chunks(), 0);
  EXPECT_EQ(c.TotalBytes(), 0);
  EXPECT_DOUBLE_EQ(c.LoadRsd(), 0.0);
}

TEST(ClusterTest, PlaceAndLookup) {
  Cluster c(2, 100.0);
  ASSERT_TRUE(c.PlaceChunk({0, 0}, 100, 0).ok());
  ASSERT_TRUE(c.PlaceChunk({0, 1}, 200, 1).ok());
  EXPECT_EQ(c.OwnerOf({0, 0}), 0);
  EXPECT_EQ(c.OwnerOf({0, 1}), 1);
  EXPECT_EQ(c.OwnerOf({9, 9}), kInvalidNode);
  EXPECT_TRUE(c.Contains({0, 0}));
  EXPECT_FALSE(c.Contains({1, 0}));
  EXPECT_EQ(c.NodeBytes(0), 100);
  EXPECT_EQ(c.NodeBytes(1), 200);
  EXPECT_EQ(c.TotalBytes(), 300);
  EXPECT_EQ(c.NodeChunkCount(0), 1);
}

TEST(ClusterTest, NoOverwrite) {
  Cluster c(1, 100.0);
  ASSERT_TRUE(c.PlaceChunk({5}, 10, 0).ok());
  const auto again = c.PlaceChunk({5}, 10, 0);
  EXPECT_FALSE(again.ok());
  EXPECT_EQ(again.code(), util::StatusCode::kAlreadyExists);
}

TEST(ClusterTest, RejectsUnknownNodeAndNegativeBytes) {
  Cluster c(2, 100.0);
  EXPECT_FALSE(c.PlaceChunk({0}, 10, 7).ok());
  EXPECT_FALSE(c.PlaceChunk({0}, 10, -1).ok());
  EXPECT_FALSE(c.PlaceChunk({1}, -5, 0).ok());
}

TEST(ClusterTest, AddNodesReturnsFirstNewId) {
  Cluster c(2, 100.0);
  EXPECT_EQ(c.AddNodes(3), 2);
  EXPECT_EQ(c.num_nodes(), 5);
  EXPECT_EQ(c.NodeBytes(4), 0);
}

TEST(ClusterTest, ApplyMovesChunks) {
  Cluster c(2, 100.0);
  ASSERT_TRUE(c.PlaceChunk({0}, 100, 0).ok());
  ASSERT_TRUE(c.PlaceChunk({1}, 50, 0).ok());
  c.AddNodes(1);
  MovePlan plan;
  plan.Add(ChunkMove{{1}, 50, 0, 2});
  ASSERT_TRUE(c.Apply(plan).ok());
  EXPECT_EQ(c.OwnerOf({1}), 2);
  EXPECT_EQ(c.NodeBytes(0), 100);
  EXPECT_EQ(c.NodeBytes(2), 50);
  EXPECT_EQ(c.TotalBytes(), 150);  // Moves never change totals.
}

TEST(ClusterTest, ApplyValidatesBeforeMutating) {
  Cluster c(2, 100.0);
  ASSERT_TRUE(c.PlaceChunk({0}, 100, 0).ok());
  // Plan with a valid move followed by an invalid one: nothing applies.
  MovePlan plan;
  plan.Add(ChunkMove{{0}, 100, 0, 1});
  plan.Add(ChunkMove{{9}, 10, 0, 1});  // Unknown chunk.
  EXPECT_FALSE(c.Apply(plan).ok());
  EXPECT_EQ(c.OwnerOf({0}), 0) << "partial application detected";
}

TEST(ClusterTest, LoadRsdMatchesHandComputation) {
  Cluster c(2, 100.0);
  const int64_t gb = static_cast<int64_t>(util::kGiB);
  ASSERT_TRUE(c.PlaceChunk({0}, 10 * gb, 0).ok());
  ASSERT_TRUE(c.PlaceChunk({1}, 30 * gb, 1).ok());
  // Loads 10,30: mean 20, population stdev 10 -> RSD 0.5.
  EXPECT_NEAR(c.LoadRsd(), 0.5, 1e-9);
}

// Regression (determinism lint R1): ForEachChunk used to iterate the
// unordered chunk map directly, exposing hash order — which varies with
// insertion history — to every caller's visit sequence. It must enumerate
// in sorted coordinate order, independent of placement order.
TEST(ClusterTest, ForEachChunkEnumeratesInSortedOrder) {
  // Same chunks, two different insertion histories.
  Cluster a(2, 100.0);
  ASSERT_TRUE(a.PlaceChunk({0, 0}, 10, 0).ok());
  ASSERT_TRUE(a.PlaceChunk({0, 1}, 20, 1).ok());
  ASSERT_TRUE(a.PlaceChunk({1, 0}, 30, 0).ok());
  ASSERT_TRUE(a.PlaceChunk({2, 5}, 40, 1).ok());

  Cluster b(2, 100.0);
  ASSERT_TRUE(b.PlaceChunk({2, 5}, 40, 1).ok());
  ASSERT_TRUE(b.PlaceChunk({1, 0}, 30, 0).ok());
  ASSERT_TRUE(b.PlaceChunk({0, 1}, 20, 1).ok());
  ASSERT_TRUE(b.PlaceChunk({0, 0}, 10, 0).ok());

  const auto visit = [](const Cluster& c) {
    std::vector<array::Coordinates> order;
    c.ForEachChunk([&](const array::Coordinates& coords, NodeId, int64_t) {
      order.push_back(coords);
    });
    return order;
  };
  const auto order_a = visit(a);
  const auto order_b = visit(b);
  ASSERT_EQ(order_a.size(), 4u);
  EXPECT_EQ(order_a, order_b);
  auto sorted = order_a;
  std::sort(sorted.begin(), sorted.end(), array::CoordinatesLess);
  EXPECT_EQ(order_a, sorted);
}

// Every record of `c` as comparable tuples (coords, bytes, owner, source).
std::vector<std::tuple<array::Coordinates, int64_t, NodeId, NodeId>> Records(
    const Cluster& c) {
  std::vector<std::tuple<array::Coordinates, int64_t, NodeId, NodeId>> out;
  for (const ChunkRecord& rec : c.AllChunks()) {
    out.emplace_back(rec.coords, rec.bytes, rec.node, rec.source);
  }
  return out;
}

bool NoSourceRetained(const Cluster& c) {
  const auto records = c.AllChunks();
  return std::all_of(records.begin(), records.end(), [](const auto& rec) {
    return rec.source == kInvalidNode;
  });
}

// Three nodes: (0) of 100 B and (1) of 50 B on node 0.
Cluster ValidationCluster() {
  Cluster c(3, 100.0);
  EXPECT_TRUE(c.PlaceChunk({0}, 100, 0).ok());
  EXPECT_TRUE(c.PlaceChunk({1}, 50, 0).ok());
  return c;
}

MovePlan PlanOf(std::vector<ChunkMove> moves) {
  MovePlan plan;
  for (auto& m : moves) plan.Add(std::move(m));
  return plan;
}

// Apply and BeginApply run one validator: each single-fault plan is
// rejected by both with the same code, and neither touches placement.
TEST(ClusterTest, ApplyAndBeginApplyRejectTheSamePlans) {
  const struct {
    const char* name;
    MovePlan plan;
    util::StatusCode code;
  } cases[] = {
      {"self-move", PlanOf({{{0}, 100, 0, 0}}),
       util::StatusCode::kInvalidArgument},
      {"source out of range", PlanOf({{{0}, 100, -1, 1}}),
       util::StatusCode::kInvalidArgument},
      {"destination out of range", PlanOf({{{0}, 100, 0, 3}}),
       util::StatusCode::kInvalidArgument},
      {"duplicate", PlanOf({{{0}, 100, 0, 1}, {{0}, 100, 0, 2}}),
       util::StatusCode::kInvalidArgument},
      {"unknown chunk", PlanOf({{{9}, 10, 0, 1}}),
       util::StatusCode::kNotFound},
      {"wrong owner", PlanOf({{{0}, 100, 1, 2}}),
       util::StatusCode::kFailedPrecondition},
      {"wrong size", PlanOf({{{0}, 99, 0, 1}}),
       util::StatusCode::kFailedPrecondition},
      {"zero size claimed for a stored chunk", PlanOf({{{1}, 0, 0, 1}}),
       util::StatusCode::kFailedPrecondition},
  };
  for (const auto& test : cases) {
    Cluster c = ValidationCluster();
    const auto before = Records(c);
    EXPECT_EQ(c.Apply(test.plan).code(), test.code) << test.name;
    EXPECT_EQ(c.BeginApply(test.plan).code(), test.code) << test.name;
    EXPECT_FALSE(c.reorg_active()) << test.name;
    EXPECT_EQ(Records(c), before) << test.name;
  }
}

// The duplicate error names the earliest move whose chunk already appeared,
// whatever the order of the records in memory.
TEST(ClusterTest, DuplicateErrorNamesFirstRepeatedMove) {
  Cluster c = ValidationCluster();
  const auto first_repeat = [&c](const MovePlan& plan) {
    const auto status = c.Apply(plan);
    EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument);
    return status.message();
  };
  EXPECT_EQ(first_repeat(PlanOf({{{1}, 50, 0, 1},
                                 {{0}, 100, 0, 1},
                                 {{1}, 50, 0, 2},
                                 {{0}, 100, 0, 2}})),
            "duplicate move of chunk (1)");
  EXPECT_EQ(first_repeat(PlanOf({{{0}, 100, 0, 1},
                                 {{1}, 50, 0, 1},
                                 {{0}, 100, 0, 2},
                                 {{1}, 50, 0, 2}})),
            "duplicate move of chunk (0)");
}

// A round-robin scale-out over a cluster holding a zero-byte chunk lands
// the same placement through the atomic reference and the incremental
// engine.
TEST(ClusterTest, AtomicAndIncrementalAcceptTheSamePlans) {
  const array::ArraySchema schema(
      "grid",
      {array::DimensionDesc{"x", 0, 3, 1, false},
       array::DimensionDesc{"y", 0, 3, 1, false}},
      {array::AttributeDesc{"v", array::AttrType::kDouble}});
  std::vector<array::ChunkInfo> batch;
  for (int64_t x = 0; x < 4; ++x) {
    for (int64_t y = 0; y < 4; ++y) {
      array::ChunkInfo info;
      info.coords = {x, y};
      // Chunk (0, 2) has row-major index 2: node 0 of 2, node 2 of 3.
      info.bytes = (x == 0 && y == 2) ? 0 : 1000 * (1 + x + y);
      info.cell_count = info.bytes / 8;
      batch.push_back(info);
    }
  }
  core::ElasticEngine atomic(
      std::make_unique<core::RoundRobinPartitioner>(schema, 2), 2, 1.0);
  core::ElasticEngine incremental(
      std::make_unique<core::RoundRobinPartitioner>(schema, 2), 2, 1.0);
  atomic.IngestBatch(batch);
  incremental.IngestBatch(batch);

  const core::ReorgStats stats = atomic.ScaleOut(1);
  const core::ScaleOutPrep prep = incremental.PrepareScaleOut(1);
  const auto& moves = prep.plan.moves();
  ASSERT_TRUE(std::any_of(moves.begin(), moves.end(), [](const auto& m) {
    return m.coords == array::Coordinates{0, 2} && m.bytes == 0;
  }));
  EXPECT_EQ(stats.chunks_moved, prep.plan.num_chunks());

  reorg::ReorgOptions options;
  options.increment_gb = util::BytesToGb(4000.0);
  reorg::IncrementalReorgEngine engine(&incremental.mutable_cluster(),
                                       &incremental.cost_model(), options);
  ASSERT_TRUE(engine.Begin(prep.plan, prep.first_new_node).ok());
  ASSERT_TRUE(engine.Drain().ok());
  EXPECT_EQ(Records(incremental.cluster()), Records(atomic.cluster()));
}

// 2 nodes, chunks (0)..(7) of 64 B on node 0, then nodes 2 and 3 added;
// the plan moves (4), (5) to node 2 and (6), (7) to node 3.
struct StagedFixture {
  Cluster cluster{2, 1.0};

  StagedFixture() {
    for (int64_t i = 0; i < 8; ++i) {
      EXPECT_TRUE(cluster.PlaceChunk({i}, 64, 0).ok());
    }
    cluster.AddNodes(2);
    EXPECT_TRUE(cluster
                    .BeginApply(PlanOf({{{4}, 64, 0, 2},
                                        {{5}, 64, 0, 2},
                                        {{6}, 64, 0, 3},
                                        {{7}, 64, 0, 3}}))
                    .ok());
  }

  void CommitOne(int64_t budget_bytes) {
    ASSERT_TRUE(cluster.AdvanceIncrement(budget_bytes).ok());
    ASSERT_TRUE(cluster.CommitIncrement().ok());
  }

  void Drain() {
    while (cluster.pending_reorg_chunks() > 0) CommitOne(64);
    ASSERT_TRUE(cluster.FinishApply().ok());
  }
};

TEST(ClusterTest, BeginApplyRecordsEachStagedSource) {
  StagedFixture f;
  for (int64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(f.cluster.SourceReplicaOf({i}), i >= 4 ? 0 : kInvalidNode)
        << "chunk " << i;
  }
  EXPECT_EQ(f.cluster.SourceReplicaOf({99}), kInvalidNode);
  EXPECT_FALSE(NoSourceRetained(f.cluster));
}

TEST(ClusterTest, SourcesClearedAfterFinish) {
  StagedFixture f;
  f.Drain();
  EXPECT_TRUE(NoSourceRetained(f.cluster));
}

TEST(ClusterTest, SourcesClearedAfterRollback) {
  StagedFixture f;
  f.CommitOne(128);
  ASSERT_TRUE(f.cluster.AdvanceIncrement(64).ok());  // Left in flight.
  ASSERT_TRUE(f.cluster.RollbackReorg().ok());
  EXPECT_TRUE(NoSourceRetained(f.cluster));
  for (int64_t i = 0; i < 8; ++i) EXPECT_EQ(f.cluster.OwnerOf({i}), 0);
}

TEST(ClusterTest, SourcesClearedAfterRerouteAndDrain) {
  StagedFixture f;
  f.CommitOne(128);  // (4) and (5) flip to node 2, which then dies.
  const auto stats = f.cluster.RerouteDeadDestination(
      2, [](const ChunkMove&) { return NodeId{3}; });
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->reverted_committed, 2);
  EXPECT_EQ(f.cluster.SourceReplicaOf({4}), 0);
  f.Drain();
  EXPECT_TRUE(NoSourceRetained(f.cluster));
  for (int64_t i = 4; i < 8; ++i) EXPECT_EQ(f.cluster.OwnerOf({i}), 3);
}

TEST(MovePlanTest, Accounting) {
  MovePlan plan;
  EXPECT_TRUE(plan.empty());
  plan.Add(ChunkMove{{0}, 100, 0, 2});
  plan.Add(ChunkMove{{1}, 50, 1, 3});
  EXPECT_EQ(plan.num_chunks(), 2);
  EXPECT_EQ(plan.TotalBytes(), 150);
  EXPECT_TRUE(plan.OnlyToNodesAtOrAbove(2));
  EXPECT_FALSE(plan.OnlyToNodesAtOrAbove(3));
}

}  // namespace
}  // namespace arraydb::cluster

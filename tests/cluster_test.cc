// Unit tests for the shared-nothing cluster substrate: placement,
// move-plan application, accounting, and the RSD balance metric.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cluster/cluster.h"
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

TEST(ClusterTest, ApplyChecksClaimedOwnerAndBytes) {
  Cluster c(2, 100.0);
  ASSERT_TRUE(c.PlaceChunk({0}, 100, 0).ok());
  MovePlan wrong_owner;
  wrong_owner.Add(ChunkMove{{0}, 100, 1, 0});
  EXPECT_FALSE(c.Apply(wrong_owner).ok());
  MovePlan wrong_bytes;
  wrong_bytes.Add(ChunkMove{{0}, 99, 0, 1});
  EXPECT_FALSE(c.Apply(wrong_bytes).ok());
  MovePlan bad_target;
  bad_target.Add(ChunkMove{{0}, 100, 0, 5});
  EXPECT_FALSE(c.Apply(bad_target).ok());
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

// Per-partitioner unit tests: scheme-specific behaviours from §4.2.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "array/schema.h"
#include "cluster/cluster.h"
#include "core/append.h"
#include "core/consistent_hash.h"
#include "core/extendible_hash.h"
#include "core/hilbert_partitioner.h"
#include "core/spatial.h"
#include "core/kdtree.h"
#include "core/partitioner_factory.h"
#include "core/quadtree.h"
#include "core/round_robin.h"
#include "core/uniform_range.h"
#include "hilbert/hilbert.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/units.h"

namespace arraydb::core {
namespace {

using array::ArraySchema;
using array::AttrType;
using array::AttributeDesc;
using array::ChunkInfo;
using array::Coordinates;
using array::DimensionDesc;

ArraySchema TestSchema() {
  return ArraySchema("grid",
                     {DimensionDesc{"x", 0, 15, 1, false},
                      DimensionDesc{"y", 0, 15, 1, false}},
                     {AttributeDesc{"v", AttrType::kDouble}});
}

ChunkInfo MakeChunk(Coordinates coords, int64_t bytes) {
  ChunkInfo info;
  info.coords = std::move(coords);
  info.cell_count = bytes / 8;
  info.bytes = bytes;
  return info;
}

// Node with the most stored bytes; ties break toward the lower id.
NodeId MostLoadedNode(const cluster::Cluster& cluster) {
  NodeId best = 0;
  for (NodeId n = 1; n < cluster.num_nodes(); ++n) {
    if (cluster.NodeBytes(n) > cluster.NodeBytes(best)) best = n;
  }
  return best;
}

// ---------------------------------------------------------------- Append --

TEST(AppendTest, FillsNodesInOrder) {
  cluster::Cluster cluster(3, 1.0);  // 1 GB nodes.
  AppendPartitioner append(3, 1.0, 0.9);
  const int64_t half_gb = static_cast<int64_t>(util::kGiB / 2);
  // First two chunks fit on node 0 (0.9 GB usable -> one 0.5 GB chunk,
  // the second spills).
  const auto c0 = MakeChunk({0, 0}, half_gb);
  EXPECT_EQ(append.PlaceChunk(cluster, c0), 0);
  ASSERT_TRUE(cluster.PlaceChunk(c0.coords, c0.bytes, 0).ok());
  const auto c1 = MakeChunk({0, 1}, half_gb);
  EXPECT_EQ(append.PlaceChunk(cluster, c1), 1);
  ASSERT_TRUE(cluster.PlaceChunk(c1.coords, c1.bytes, 1).ok());
  const auto c2 = MakeChunk({0, 2}, half_gb);
  EXPECT_EQ(append.PlaceChunk(cluster, c2), 2);
}

TEST(AppendTest, ScaleOutMovesNothing) {
  cluster::Cluster cluster(2, 1.0);
  AppendPartitioner append(2, 1.0);
  for (int i = 0; i < 10; ++i) {
    const auto c = MakeChunk({i, 0}, 1 << 20);
    const NodeId n = append.PlaceChunk(cluster, c);
    ASSERT_TRUE(cluster.PlaceChunk(c.coords, c.bytes, n).ok());
  }
  cluster.AddNodes(2);
  const auto plan = append.PlanScaleOut(cluster, 2);
  EXPECT_TRUE(plan.empty()) << "Append must be a constant-time scale-out";
}

TEST(AppendTest, LocateRemembersPlacements) {
  cluster::Cluster cluster(2, 1.0);
  AppendPartitioner append(2, 1.0);
  const auto c = MakeChunk({3, 4}, 100);
  const NodeId n = append.PlaceChunk(cluster, c);
  EXPECT_EQ(append.Locate({3, 4}), n);
  EXPECT_EQ(append.Locate({9, 9}), kInvalidNode);
}

TEST(AppendTest, OverflowStaysOnLastNode) {
  cluster::Cluster cluster(2, 0.001);  // Tiny capacity.
  AppendPartitioner append(2, 0.001);
  for (int i = 0; i < 20; ++i) {
    const auto c = MakeChunk({i, 0}, 1 << 20);
    const NodeId n = append.PlaceChunk(cluster, c);
    ASSERT_TRUE(cluster.PlaceChunk(c.coords, c.bytes, n).ok());
    EXPECT_LT(n, 2);
  }
  EXPECT_EQ(append.current_target(), 1);
}

// ----------------------------------------------------------- Round Robin --

TEST(RoundRobinTest, ModuloAddressing) {
  const ArraySchema schema = TestSchema();
  cluster::Cluster cluster(4, 1.0);
  RoundRobinPartitioner rr(schema, 4);
  for (int64_t x = 0; x < 4; ++x) {
    for (int64_t y = 0; y < 4; ++y) {
      const int64_t lin = schema.LinearizeChunkIndex({x, y});
      EXPECT_EQ(rr.Locate({x, y}), static_cast<NodeId>(lin % 4));
    }
  }
}

TEST(RoundRobinTest, ScaleOutIsGlobal) {
  const ArraySchema schema = TestSchema();
  cluster::Cluster cluster(4, 1.0);
  RoundRobinPartitioner rr(schema, 4);
  for (int64_t x = 0; x < 16; ++x) {
    for (int64_t y = 0; y < 16; ++y) {
      const auto c = MakeChunk({x, y}, 1000);
      const NodeId n = rr.PlaceChunk(cluster, c);
      ASSERT_TRUE(cluster.PlaceChunk(c.coords, c.bytes, n).ok());
    }
  }
  cluster.AddNodes(2);
  const auto plan = rr.PlanScaleOut(cluster, 4);
  // i mod 4 == i mod 6 only when i mod 12 is in {0,1,2,3}: 2/3 of chunks move,
  // and many moves target preexisting nodes (not incremental).
  EXPECT_NEAR(static_cast<double>(plan.num_chunks()), 256.0 * 2.0 / 3.0, 8.0);
  EXPECT_FALSE(plan.OnlyToNodesAtOrAbove(4));
}

// ------------------------------------------------------- Consistent Hash --

TEST(ConsistentHashTest, RingHasVnodes) {
  ConsistentHashPartitioner ch(4, 64);
  EXPECT_EQ(ch.num_ring_points(), 4 * 64);
}

TEST(ConsistentHashTest, LookupIsStable) {
  cluster::Cluster cluster(4, 1.0);
  ConsistentHashPartitioner ch(4);
  const auto c = MakeChunk({7, 3}, 10);
  const NodeId n1 = ch.PlaceChunk(cluster, c);
  const NodeId n2 = ch.Locate({7, 3});
  EXPECT_EQ(n1, n2);
}

TEST(ConsistentHashTest, ScaleOutMovesOnlyToNewNodes) {
  cluster::Cluster cluster(2, 1.0);
  ConsistentHashPartitioner ch(2);
  for (int64_t x = 0; x < 16; ++x) {
    for (int64_t y = 0; y < 16; ++y) {
      const auto c = MakeChunk({x, y}, 1000);
      const NodeId n = ch.PlaceChunk(cluster, c);
      ASSERT_TRUE(cluster.PlaceChunk(c.coords, c.bytes, n).ok());
    }
  }
  cluster.AddNodes(2);
  const auto plan = ch.PlanScaleOut(cluster, 2);
  EXPECT_FALSE(plan.empty());
  EXPECT_TRUE(plan.OnlyToNodesAtOrAbove(2))
      << "consistent hashing must only capture arcs for new nodes";
  // Roughly half the chunks should move when doubling the cluster.
  EXPECT_GT(plan.num_chunks(), 256 / 4);
  EXPECT_LT(plan.num_chunks(), 3 * 256 / 4);
}

TEST(ConsistentHashTest, ChunkCountsRoughlyBalanced) {
  cluster::Cluster cluster(4, 1.0);
  ConsistentHashPartitioner ch(4);
  std::vector<int> counts(4, 0);
  for (int64_t x = 0; x < 32; ++x) {
    for (int64_t y = 0; y < 32; ++y) {
      ++counts[static_cast<size_t>(ch.Locate({x, y}))];
    }
  }
  for (int n = 0; n < 4; ++n) {
    EXPECT_GT(counts[static_cast<size_t>(n)], 1024 / 4 / 3);
    EXPECT_LT(counts[static_cast<size_t>(n)], 3 * 1024 / 4);
  }
}

// ------------------------------------------------------- Extendible Hash --

TEST(ExtendibleHashTest, InitialDepthCoversNodes) {
  ExtendibleHashPartitioner eh3(3);
  EXPECT_EQ(eh3.global_depth(), 2);  // 4 directory entries for 3 nodes.
  ExtendibleHashPartitioner eh8(8);
  EXPECT_EQ(eh8.global_depth(), 3);
}

TEST(ExtendibleHashTest, SplitsMostLoadedNode) {
  cluster::Cluster cluster(2, 1.0);
  ExtendibleHashPartitioner eh(2);
  util::Rng rng(17);
  // Skewed load: every chunk is large, so whichever node accumulates more
  // bytes must shed data at scale-out.
  for (int64_t i = 0; i < 200; ++i) {
    const auto c = MakeChunk({i, 0}, 1 << 20);
    const NodeId n = eh.PlaceChunk(cluster, c);
    ASSERT_TRUE(cluster.PlaceChunk(c.coords, c.bytes, n).ok());
  }
  const NodeId loaded = MostLoadedNode(cluster);
  cluster.AddNodes(1);
  const auto plan = eh.PlanScaleOut(cluster, 2);
  EXPECT_FALSE(plan.empty());
  EXPECT_TRUE(plan.OnlyToNodesAtOrAbove(2));
  for (const auto& m : plan.moves()) {
    EXPECT_EQ(m.from, loaded) << "split must come from the loaded node";
  }
}

TEST(ExtendibleHashTest, RepeatedScaleOutsDeepenDirectory) {
  cluster::Cluster cluster(1, 1.0);
  ExtendibleHashPartitioner eh(1);
  const int start_depth = eh.global_depth();
  for (int64_t i = 0; i < 100; ++i) {
    const auto c = MakeChunk({i, 1}, 1 << 18);
    const NodeId n = eh.PlaceChunk(cluster, c);
    ASSERT_TRUE(cluster.PlaceChunk(c.coords, c.bytes, n).ok());
  }
  for (int round = 0; round < 3; ++round) {
    const int old = cluster.num_nodes();
    cluster.AddNodes(1);
    ASSERT_TRUE(cluster.Apply(eh.PlanScaleOut(cluster, old)).ok());
  }
  EXPECT_GT(eh.global_depth(), start_depth);
}

// --------------------------------------------------------- Hilbert Curve --

TEST(HilbertPartitionerTest, InitialRangesPartitionCurve) {
  const ArraySchema schema = TestSchema();
  HilbertPartitioner hp(schema, 4);
  EXPECT_EQ(hp.num_ranges(), 4);
  // Every grid chunk must be locatable.
  for (int64_t x = 0; x < 16; ++x) {
    for (int64_t y = 0; y < 16; ++y) {
      const NodeId n = hp.Locate({x, y});
      EXPECT_GE(n, 0);
      EXPECT_LT(n, 4);
    }
  }
}

TEST(HilbertPartitionerTest, SplitHalvesTheLoadedRange) {
  const ArraySchema schema = TestSchema();
  cluster::Cluster cluster(2, 1.0);
  HilbertPartitioner hp(schema, 2);
  for (int64_t x = 0; x < 16; ++x) {
    for (int64_t y = 0; y < 16; ++y) {
      const auto c = MakeChunk({x, y}, 1 << 16);
      const NodeId n = hp.PlaceChunk(cluster, c);
      ASSERT_TRUE(cluster.PlaceChunk(c.coords, c.bytes, n).ok());
    }
  }
  const auto loads_before = cluster.NodeLoadsGb();
  const NodeId loaded = MostLoadedNode(cluster);
  cluster.AddNodes(1);
  const auto plan = hp.PlanScaleOut(cluster, 2);
  ASSERT_TRUE(plan.OnlyToNodesAtOrAbove(2));
  ASSERT_TRUE(cluster.Apply(plan).ok());
  // The victim shed roughly half its bytes to the new node.
  EXPECT_NEAR(cluster.NodeLoadGb(2),
              loads_before[static_cast<size_t>(loaded)] / 2.0,
              loads_before[static_cast<size_t>(loaded)] * 0.2);
}

TEST(HilbertPartitionerTest, RanksAreDistinctAcrossGrid) {
  const ArraySchema schema = TestSchema();
  HilbertPartitioner hp(schema, 2);
  std::set<uint64_t> ranks;
  for (int64_t x = 0; x < 16; ++x) {
    for (int64_t y = 0; y < 16; ++y) {
      ranks.insert(hp.RankOf({x, y}));
    }
  }
  EXPECT_EQ(ranks.size(), 256u);
}

TEST(HilbertPartitionerTest, RankOfMatchesTheReferenceCurve) {
  // RankOf is the table-driven codec on the projected chunk position: it
  // must equal the bit-by-bit reference curve for every chunk of a
  // non-cubic 3-D grid, with and without a growth dimension projected
  // away.
  const ArraySchema schema("cube",
                           {DimensionDesc{"t", 0, 11, 2, false},
                            DimensionDesc{"x", 0, 19, 4, false},
                            DimensionDesc{"y", 0, 8, 3, false}},
                           {AttributeDesc{"v", AttrType::kDouble}});
  const Coordinates grid = schema.ChunkGridExtents();
  for (const int growth_dim : {0, SpatialProjection::kNone}) {
    const SpatialProjection projection(schema, growth_dim);
    const HilbertPartitioner hp(schema, 3, growth_dim);
    for (int64_t t = 0; t < grid[0]; ++t) {
      for (int64_t x = 0; x < grid[1]; ++x) {
        for (int64_t y = 0; y < grid[2]; ++y) {
          const Coordinates c{t, x, y};
          EXPECT_EQ(hp.RankOf(c),
                    hilbert::HilbertRankReference(projection.Project(c),
                                                  projection.extents()))
              << "growth_dim=" << growth_dim << " chunk ("
              << t << "," << x << "," << y << ")";
        }
      }
    }
  }
}

TEST(HilbertPartitionerDeathTest, RejectsSchemasAboveTheStateTableLimit) {
  // Schema-driven codec construction routes through HilbertCodec::Create:
  // a projected rank above the 6-dim state tables fails loudly at
  // partitioner construction (naming the limit) instead of silently
  // dropping to the slower non-table path.
  std::vector<DimensionDesc> dims;
  for (int d = 0; d < 7; ++d) {
    std::string name = "d";
    name += static_cast<char>('0' + d);
    dims.push_back(DimensionDesc{name, 0, 3, 1, false});
  }
  const ArraySchema schema("sevendim", dims,
                           {AttributeDesc{"v", AttrType::kDouble}});
  EXPECT_DEATH(HilbertPartitioner(schema, 2, SpatialProjection::kNone),
               "state tables");
}

// -------------------------------------------------------------- K-d Tree --

TEST(KdTreeTest, BootstrapCoversGrid) {
  const ArraySchema schema = TestSchema();
  KdTreePartitioner kd(schema, 4);
  std::vector<int> counts(4, 0);
  for (int64_t x = 0; x < 16; ++x) {
    for (int64_t y = 0; y < 16; ++y) {
      const NodeId n = kd.Locate({x, y});
      ASSERT_GE(n, 0);
      ASSERT_LT(n, 4);
      ++counts[static_cast<size_t>(n)];
    }
  }
  // Midpoint bootstrap on a 16x16 grid gives four 8x8 quadrants.
  for (int n = 0; n < 4; ++n) EXPECT_EQ(counts[static_cast<size_t>(n)], 64);
}

TEST(KdTreeTest, SplitsAtWeightedMedian) {
  const ArraySchema schema = TestSchema();
  cluster::Cluster cluster(1, 1.0);
  KdTreePartitioner kd(schema, 1);
  // All mass on the left quarter of the x axis.
  for (int64_t x = 0; x < 16; ++x) {
    for (int64_t y = 0; y < 16; ++y) {
      const int64_t bytes = x < 4 ? (1 << 20) : 1;
      const auto c = MakeChunk({x, y}, bytes);
      const NodeId n = kd.PlaceChunk(cluster, c);
      ASSERT_TRUE(cluster.PlaceChunk(c.coords, c.bytes, n).ok());
    }
  }
  cluster.AddNodes(1);
  ASSERT_TRUE(cluster.Apply(kd.PlanScaleOut(cluster, 1)).ok());
  // The median plane must fall inside the dense strip, not at the midpoint:
  // node 0 keeps x < split, node 1 takes the rest; loads should be close.
  const auto loads = cluster.NodeLoadsGb();
  EXPECT_NEAR(loads[0], loads[1], loads[0] * 0.75);
  // Dense strip is split: node 0 keeps only low-x chunks.
  EXPECT_EQ(kd.Locate({0, 0}), 0);
  EXPECT_EQ(kd.Locate({15, 15}), 1);
}

TEST(KdTreeTest, DepthGrowsLogarithmically) {
  const ArraySchema schema = TestSchema();
  KdTreePartitioner kd(schema, 8);
  // Power-of-two bootstrap: every leaf sits at depth 3.
  for (NodeId h = 0; h < 8; ++h) {
    EXPECT_EQ(kd.LeafDepth(h), 3);
  }
}

// -------------------------------------------------------- Incr. Quadtree --

TEST(QuadtreeTest, BootstrapAssignsSiblingCells) {
  const ArraySchema schema = TestSchema();
  QuadtreePartitioner qt(schema, 2);
  // Two hosts: root was quartered; host 1 received half of the quarters.
  EXPECT_EQ(qt.HostLevel(0), 1);
  EXPECT_EQ(qt.HostLevel(1), 1);
  EXPECT_EQ(qt.HostCellCount(0) + qt.HostCellCount(1), 4);
}

TEST(QuadtreeTest, EveryChunkIsLocatable) {
  const ArraySchema schema = TestSchema();
  QuadtreePartitioner qt(schema, 3);
  for (int64_t x = 0; x < 16; ++x) {
    for (int64_t y = 0; y < 16; ++y) {
      const NodeId n = qt.Locate({x, y});
      EXPECT_GE(n, 0);
      EXPECT_LT(n, 3);
    }
  }
}

TEST(QuadtreeTest, SkewSplitTargetsHotQuarter) {
  const ArraySchema schema = TestSchema();
  cluster::Cluster cluster(1, 1.0);
  QuadtreePartitioner qt(schema, 1);
  // Hot right half: the mass spreads over the two right quarters, so a
  // quarter (or adjacent pair) exists whose size is close to half.
  for (int64_t x = 0; x < 16; ++x) {
    for (int64_t y = 0; y < 16; ++y) {
      const int64_t bytes = x >= 8 ? (1 << 20) : 64;
      const auto c = MakeChunk({x, y}, bytes);
      const NodeId n = qt.PlaceChunk(cluster, c);
      ASSERT_TRUE(cluster.PlaceChunk(c.coords, c.bytes, n).ok());
    }
  }
  cluster.AddNodes(1);
  const auto plan = qt.PlanScaleOut(cluster, 1);
  EXPECT_TRUE(plan.OnlyToNodesAtOrAbove(1));
  ASSERT_TRUE(cluster.Apply(plan).ok());
  // The split subset should carry close to half the bytes.
  const auto loads = cluster.NodeLoadsGb();
  const double total = loads[0] + loads[1];
  EXPECT_GT(loads[1], total * 0.2);
  EXPECT_LT(loads[1], total * 0.8);
}

TEST(QuadtreeTest, ExtremePointSkewShipsTheHotQuarter) {
  // When one quarter holds essentially all bytes, "closest to half" selects
  // that quarter itself — the algorithm isolates the hotspot so the *next*
  // split can subdivide it further.
  const ArraySchema schema = TestSchema();
  cluster::Cluster cluster(1, 1.0);
  QuadtreePartitioner qt(schema, 1);
  for (int64_t x = 0; x < 16; ++x) {
    for (int64_t y = 0; y < 16; ++y) {
      const int64_t bytes = (x >= 12 && y >= 12) ? (1 << 20) : 64;
      const auto c = MakeChunk({x, y}, bytes);
      const NodeId n = qt.PlaceChunk(cluster, c);
      ASSERT_TRUE(cluster.PlaceChunk(c.coords, c.bytes, n).ok());
    }
  }
  cluster.AddNodes(1);
  ASSERT_TRUE(cluster.Apply(qt.PlanScaleOut(cluster, 1)).ok());
  // The hot corner now lives on the new node.
  EXPECT_EQ(qt.Locate({15, 15}), 1);
  EXPECT_EQ(qt.Locate({0, 0}), 0);
  // Two further splits drill down to the hotspot's own cell and finally
  // divide its mass roughly in half.
  cluster.AddNodes(1);
  ASSERT_TRUE(cluster.Apply(qt.PlanScaleOut(cluster, 2)).ok());
  cluster.AddNodes(1);
  ASSERT_TRUE(cluster.Apply(qt.PlanScaleOut(cluster, 3)).ok());
  const auto loads = cluster.NodeLoadsGb();
  const double total = loads[0] + loads[1] + loads[2] + loads[3];
  EXPECT_LT(util::Max(loads), total * 0.7);
}

// ---------------------------------------------------------- Uniform Range --

TEST(UniformRangeTest, LeavesAreGridSlots) {
  const ArraySchema schema = TestSchema();
  UniformRangePartitioner ur(schema, 3);
  EXPECT_EQ(ur.num_leaves(), 256u);
  std::set<uint64_t> leaves;
  for (int64_t x = 0; x < 16; ++x) {
    for (int64_t y = 0; y < 16; ++y) {
      leaves.insert(ur.LeafOf({x, y}));
    }
  }
  EXPECT_EQ(leaves.size(), 256u);  // Bijective on the padded grid.
}

ArraySchema LineSchema(int64_t extent) {
  return ArraySchema("line", {DimensionDesc{"x", 0, extent - 1, 1, false}},
                     {AttributeDesc{"v", AttrType::kDouble}});
}

TEST(UniformRangeTest, TreeHeightIsCeilLog2OfExtent) {
  // Extents 1..5 need 0, 1, 2, 2 and 3 bits.
  const uint64_t leaves[] = {1, 2, 4, 4, 8};
  for (int64_t extent = 1; extent <= 5; ++extent) {
    EXPECT_EQ(UniformRangePartitioner(LineSchema(extent), 1).num_leaves(),
              leaves[extent - 1])
        << "extent " << extent;
  }
  EXPECT_EQ(
      UniformRangePartitioner(LineSchema(int64_t{1} << 62), 1).num_leaves(),
      uint64_t{1} << 62);
}

TEST(UniformRangeDeathTest, ExtentAbove2To62FailsTheHeightCheck) {
  // 2^62 + 2 chunks need 63 bits: the height CHECK fires rather than the
  // bit count shifting by 64 and never ending.
  const ArraySchema schema = LineSchema((int64_t{1} << 62) + 2);
  EXPECT_DEATH(UniformRangePartitioner(schema, 1), "height_ <= 62");
}

TEST(UniformRangeTest, BlocksAreBalancedByLeafCount) {
  const ArraySchema schema = TestSchema();
  UniformRangePartitioner ur(schema, 3);
  std::vector<int> counts(3, 0);
  for (int64_t x = 0; x < 16; ++x) {
    for (int64_t y = 0; y < 16; ++y) {
      ++counts[static_cast<size_t>(ur.Locate({x, y}))];
    }
  }
  // 256 leaves over 3 hosts: 86/85/85.
  for (int n = 0; n < 3; ++n) {
    EXPECT_NEAR(counts[static_cast<size_t>(n)], 256.0 / 3.0, 1.0);
  }
}

TEST(UniformRangeTest, LeafOrderIsSpatial) {
  const ArraySchema schema = TestSchema();
  UniformRangePartitioner ur(schema, 2);
  // With 2 hosts the grid halves along the first split dimension: chunks
  // with x < 8 on host 0, x >= 8 on host 1.
  for (int64_t x = 0; x < 16; ++x) {
    for (int64_t y = 0; y < 16; ++y) {
      EXPECT_EQ(ur.Locate({x, y}), x < 8 ? 0 : 1);
    }
  }
}

TEST(UniformRangeTest, ScaleOutIsGlobalRebalance) {
  const ArraySchema schema = TestSchema();
  cluster::Cluster cluster(2, 1.0);
  UniformRangePartitioner ur(schema, 2);
  for (int64_t x = 0; x < 16; ++x) {
    for (int64_t y = 0; y < 16; ++y) {
      const auto c = MakeChunk({x, y}, 1000);
      const NodeId n = ur.PlaceChunk(cluster, c);
      ASSERT_TRUE(cluster.PlaceChunk(c.coords, c.bytes, n).ok());
    }
  }
  cluster.AddNodes(1);
  const auto plan = ur.PlanScaleOut(cluster, 2);
  // Going 2 -> 3 reassigns about a third of the grid, including moves
  // between preexisting nodes.
  EXPECT_GT(plan.num_chunks(), 40);
  EXPECT_FALSE(plan.OnlyToNodesAtOrAbove(2));
}

// ---------------------------------------------------------------- Factory --

TEST(FactoryTest, AllKindsConstruct) {
  const ArraySchema schema = TestSchema();
  for (const auto kind : AllPartitionerKinds()) {
    const auto p = MakePartitioner(kind, schema, 2, 100.0);
    ASSERT_NE(p, nullptr);
    EXPECT_STREQ(p->name(), PartitionerKindName(kind));
  }
}

TEST(FactoryTest, Table1FeatureTaxonomy) {
  const ArraySchema schema = TestSchema();
  const auto features = [&](PartitionerKind kind) {
    return MakePartitioner(kind, schema, 2, 100.0)->features();
  };
  // Table 1, row by row.
  EXPECT_EQ(features(PartitionerKind::kAppend),
            kIncrementalScaleOut | kSkewAware);
  EXPECT_EQ(features(PartitionerKind::kConsistentHash),
            kIncrementalScaleOut | kFineGrainedPartitioning);
  EXPECT_EQ(features(PartitionerKind::kExtendibleHash),
            kIncrementalScaleOut | kFineGrainedPartitioning | kSkewAware);
  EXPECT_EQ(features(PartitionerKind::kHilbertCurve),
            kIncrementalScaleOut | kSkewAware | kNDimensionalClustering);
  EXPECT_EQ(features(PartitionerKind::kIncrementalQuadtree),
            kIncrementalScaleOut | kSkewAware | kNDimensionalClustering);
  EXPECT_EQ(features(PartitionerKind::kKdTree),
            kIncrementalScaleOut | kSkewAware | kNDimensionalClustering);
  EXPECT_EQ(features(PartitionerKind::kRoundRobin), kFineGrainedPartitioning);
  EXPECT_EQ(features(PartitionerKind::kUniformRange),
            kNDimensionalClustering);
}

TEST(FeaturesToStringTest, Renders) {
  EXPECT_EQ(FeaturesToString(0), "none");
  EXPECT_EQ(FeaturesToString(kIncrementalScaleOut | kSkewAware),
            "incremental|skew-aware");
}

}  // namespace
}  // namespace arraydb::core

// Property sweep over every partitioner (TEST_P): invariants that must hold
// for all eight schemes regardless of data distribution —
//   * placement always targets a live node, and Locate agrees with the
//     cluster after every insert and scale-out;
//   * scale-out conserves all chunks and bytes;
//   * schemes advertising incremental scale-out (Table 1) only ship data to
//     newly added nodes, verified against the substrate;
//   * placement is deterministic across identical runs;
//   * fine-grained schemes balance chunk counts; skew-aware schemes reduce
//     the maximum node load when splitting under skew;
//   * every scheme's scale-out plans match digests recorded before the
//     planners were rewritten, and do not depend on insertion order.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "array/schema.h"
#include "cluster/cluster.h"
#include "core/elastic_engine.h"
#include "core/partitioner_factory.h"
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

enum class Skew { kUniform, kZipf };

struct SweepCase {
  PartitionerKind kind;
  Skew skew;
};

std::string CaseName(const testing::TestParamInfo<SweepCase>& info) {
  std::string name = PartitionerKindName(info.param.kind);
  for (auto& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  name += info.param.skew == Skew::kUniform ? "_uniform" : "_zipf";
  return name;
}

ArraySchema SweepSchema() {
  // 3-D grid shaped like the workloads: time x lon x lat.
  return ArraySchema("sweep",
                     {DimensionDesc{"t", 0, 11, 1, false},
                      DimensionDesc{"x", 0, 9, 1, false},
                      DimensionDesc{"y", 0, 7, 1, false}},
                     {AttributeDesc{"v", AttrType::kDouble}});
}

// Generates one time-slice batch with the requested skew. Bytes are sized
// so a 2-node x 0.02 GB cluster needs several scale-outs; `scale`
// multiplies chunk sizes for tests that need to fill more nodes.
std::vector<ChunkInfo> MakeBatch(int64_t t, Skew skew, util::Rng& rng,
                                 int64_t scale = 1) {
  std::vector<ChunkInfo> batch;
  for (int64_t x = 0; x < 10; ++x) {
    for (int64_t y = 0; y < 8; ++y) {
      ChunkInfo info;
      info.coords = {t, x, y};
      int64_t bytes;
      if (skew == Skew::kUniform) {
        bytes = 30000 + static_cast<int64_t>(rng.NextUniform(0, 5000));
      } else {
        // A hot corner holds most of the data (ships near a port).
        const bool hot = x <= 1 && y <= 1;
        bytes = hot ? 500000 + static_cast<int64_t>(rng.NextUniform(0, 100000))
                    : 200 + static_cast<int64_t>(rng.NextUniform(0, 400));
      }
      info.bytes = bytes * scale;
      info.cell_count = info.bytes / 8;
      batch.push_back(std::move(info));
    }
  }
  return batch;
}

class PartitionerSweep : public testing::TestWithParam<SweepCase> {};

// Runs the cyclic workload (insert, scale out every 4 cycles) and checks
// cross-cutting invariants at every step.
TEST_P(PartitionerSweep, InvariantsAcrossLifecycle) {
  const auto& param = GetParam();
  const ArraySchema schema = SweepSchema();
  const double capacity_gb = 0.02;
  ElasticEngine engine(MakePartitioner(param.kind, schema, 2, capacity_gb), 2,
                       capacity_gb);
  util::Rng rng(99);

  int64_t expected_chunks = 0;
  int64_t expected_bytes = 0;
  for (int64_t t = 0; t < 12; ++t) {
    const auto batch = MakeBatch(t, param.skew, rng);
    for (const auto& c : batch) expected_bytes += c.bytes;
    expected_chunks += static_cast<int64_t>(batch.size());

    const auto insert = engine.IngestBatch(batch);
    EXPECT_EQ(insert.chunks, static_cast<int64_t>(batch.size()));
    EXPECT_GT(insert.minutes, 0.0);

    // Locate must agree with the substrate for every chunk just inserted.
    for (const auto& c : batch) {
      EXPECT_EQ(engine.partitioner().Locate(c.coords),
                engine.cluster().OwnerOf(c.coords));
    }

    if (t == 3 || t == 7) {
      const auto reorg = engine.ScaleOut(2);
      if (engine.partitioner().IsIncremental()) {
        EXPECT_TRUE(reorg.only_to_new_nodes)
            << engine.partitioner().name()
            << " advertises incremental scale-out but moved data to "
               "preexisting nodes";
      }
      // Conservation.
      EXPECT_EQ(engine.cluster().num_chunks(), expected_chunks);
      EXPECT_EQ(engine.cluster().TotalBytes(), expected_bytes);
      // Table agreement after reorganization.
      for (const auto& rec : engine.cluster().AllChunks()) {
        EXPECT_EQ(engine.partitioner().Locate(rec.coords), rec.node);
      }
    }
  }
  EXPECT_EQ(engine.cluster().num_nodes(), 6);
  EXPECT_EQ(engine.cluster().num_chunks(), expected_chunks);
  EXPECT_EQ(engine.cluster().TotalBytes(), expected_bytes);

  // Every node id returned anywhere is valid; all loads non-negative.
  for (int n = 0; n < engine.cluster().num_nodes(); ++n) {
    EXPECT_GE(engine.cluster().NodeBytes(n), 0);
  }
}

TEST_P(PartitionerSweep, PlacementIsDeterministic) {
  const auto& param = GetParam();
  const ArraySchema schema = SweepSchema();
  std::map<Coordinates, NodeId> first_run;
  for (int run = 0; run < 2; ++run) {
    ElasticEngine engine(MakePartitioner(param.kind, schema, 2, 0.02), 2,
                         0.02);
    util::Rng rng(7);
    for (int64_t t = 0; t < 6; ++t) {
      engine.IngestBatch(MakeBatch(t, param.skew, rng));
      if (t == 2) engine.ScaleOut(2);
    }
    if (run == 0) {
      for (const auto& rec : engine.cluster().AllChunks()) {
        first_run[rec.coords] = rec.node;
      }
    } else {
      for (const auto& rec : engine.cluster().AllChunks()) {
        EXPECT_EQ(first_run.at(rec.coords), rec.node);
      }
    }
  }
}

TEST_P(PartitionerSweep, ScaleOutUsesNewNodes) {
  // After a scale-out with continued inserts, new nodes must eventually
  // hold data (no scheme may strand them). Chunks are scaled 4x so that
  // even Append — which uses new hosts only once its predecessors fill —
  // reaches them within the 12 cycles.
  const auto& param = GetParam();
  const ArraySchema schema = SweepSchema();
  ElasticEngine engine(MakePartitioner(param.kind, schema, 2, 0.02), 2, 0.02);
  util::Rng rng(3);
  for (int64_t t = 0; t < 4; ++t) {
    engine.IngestBatch(MakeBatch(t, param.skew, rng, 4));
  }
  engine.ScaleOut(2);
  for (int64_t t = 4; t < 12; ++t) {
    engine.IngestBatch(MakeBatch(t, param.skew, rng, 4));
  }
  int populated = 0;
  for (int n = 2; n < 4; ++n) {
    if (engine.cluster().NodeBytes(n) > 0) ++populated;
  }
  EXPECT_GT(populated, 0) << engine.partitioner().name()
                          << " never used its new nodes";
}

INSTANTIATE_TEST_SUITE_P(
    AllPartitioners, PartitionerSweep,
    testing::Values(
        SweepCase{PartitionerKind::kAppend, Skew::kUniform},
        SweepCase{PartitionerKind::kAppend, Skew::kZipf},
        SweepCase{PartitionerKind::kConsistentHash, Skew::kUniform},
        SweepCase{PartitionerKind::kConsistentHash, Skew::kZipf},
        SweepCase{PartitionerKind::kExtendibleHash, Skew::kUniform},
        SweepCase{PartitionerKind::kExtendibleHash, Skew::kZipf},
        SweepCase{PartitionerKind::kHilbertCurve, Skew::kUniform},
        SweepCase{PartitionerKind::kHilbertCurve, Skew::kZipf},
        SweepCase{PartitionerKind::kIncrementalQuadtree, Skew::kUniform},
        SweepCase{PartitionerKind::kIncrementalQuadtree, Skew::kZipf},
        SweepCase{PartitionerKind::kKdTree, Skew::kUniform},
        SweepCase{PartitionerKind::kKdTree, Skew::kZipf},
        SweepCase{PartitionerKind::kRoundRobin, Skew::kUniform},
        SweepCase{PartitionerKind::kRoundRobin, Skew::kZipf},
        SweepCase{PartitionerKind::kUniformRange, Skew::kUniform},
        SweepCase{PartitionerKind::kUniformRange, Skew::kZipf}),
    CaseName);

// Cross-scheme comparative properties (not parameterized): the paper's
// qualitative claims about balance.
TEST(PartitionerComparison, FineGrainedSchemesBalanceBetterUnderSkew) {
  const ArraySchema schema = SweepSchema();
  std::map<PartitionerKind, double> rsd;
  for (const auto kind : AllPartitionerKinds()) {
    ElasticEngine engine(MakePartitioner(kind, schema, 2, 0.02), 2, 0.02);
    util::Rng rng(123);
    for (int64_t t = 0; t < 12; ++t) {
      engine.IngestBatch(MakeBatch(t, Skew::kZipf, rng));
      if (t == 3 || t == 7) engine.ScaleOut(2);
    }
    rsd[kind] = engine.cluster().LoadRsd();
  }
  // §6.2.1: the fine-grained group (Round Robin, Extendible, Consistent)
  // averages far lower RSD than the range group under skew.
  const double fine = (rsd[PartitionerKind::kRoundRobin] +
                       rsd[PartitionerKind::kExtendibleHash] +
                       rsd[PartitionerKind::kConsistentHash]) /
                      3.0;
  const double range = (rsd[PartitionerKind::kUniformRange] +
                        rsd[PartitionerKind::kAppend]) /
                       2.0;
  EXPECT_LT(fine, range);
}

TEST(PartitionerComparison, SkewAwareSplittersReduceMaxLoad) {
  const ArraySchema schema = SweepSchema();
  for (const auto kind :
       {PartitionerKind::kKdTree, PartitionerKind::kHilbertCurve,
        PartitionerKind::kExtendibleHash}) {
    ElasticEngine engine(MakePartitioner(kind, schema, 2, 0.02), 2, 0.02);
    util::Rng rng(55);
    for (int64_t t = 0; t < 8; ++t) {
      engine.IngestBatch(MakeBatch(t, Skew::kZipf, rng));
    }
    const double max_before = util::Max(engine.cluster().NodeLoadsGb());
    engine.ScaleOut(2);
    const double max_after = util::Max(engine.cluster().NodeLoadsGb());
    EXPECT_LT(max_after, max_before)
        << PartitionerKindName(kind)
        << " did not reduce the hottest node when splitting";
  }
}

// -------------------------------------------------------- Plan digests --

// FNV-1a over the eight bytes of `word`, little end first.
uint64_t FnvMix(uint64_t h, uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    h ^= (word >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// Places a seeded, skewed population of about 6k chunks on a 3-D grid
// (in generation order, or reversed), then scales out from 2 to 12 nodes by
// +1 and +2 steps, applying each plan. Returns one FNV-1a digest over every
// plan's size and moves (coords, bytes, from, to) in plan order.
uint64_t ScaleOutDigest(PartitionerKind kind, int growth_dim, bool reversed) {
  const ArraySchema schema("digest",
                           {DimensionDesc{"t", 0, 23, 1, false},
                            DimensionDesc{"x", 0, 31, 1, false},
                            DimensionDesc{"y", 0, 15, 1, false}},
                           {AttributeDesc{"v", AttrType::kDouble}});
  util::Rng rng(2026);
  std::vector<ChunkInfo> chunks;
  for (int64_t t = 0; t < 24; ++t) {
    for (int64_t x = 0; x < 32; ++x) {
      for (int64_t y = 0; y < 16; ++y) {
        if (rng.NextDouble() < 0.5) continue;
        // A hot corner and a hot late stretch carry most of the bytes.
        const bool hot = (x < 6 && y < 4) || (t >= 18 && x >= 24);
        ChunkInfo info;
        info.coords = {t, x, y};
        info.bytes = (hot ? 400000 : 2000) +
                     static_cast<int64_t>(rng.NextBounded(hot ? 200000 : 6000));
        info.cell_count = info.bytes / 8;
        chunks.push_back(std::move(info));
      }
    }
  }
  if (reversed) std::reverse(chunks.begin(), chunks.end());

  cluster::Cluster cluster(2, 1.0);
  const auto partitioner = MakePartitioner(kind, schema, 2, 1.0, growth_dim);
  for (const auto& c : chunks) {
    const NodeId node = partitioner->PlaceChunk(cluster, c);
    EXPECT_TRUE(cluster.PlaceChunk(c.coords, c.bytes, node).ok());
  }
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const int step : {1, 2, 1, 2, 2, 1, 1}) {
    const int old_count = cluster.num_nodes();
    cluster.AddNodes(step);
    const cluster::MovePlan plan =
        partitioner->PlanScaleOut(cluster, old_count);
    h = FnvMix(h, static_cast<uint64_t>(plan.num_chunks()));
    for (const auto& m : plan.moves()) {
      for (const int64_t v : m.coords) h = FnvMix(h, static_cast<uint64_t>(v));
      h = FnvMix(h, static_cast<uint64_t>(m.bytes));
      h = FnvMix(h, static_cast<uint64_t>(m.from));
      h = FnvMix(h, static_cast<uint64_t>(m.to));
    }
    EXPECT_TRUE(cluster.Apply(plan).ok());
  }
  EXPECT_EQ(cluster.num_nodes(), 12);
  EXPECT_EQ(cluster.num_chunks(), static_cast<int64_t>(chunks.size()));
  return h;
}

// Plan digests recorded before every planner was rewritten to read one
// sorted placement snapshot: each plan must stay byte-identical, with and
// without a growth dimension, whatever order the chunks arrived in.
TEST(PartitionerPropertyTest, ScaleOutPlansMatchRecordedDigests) {
  using K = PartitionerKind;
  constexpr int kFull = SpatialProjection::kNone;
  const std::vector<std::tuple<PartitionerKind, int, uint64_t>> recorded = {
      {K::kAppend, kFull, 0x8ac123d6f7dce585ULL},
      {K::kAppend, 0, 0x8ac123d6f7dce585ULL},
      {K::kConsistentHash, kFull, 0x53ca4a68daeba7eeULL},
      {K::kConsistentHash, 0, 0x53ca4a68daeba7eeULL},
      {K::kExtendibleHash, kFull, 0xffbf633626dafc2bULL},
      {K::kExtendibleHash, 0, 0xffbf633626dafc2bULL},
      {K::kHilbertCurve, kFull, 0x86055c2eb7a3a747ULL},
      {K::kHilbertCurve, 0, 0xbc14e5f038ce82eaULL},
      {K::kIncrementalQuadtree, kFull, 0xc67ecaedd0c9df9eULL},
      {K::kIncrementalQuadtree, 0, 0xf0274b120235e8d7ULL},
      {K::kKdTree, kFull, 0x7d88555d33409243ULL},
      {K::kKdTree, 0, 0x17992775e9a91e61ULL},
      {K::kRoundRobin, kFull, 0x551aaaeaaf284599ULL},
      {K::kRoundRobin, 0, 0x551aaaeaaf284599ULL},
      {K::kUniformRange, kFull, 0x437756e40aaf9eb4ULL},
      {K::kUniformRange, 0, 0xb512dda05c8b4fc3ULL},
  };
  for (const auto& [kind, growth_dim, digest] : recorded) {
    for (const bool reversed : {false, true}) {
      EXPECT_EQ(ScaleOutDigest(kind, growth_dim, reversed), digest)
          << PartitionerKindName(kind) << " growth_dim=" << growth_dim
          << (reversed ? " (reversed)" : "") << " digest 0x" << std::hex
          << ScaleOutDigest(kind, growth_dim, reversed);
    }
  }
}

}  // namespace
}  // namespace arraydb::core

// Unit tests for the reference operator implementations: real answers on
// small materialized arrays.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "array/array.h"
#include "exec/operators.h"
#include "util/rng.h"

namespace arraydb::exec {
namespace {

using array::Array;
using array::ArraySchema;
using array::AttrType;
using array::AttributeDesc;
using array::Coordinates;
using array::DimensionDesc;

// 2-D array with one double attribute on an 8x8 grid, 2x2 chunks.
Array MakeGridArray() {
  ArraySchema schema("g",
                     {DimensionDesc{"x", 0, 7, 2, false},
                      DimensionDesc{"y", 0, 7, 2, false}},
                     {AttributeDesc{"v", AttrType::kDouble}});
  Array a(std::move(schema));
  for (int64_t x = 0; x < 8; ++x) {
    for (int64_t y = 0; y < 8; ++y) {
      // v = 10x + y, every cell occupied.
      EXPECT_TRUE(
          a.InsertCell({x, y}, {static_cast<double>(10 * x + y)}).ok());
    }
  }
  return a;
}

TEST(FilterTest, BoxSelectsExactCells) {
  const Array a = MakeGridArray();
  CellBox box{{2, 3}, {4, 5}};
  const auto cells = FilterBoxSpans(a, box).Materialize();
  EXPECT_EQ(cells.size(), 9u);  // 3 x 3 box.
  for (const auto& cell : cells) {
    EXPECT_GE(cell.pos[0], 2);
    EXPECT_LE(cell.pos[0], 4);
    EXPECT_GE(cell.pos[1], 3);
    EXPECT_LE(cell.pos[1], 5);
  }
  // Sorted by position; first is (2,3) with value 23.
  EXPECT_DOUBLE_EQ(cells[0].values[0], 23.0);
}

TEST(FilterTest, EmptyBoxYieldsNothing) {
  const Array a = MakeGridArray();
  CellBox outside{{20, 20}, {30, 30}};
  EXPECT_TRUE(FilterBoxSpans(a, outside).Materialize().empty());
}

TEST(FilterTest, SpanViewMatchesMaterializedResult) {
  const Array a = MakeGridArray();
  CellBox box{{2, 3}, {4, 5}};
  const FilterBoxView view = FilterBoxSpans(a, box);
  EXPECT_EQ(view.num_cells(), 9);
  EXPECT_FALSE(view.empty());
  // The Cell adapter yields one sorted Cell per selected cell.
  const auto materialized = view.Materialize();
  ASSERT_EQ(materialized.size(), 9u);
  for (size_t i = 1; i < materialized.size(); ++i) {
    EXPECT_TRUE(array::CoordinatesLess(materialized[i - 1].pos,
                                       materialized[i].pos));
  }
  // Span iteration reads columns without materializing Cells: the sum over
  // the view equals the sum over the value results.
  double view_sum = 0.0;
  view.ForEachCell([&view_sum](const array::Chunk& chunk, size_t i) {
    view_sum += chunk.attr_value(0, i);
  });
  double cell_sum = 0.0;
  for (const auto& cell : materialized) cell_sum += cell.values[0];
  EXPECT_DOUBLE_EQ(view_sum, cell_sum);
}

TEST(FilterTest, SpanViewCoalescesConsecutiveMatches) {
  // 1-D array, one chunk, cells 0..7 in insertion order; box [2,5] is one
  // contiguous run of four cells.
  ArraySchema schema("s", {DimensionDesc{"x", 0, 7, 8, false}},
                     {AttributeDesc{"v", AttrType::kDouble}});
  Array a(std::move(schema));
  for (int64_t x = 0; x < 8; ++x) {
    ASSERT_TRUE(a.InsertCell({x}, {static_cast<double>(x)}).ok());
  }
  const FilterBoxView view = FilterBoxSpans(a, CellBox{{2}, {5}});
  ASSERT_EQ(view.chunks().size(), 1u);
  ASSERT_EQ(view.chunks()[0].spans.size(), 1u);
  EXPECT_EQ(view.chunks()[0].spans[0].first, 2u);
  EXPECT_EQ(view.chunks()[0].spans[0].second, 6u);
  EXPECT_EQ(view.num_cells(), 4);
}

TEST(FilterTest, SpanViewDropsFullyFilteredChunks) {
  const Array a = MakeGridArray();
  // Box covering a single cell: only that cell's chunk survives.
  const FilterBoxView view = FilterBoxSpans(a, CellBox{{0, 0}, {0, 0}});
  ASSERT_EQ(view.chunks().size(), 1u);
  EXPECT_EQ(view.num_cells(), 1);
  // Nothing matches: no chunk entries at all.
  EXPECT_TRUE(FilterBoxSpans(a, CellBox{{20, 20}, {30, 30}}).chunks().empty());
}

TEST(FilterTest, PrunesByChunk) {
  // Sparse array: only one chunk occupied; box over another chunk.
  ArraySchema schema("s", {DimensionDesc{"x", 0, 99, 10, false}},
                     {AttributeDesc{"v", AttrType::kDouble}});
  Array a(std::move(schema));
  ASSERT_TRUE(a.InsertCell({5}, {1.0}).ok());
  EXPECT_TRUE(FilterBoxSpans(a, CellBox{{50}, {60}}).empty());
  EXPECT_EQ(FilterBoxSpans(a, CellBox{{0}, {9}}).num_cells(), 1);
}

// -- Broad phase: the directory skip-scan against brute force ---------------

// Highest cell coordinate the random arrays use on `dim`.
int64_t TopOf(const DimensionDesc& dim) {
  return dim.unbounded ? dim.lo + 60 : dim.hi;
}

// `cells` random cells inserted in random order (so the directory takes
// middle inserts, not only appends), plus up to `synthetic` metadata-only
// chunks on grid slots that hold no cells.
Array MakeRandomArray(const std::vector<DimensionDesc>& dims, int cells,
                      int synthetic, uint64_t seed) {
  util::Rng rng(seed);
  Array a(ArraySchema("r", dims, {AttributeDesc{"v", AttrType::kDouble}}));
  const auto pick = [&rng](int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(
                    rng.NextBounded(static_cast<uint64_t>(hi - lo + 1)));
  };
  Coordinates pos(dims.size());
  for (int i = 0; i < cells; ++i) {
    for (size_t d = 0; d < dims.size(); ++d) {
      pos[d] = pick(dims[d].lo, TopOf(dims[d]));
    }
    EXPECT_TRUE(a.InsertCell(pos, {static_cast<double>(i)}).ok());
  }
  for (int i = 0; i < synthetic; ++i) {
    for (size_t d = 0; d < dims.size(); ++d) {
      pos[d] = pick(0, dims[d].ChunkIndexOf(TopOf(dims[d])));
    }
    if (a.FindChunk(pos) != nullptr) continue;
    array::ChunkInfo info;
    info.coords = pos;
    info.cell_count = 7;
    info.bytes = 56;
    EXPECT_TRUE(a.AddSyntheticChunk(info).ok());
  }
  return a;
}

// The selected positions in the order a full scan of AllCells() visits
// them: chunks in directory order, cells in insertion order.
std::vector<Coordinates> BrutePositions(const Array& a, const CellBox& box) {
  std::vector<Coordinates> out;
  for (const array::Cell& cell : a.AllCells()) {
    if (box.Contains(cell.pos)) out.push_back(cell.pos);
  }
  return out;
}

std::vector<Coordinates> ViewPositions(const FilterBoxView& view) {
  std::vector<Coordinates> out;
  view.ForEachCell([&out](const array::Chunk& chunk, size_t i) {
    out.push_back(chunk.MaterializeCell(i).pos);
  });
  return out;
}

void ExpectMatchesBruteForce(const Array& a, const CellBox& box) {
  const std::vector<Coordinates> want = BrutePositions(a, box);
  const FilterBoxView view = FilterBoxSpans(a, box);
  EXPECT_EQ(ViewPositions(view), want);
  EXPECT_EQ(view.num_cells(), static_cast<int64_t>(want.size()));
  EXPECT_EQ(FilterBoxCount(a, box), static_cast<int64_t>(want.size()));
}

TEST(BroadPhaseTest, SkipScanMatchesBruteForce) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  const std::vector<std::vector<DimensionDesc>> schemas = {
      // Rank 1 with a negative origin.
      {DimensionDesc{"x", -50, 400, 7, false}},
      // Rank 4 with an unbounded leading dimension; every interval > 1.
      {DimensionDesc{"t", 0, 0, 3, true}, DimensionDesc{"x", -8, 30, 4, false},
       DimensionDesc{"y", 0, 19, 5, false},
       DimensionDesc{"z", 10, 25, 2, false}},
  };
  uint64_t seed = 17;
  for (const auto& dims : schemas) {
    const size_t ndims = dims.size();
    const Array a = MakeRandomArray(dims, /*cells=*/ndims == 1 ? 150 : 600,
                                    /*synthetic=*/40, ++seed);
    SCOPED_TRACE("rank " + std::to_string(ndims));
    Coordinates lo(ndims);
    Coordinates hi(ndims);
    const auto with = [&](auto&& set_dim) {
      for (size_t d = 0; d < ndims; ++d) set_dim(d, dims[d]);
      ExpectMatchesBruteForce(a, CellBox{lo, hi});
    };
    // The whole array, up to the int64 extremes.
    with([&](size_t d, const DimensionDesc&) {
      lo[d] = kMin;
      hi[d] = kMax;
    });
    // Straddling the declared lo, and the highest stored coordinate.
    with([&](size_t d, const DimensionDesc& dim) {
      lo[d] = dim.lo - 3;
      hi[d] = dim.lo + 5;
    });
    with([&](size_t d, const DimensionDesc& dim) {
      lo[d] = TopOf(dim) - 5;
      hi[d] = TopOf(dim) + 3;
    });
    for (size_t out = 0; out < ndims; ++out) {
      // Fully outside the grid on one dimension, below and above.
      with([&](size_t d, const DimensionDesc& dim) {
        lo[d] = d == out ? kMin : dim.lo;
        hi[d] = d == out ? dim.lo - 1 : kMax;
      });
      with([&](size_t d, const DimensionDesc& dim) {
        lo[d] = d == out ? TopOf(dim) + 1 : kMin;
        hi[d] = kMax;
      });
      // Inverted on one dimension.
      with([&](size_t d, const DimensionDesc& dim) {
        lo[d] = d == out ? dim.lo + 4 : dim.lo;
        hi[d] = d == out ? dim.lo + 2 : TopOf(dim);
      });
    }
    // One cell: every stored position of a few chunks.
    for (const array::Cell& cell : a.AllCells()) {
      if (cell.values[0] >= 20) continue;
      ExpectMatchesBruteForce(a, CellBox{cell.pos, cell.pos});
    }
    // Random boxes, a few of them inverted, reaching past both grid ends.
    util::Rng rng(seed);
    for (int trial = 0; trial < 300; ++trial) {
      with([&](size_t d, const DimensionDesc& dim) {
        const uint64_t width = static_cast<uint64_t>(TopOf(dim) - dim.lo + 21);
        int64_t u = dim.lo - 10 + static_cast<int64_t>(rng.NextBounded(width));
        int64_t v = dim.lo - 10 + static_cast<int64_t>(rng.NextBounded(width));
        if (u > v && rng.NextBounded(10) != 0) std::swap(u, v);
        lo[d] = u;
        hi[d] = v;
      });
    }
  }
}

TEST(BroadPhaseTest, EmptyAndSyntheticOnlyArraysSelectNothing) {
  const std::vector<DimensionDesc> dims = {
      DimensionDesc{"x", 0, 99, 10, false},
      DimensionDesc{"y", 0, 99, 10, false}};
  const Array empty = MakeRandomArray(dims, /*cells=*/0, /*synthetic=*/0, 3);
  const Array synthetic =
      MakeRandomArray(dims, /*cells=*/0, /*synthetic=*/30, 3);
  ASSERT_GT(synthetic.num_chunks(), 0);
  for (const Array* a : {&empty, &synthetic}) {
    EXPECT_EQ(FilterBoxCount(*a, CellBox{{0, 0}, {99, 99}}), 0);
    EXPECT_TRUE(FilterBoxSpans(*a, CellBox{{0, 0}, {99, 99}}).empty());
    // A box of the wrong rank is only checked against stored cells.
    EXPECT_EQ(FilterBoxCount(*a, CellBox{{0}, {99}}), 0);
  }
}

TEST(BroadPhaseDeathTest, WrongRankBoxAbortsWhenCellsAreStored) {
  const Array a = MakeGridArray();
  EXPECT_DEATH(FilterBoxCount(a, CellBox{{0}, {7}}), "");
  EXPECT_DEATH(FilterBoxSpans(a, CellBox{{0, 0, 0}, {7, 7, 7}}), "");
}

TEST(QuantileTest, MedianOfKnownValues) {
  const Array a = MakeGridArray();  // Values 0..77, uniform-ish.
  const auto median = AttrQuantile(a, 0, 0.5);
  ASSERT_TRUE(median.ok());
  // Values are {10x+y}: sorted median of the 64 values is 38.5.
  EXPECT_NEAR(*median, 38.5, 1e-9);
  const auto min = AttrQuantile(a, 0, 0.0);
  EXPECT_DOUBLE_EQ(*min, 0.0);
  const auto max = AttrQuantile(a, 0, 1.0);
  EXPECT_DOUBLE_EQ(*max, 77.0);
}

TEST(QuantileTest, RejectsBadArguments) {
  const Array a = MakeGridArray();
  EXPECT_FALSE(AttrQuantile(a, 5, 0.5).ok());
  EXPECT_FALSE(AttrQuantile(a, 0, 1.5).ok());
  EXPECT_FALSE(AttrQuantile(a, -1, 0.5).ok());
  EXPECT_EQ(AttrQuantile(a, 0, std::nan("")).status().code(),
            util::StatusCode::kInvalidArgument);
}

TEST(QuantileTest, SelectionMatchesSortPathOnRandomData) {
  // Property: the nth_element selection path is bit-identical to the
  // retired materialize-and-sort path for any q — an order statistic is a
  // value property of the multiset, independent of how it is found. Random
  // values with deliberate duplicates stress tie handling.
  util::Rng rng(417);
  ArraySchema schema("q",
                     {DimensionDesc{"x", 0, 63, 4, false},
                      DimensionDesc{"y", 0, 63, 4, false}},
                     {AttributeDesc{"v", AttrType::kDouble}});
  Array a(std::move(schema));
  std::vector<double> values;
  for (int i = 0; i < 700; ++i) {
    const auto x = static_cast<int64_t>(rng.NextBounded(64));
    const auto y = static_cast<int64_t>(rng.NextBounded(64));
    // Coarse value lattice: ~70 distinct values over 700 draws.
    const double v =
        static_cast<double>(rng.NextBounded(70)) / 7.0 - 5.0;
    if (a.InsertCell({x, y}, {v}).ok()) values.push_back(v);
  }
  ASSERT_GT(values.size(), 100u);
  std::sort(values.begin(), values.end());
  const auto sort_path = [&values](double q) {
    const double pos = q * static_cast<double>(values.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] * (1.0 - frac) + values[hi] * frac;
  };
  for (int i = 0; i <= 40; ++i) {
    const double q = static_cast<double>(i) / 40.0;  // Hits exact indices.
    const auto got = AttrQuantile(a, 0, q);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, sort_path(q)) << "q=" << q;
  }
  for (int trial = 0; trial < 50; ++trial) {
    const double q =
        static_cast<double>(rng.NextBounded(1000000)) / 999999.0;
    const auto got = AttrQuantile(a, 0, q);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, sort_path(q)) << "q=" << q;
  }
}

TEST(DimJoinTest, CountsSharedPositions) {
  ArraySchema schema("a", {DimensionDesc{"x", 0, 9, 2, false}},
                     {AttributeDesc{"v", AttrType::kDouble}});
  Array a(schema);
  Array b(schema);
  for (int64_t x = 0; x < 10; ++x) {
    ASSERT_TRUE(a.InsertCell({x}, {1.0}).ok());
  }
  for (int64_t x = 5; x < 10; ++x) {
    ASSERT_TRUE(b.InsertCell({x}, {2.0}).ok());
  }
  EXPECT_EQ(DimJoinCount(a, b), 5);
  EXPECT_EQ(DimJoinCount(b, a), 5);  // Symmetric.
}

TEST(DimJoinTest, DisjointArraysJoinEmpty) {
  ArraySchema schema("a", {DimensionDesc{"x", 0, 9, 2, false}},
                     {AttributeDesc{"v", AttrType::kDouble}});
  Array a(schema);
  Array b(schema);
  ASSERT_TRUE(a.InsertCell({0}, {1.0}).ok());
  ASSERT_TRUE(b.InsertCell({9}, {1.0}).ok());
  EXPECT_EQ(DimJoinCount(a, b), 0);
}

TEST(AttrJoinTest, MatchesKeySet) {
  const Array a = MakeGridArray();
  // Keys are v values: 0, 10, 77 exist; 99 does not.
  EXPECT_EQ(AttrJoinCount(a, 0, {0, 10, 77, 99}), 3);
  EXPECT_EQ(AttrJoinCount(a, 0, {}), 0);
}

TEST(AttrJoinTest, FractionalValuesKeyByNearestInteger) {
  // The join key is llround(value): nearest integer, ties away from zero —
  // NOT truncation. -0.6 keys as -1 (truncation would give 0), 2.5 as 3.
  ArraySchema schema("f", {DimensionDesc{"x", 0, 7, 4, false}},
                     {AttributeDesc{"v", AttrType::kDouble}});
  Array a(std::move(schema));
  const std::vector<double> values = {-1.5, -0.6, -0.4, 0.4, 0.6, 2.5};
  for (size_t i = 0; i < values.size(); ++i) {
    ASSERT_TRUE(
        a.InsertCell({static_cast<int64_t>(i)}, {values[i]}).ok());
  }
  EXPECT_EQ(AttrJoinCount(a, 0, {-2}), 1);  // -1.5 rounds away from zero.
  EXPECT_EQ(AttrJoinCount(a, 0, {-1}), 1);  // -0.6.
  EXPECT_EQ(AttrJoinCount(a, 0, {0}), 2);   // -0.4 and 0.4.
  EXPECT_EQ(AttrJoinCount(a, 0, {1}), 1);   // 0.6.
  EXPECT_EQ(AttrJoinCount(a, 0, {3}), 1);   // 2.5 rounds away from zero.
  EXPECT_EQ(AttrJoinCount(a, 0, {2}), 0);   // Nothing truncates to 2.
}

TEST(GroupByTest, BinsSumCorrectly) {
  const Array a = MakeGridArray();
  // Bin 4x8: two bins along x (x in 0..3 and 4..7), one along y.
  const auto groups = GroupBySum(a, {4, 8}, 0);
  ASSERT_EQ(groups.size(), 2u);
  // Sum over x=0..3,y=0..7 of 10x+y: 32 cells, sum = 10*(0+1+2+3)*8 + 28*4.
  EXPECT_DOUBLE_EQ(groups.at({0, 0}), 10.0 * 6 * 8 + 28.0 * 4);
  EXPECT_DOUBLE_EQ(groups.at({4, 0}), 10.0 * 22 * 8 + 28.0 * 4);
}

TEST(GroupByTest, BinOriginsNearInt64MinSaturate) {
  // x in [INT64_MIN + 1, -1], bins of 3: the multiple of 3 at or below
  // INT64_MIN + 1 is INT64_MIN - 1, so that cell's bin saturates to
  // INT64_MIN; INT64_MIN + 2 is itself a multiple of 3.
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  const ArraySchema schema(
      "low", {DimensionDesc{"x", kMin + 1, -1, 4, false}},
      {AttributeDesc{"v", AttrType::kDouble}});
  ASSERT_TRUE(schema.Validate().ok());
  Array a(schema);
  ASSERT_TRUE(a.InsertCell({kMin + 1}, {1.0}).ok());
  ASSERT_TRUE(a.InsertCell({kMin + 2}, {2.0}).ok());
  ASSERT_TRUE(a.InsertCell({kMin + 4}, {4.0}).ok());
  ASSERT_TRUE(a.InsertCell({-1}, {8.0}).ok());
  const std::map<Coordinates, double> want = {
      {{kMin}, 1.0}, {{kMin + 2}, 6.0}, {{-3}, 8.0}};
  EXPECT_EQ(GroupBySum(a, {3}, 0), want);
  // A chunk whose cells all share the saturated bin takes the one-bin
  // fast path.
  Array alone(schema);
  ASSERT_TRUE(alone.InsertCell({kMin + 1}, {1.0}).ok());
  EXPECT_EQ(GroupBySum(alone, {3}, 0),
            (std::map<Coordinates, double>{{{kMin}, 1.0}}));
}

TEST(WindowTest, AverageAtInteriorCell) {
  const Array a = MakeGridArray();
  // Radius-1 window around (3,3): 9 values 10x+y for x,y in 2..4.
  const auto avg = WindowAverageAt(a, 0, {3, 3}, 1);
  ASSERT_TRUE(avg.ok());
  EXPECT_NEAR(*avg, 33.0, 1e-9);  // Mean of 10x+y over the box = 10*3+3.
}

TEST(WindowTest, EdgeCellsUseSmallerWindows) {
  const Array a = MakeGridArray();
  // Corner (0,0): window covers x,y in 0..1 -> mean of {0,1,10,11} = 5.5.
  const auto avg = WindowAverageAt(a, 0, {0, 0}, 1);
  ASSERT_TRUE(avg.ok());
  EXPECT_NEAR(*avg, 5.5, 1e-9);
}

TEST(WindowTest, RadiusZeroIsIdentity) {
  const Array a = MakeGridArray();
  const auto avg = WindowAverageAt(a, 0, {5, 2}, 0);
  ASSERT_TRUE(avg.ok());
  EXPECT_DOUBLE_EQ(*avg, 52.0);
}

TEST(WindowTest, OverflowingWindowVolumeIsInvalidArgument) {
  const Array a = MakeGridArray();
  // (2r+1)^2 no longer fits in int64 for either radius.
  for (const int64_t radius : {int64_t{3'037'000'500},
                               std::numeric_limits<int64_t>::max()}) {
    const auto avg = WindowAverageAt(a, 0, {3, 3}, radius);
    EXPECT_FALSE(avg.ok()) << radius;
    EXPECT_EQ(avg.status().code(), util::StatusCode::kInvalidArgument);
  }
  // The largest radius whose volume fits covers the whole grid.
  const auto all = WindowAverageAt(a, 0, {3, 3}, 1'518'500'249);
  ASSERT_TRUE(all.ok());
  EXPECT_NEAR(*all, 38.5, 1e-9);
  EXPECT_DEATH(WindowAverageAll(a, 0, std::numeric_limits<int64_t>::max()),
               "CHECK");
}

TEST(WindowTest, PositionRankMismatchIsInvalidArgument) {
  const Array a = MakeGridArray();
  EXPECT_EQ(WindowAverageAt(a, 0, {3}, 1).status().code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_EQ(WindowAverageAt(a, 0, {3, 3, 3}, 1).status().code(),
            util::StatusCode::kInvalidArgument);
}

TEST(WindowTest, AllCellsProducesSmoothField) {
  const Array a = MakeGridArray();
  const auto field = WindowAverageAll(a, 0, 1);
  EXPECT_EQ(field.size(), 64u);
  // Smoothing preserves the global mean for a linear field's interior but
  // shifts edges; just check order and sane range.
  for (const auto& [pos, value] : field) {
    EXPECT_GE(value, 0.0);
    EXPECT_LE(value, 77.0);
  }
}

TEST(KMeansTest, SeparatesObviousClusters) {
  std::vector<std::vector<double>> points;
  for (int i = 0; i < 50; ++i) {
    points.push_back({0.0 + 0.01 * i, 0.0});
    points.push_back({100.0 + 0.01 * i, 0.0});
  }
  const auto clusters = KMeans(points, 2, 50, 7);
  ASSERT_TRUE(clusters.ok());
  const KMeansResult& result = *clusters;
  ASSERT_EQ(result.centroids.size(), 2u);
  const double c0 = result.centroids[0][0];
  const double c1 = result.centroids[1][0];
  EXPECT_NEAR(std::min(c0, c1), 0.25, 0.5);
  EXPECT_NEAR(std::max(c0, c1), 100.25, 0.5);
  // Every point assigned to its nearby centroid -> small inertia.
  EXPECT_LT(result.inertia, 10.0);
}

TEST(KMeansTest, DeterministicForSeed) {
  std::vector<std::vector<double>> points;
  for (int i = 0; i < 60; ++i) {
    points.push_back({static_cast<double>(i % 7), static_cast<double>(i % 11)});
  }
  const auto a = KMeans(points, 3, 20, 42);
  const auto b = KMeans(points, 3, 20, 42);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->assignment, b->assignment);
  EXPECT_EQ(a->centroids, b->centroids);
}

TEST(KMeansTest, KEqualsPointsIsPerfect) {
  std::vector<std::vector<double>> points = {{0.0}, {10.0}, {20.0}};
  const auto result = KMeans(points, 3, 10, 1);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->inertia, 0.0, 1e-12);
}

TEST(KMeansTest, RejectsNonPositiveK) {
  const std::vector<std::vector<double>> points = {{0.0}, {1.0}};
  EXPECT_EQ(KMeans(points, 0, 10, 1).status().code(),
            util::StatusCode::kInvalidArgument);
}

TEST(KMeansTest, RejectsEmptyPoints) {
  EXPECT_EQ(KMeans({}, 1, 10, 1).status().code(),
            util::StatusCode::kInvalidArgument);
}

TEST(KMeansTest, RejectsMoreClustersThanPoints) {
  const std::vector<std::vector<double>> points = {{0.0}, {1.0}};
  EXPECT_EQ(KMeans(points, 3, 10, 1).status().code(),
            util::StatusCode::kInvalidArgument);
}

TEST(KMeansTest, RejectsPointsOfUnequalLength) {
  const std::vector<std::vector<double>> points = {{0.0, 0.0}, {1.0}};
  EXPECT_EQ(KMeans(points, 1, 10, 1).status().code(),
            util::StatusCode::kInvalidArgument);
}

TEST(KnnTest, DenseClusterHasSmallDistances) {
  ArraySchema schema("k",
                     {DimensionDesc{"x", 0, 63, 4, false},
                      DimensionDesc{"y", 0, 63, 4, false}},
                     {AttributeDesc{"v", AttrType::kDouble}});
  Array dense(schema);
  Array sparse(schema);
  // Dense: 8x8 block of adjacent cells. Sparse: every 8th cell.
  for (int64_t x = 0; x < 8; ++x) {
    for (int64_t y = 0; y < 8; ++y) {
      ASSERT_TRUE(dense.InsertCell({x, y}, {1.0}).ok());
      ASSERT_TRUE(sparse.InsertCell({x * 8, y * 8}, {1.0}).ok());
    }
  }
  const auto d_dense = KnnAverageDistance(dense, 4, 16, 3);
  const auto d_sparse = KnnAverageDistance(sparse, 4, 16, 3);
  ASSERT_TRUE(d_dense.ok());
  ASSERT_TRUE(d_sparse.ok());
  EXPECT_LT(*d_dense * 4.0, *d_sparse);
}

TEST(KnnTest, RejectsDegenerateInputs) {
  ArraySchema schema("k", {DimensionDesc{"x", 0, 9, 2, false}},
                     {AttributeDesc{"v", AttrType::kDouble}});
  Array a(schema);
  ASSERT_TRUE(a.InsertCell({0}, {1.0}).ok());
  ASSERT_TRUE(a.InsertCell({1}, {1.0}).ok());
  EXPECT_FALSE(KnnAverageDistance(a, 5, 4, 1).ok());  // k >= cells.
  EXPECT_FALSE(KnnAverageDistance(a, 0, 4, 1).ok());
  EXPECT_FALSE(KnnAverageDistance(a, 1, 0, 1).ok());
}

// Brute-force kNN over AllCells(): every other cell's distance, the k
// smallest summed in ascending order. Differences go through __int128, so
// they are exact before the one rounding to double even for cells 2^64 - 1
// apart.
double BruteForceKnn(const Array& a, int k, int samples, uint64_t seed) {
  const std::vector<array::Cell> cells = a.AllCells();
  util::Rng rng(seed);
  double total = 0.0;
  for (int s = 0; s < samples; ++s) {
    const size_t probe = static_cast<size_t>(rng.NextBounded(cells.size()));
    std::vector<double> dists;
    for (size_t j = 0; j < cells.size(); ++j) {
      if (j == probe) continue;
      double dist = 0.0;
      for (size_t d = 0; d < cells[j].pos.size(); ++d) {
        const auto diff = static_cast<double>(
            static_cast<__int128>(cells[j].pos[d]) - cells[probe].pos[d]);
        dist += diff * diff;
      }
      dists.push_back(std::sqrt(dist));
    }
    std::partial_sort(dists.begin(), dists.begin() + k, dists.end());
    double sum = 0.0;
    for (int i = 0; i < k; ++i) sum += dists[static_cast<size_t>(i)];
    total += sum / static_cast<double>(k);
  }
  return total / static_cast<double>(samples);
}

// The positions of the probes KnnAverageDistance draws: one RNG stream of
// global indices into AllCells() order.
std::vector<Coordinates> KnnProbes(const Array& a, int samples,
                                   uint64_t seed) {
  const std::vector<array::Cell> cells = a.AllCells();
  util::Rng rng(seed);
  std::vector<Coordinates> out;
  for (int s = 0; s < samples; ++s) {
    out.push_back(cells[static_cast<size_t>(rng.NextBounded(cells.size()))]
                      .pos);
  }
  return out;
}

TEST(KnnTest, MatchesBruteForceReference) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  struct Case {
    std::string name;
    Array array;
    int k;
  };
  std::vector<Case> cases;
  for (const uint64_t seed : {uint64_t{5}, uint64_t{6}, uint64_t{7}}) {
    const std::string tag = " seed " + std::to_string(seed);
    cases.push_back({"rank 1" + tag,
                     MakeRandomArray({DimensionDesc{"x", -50, 400, 7, false}},
                                     120, 0, seed),
                     3});
    // A dense 3-D band: most probes stop at the first box.
    cases.push_back({"rank 3" + tag,
                     MakeRandomArray({DimensionDesc{"t", 0, 3, 1, false},
                                      DimensionDesc{"x", 0, 23, 4, false},
                                      DimensionDesc{"y", 0, 15, 4, false}},
                                     900, 0, seed),
                     4});
    // A sparse grid whose empty synthetic chunks the search must skip.
    cases.push_back({"sparse rank 2" + tag,
                     MakeRandomArray({DimensionDesc{"x", 0, 255, 8, false},
                                      DimensionDesc{"y", 0, 255, 8, false}},
                                     60, 300, seed),
                     5});
    cases.push_back({"rank 4" + tag,
                     MakeRandomArray({DimensionDesc{"t", 0, 0, 3, true},
                                      DimensionDesc{"x", -8, 30, 4, false},
                                      DimensionDesc{"y", 0, 19, 5, false},
                                      DimensionDesc{"z", 10, 25, 2, false}},
                                     400, 40, seed),
                     1});
  }
  {
    // Every cell twice: the probe's duplicate is a neighbour at distance 0.
    const Array once = MakeRandomArray({DimensionDesc{"x", 0, 63, 4, false},
                                        DimensionDesc{"y", 0, 63, 4, false}},
                                       80, 0, 9);
    Array twice(once.schema());
    for (int copy = 0; copy < 2; ++copy) {
      for (const array::Cell& cell : once.AllCells()) {
        ASSERT_TRUE(twice.InsertCell(cell.pos, cell.values).ok());
      }
    }
    cases.push_back({"duplicates k=1", twice, 1});
    cases.push_back({"duplicates k=3", twice, 3});
    // k = num_cells - 1: only the whole-data box holds enough cells.
    cases.push_back(
        {"k = cells - 1", once, static_cast<int>(once.total_cells()) - 1});
  }
  {
    // The grid's lo and hi corners, among a few interior cells.
    Array corners(ArraySchema("c",
                              {DimensionDesc{"x", 0, 15, 4, false},
                               DimensionDesc{"y", 0, 15, 4, false}},
                              {AttributeDesc{"v", AttrType::kDouble}}));
    for (const Coordinates& pos : std::vector<Coordinates>{
             {0, 0}, {15, 15}, {0, 15}, {15, 0}, {3, 4}, {7, 7}, {12, 9}}) {
      ASSERT_TRUE(corners.InsertCell(pos, {1.0}).ok());
    }
    const std::vector<Coordinates> probes = KnnProbes(corners, 48, 21);
    ASSERT_NE(std::find(probes.begin(), probes.end(), Coordinates{0, 0}),
              probes.end());
    ASSERT_NE(std::find(probes.begin(), probes.end(), Coordinates{15, 15}),
              probes.end());
    cases.push_back({"corners", corners, 2});
  }
  {
    // An unbounded dimension with cells up to 2^64 - 1 apart: probes far
    // from every neighbour grow past 2^26 and fall back to the whole data.
    Array far(ArraySchema("u",
                          {DimensionDesc{"t", kMin, 0, int64_t{1} << 40, true},
                           DimensionDesc{"y", 0, 7, 4, false}},
                          {AttributeDesc{"v", AttrType::kDouble}}));
    for (const int64_t t : {kMin, kMin + 3, -(int64_t{1} << 50), int64_t{0},
                            int64_t{2}, int64_t{5}, int64_t{1} << 27,
                            int64_t{1} << 40, kMax - (int64_t{1} << 30),
                            kMax}) {
      for (const int64_t y : {int64_t{0}, int64_t{7}}) {
        ASSERT_TRUE(far.InsertCell({t, y}, {1.0}).ok());
      }
    }
    cases.push_back({"unbounded k=1", far, 1});
    cases.push_back({"unbounded k=3", far, 3});
  }
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const int samples = 40;
    const uint64_t seed = 21;
    const double want = BruteForceKnn(c.array, c.k, samples, seed);
    for (const int threads : {1, 2, 0}) {
      for (const int64_t grain : {int64_t{1}, int64_t{192}}) {
        ExecContext context;
        context.data_plane_threads = threads;
        context.morsel_grain = grain;
        const auto got =
            KnnAverageDistance(c.array, c.k, samples, seed, context);
        ASSERT_TRUE(got.ok());
        EXPECT_EQ(*got, want) << "threads=" << threads << " grain=" << grain;
      }
    }
  }
}

TEST(RegridTest, CoarsensCountsAndSums) {
  const Array a = MakeGridArray();
  const auto coarse = Regrid(a, {4, 4}, 0);
  ASSERT_TRUE(coarse.ok());
  EXPECT_EQ(coarse->total_cells(), 4);  // 8x8 -> 2x2.
  // Each coarse cell aggregates 16 fine cells.
  const auto cells = coarse->AllCells();
  double total_count = 0.0;
  for (const auto& cell : cells) total_count += cell.values[1];
  EXPECT_DOUBLE_EQ(total_count, 64.0);
}

TEST(RegridTest, RejectsBadFactors) {
  const Array a = MakeGridArray();
  EXPECT_FALSE(Regrid(a, {0, 4}, 0).ok());
  EXPECT_FALSE(Regrid(a, {4}, 0).ok());
  EXPECT_FALSE(Regrid(a, {4, 4}, 9).ok());
}

}  // namespace
}  // namespace arraydb::exec

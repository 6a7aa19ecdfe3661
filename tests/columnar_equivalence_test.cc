// Equivalence tests for the columnar chunk storage and the operator fast
// paths: on the AIS and MODIS sample workloads, every operator must return
// results identical to the seed's row-at-a-time semantics, reconstructed
// here as straightforward reference computations over AllCells().

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "array/array.h"
#include "exec/operators.h"
#include "workload/sample_data.h"

namespace arraydb::exec {
namespace {

using array::Array;
using array::Cell;
using array::Coordinates;

// -- Reference (seed-semantics) implementations over materialized cells ----

std::vector<Cell> ReferenceFilterBox(const Array& a, const CellBox& box) {
  std::vector<Cell> out;
  for (const auto& cell : a.AllCells()) {
    if (box.Contains(cell.pos)) out.push_back(cell);
  }
  std::stable_sort(out.begin(), out.end(), [](const Cell& x, const Cell& y) {
    return array::CoordinatesLess(x.pos, y.pos);
  });
  return out;
}

double ReferenceQuantile(const Array& a, int attr, double q) {
  std::vector<double> values;
  for (const auto& cell : a.AllCells()) {
    values.push_back(cell.values[static_cast<size_t>(attr)]);
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

std::map<Coordinates, double> ReferenceGroupBySum(
    const Array& a, const std::vector<int64_t>& bin, int attr) {
  std::map<Coordinates, double> groups;
  for (const auto& cell : a.AllCells()) {
    Coordinates key(cell.pos.size());
    for (size_t d = 0; d < cell.pos.size(); ++d) {
      int64_t q = cell.pos[d] / bin[d];
      if (cell.pos[d] % bin[d] != 0 && cell.pos[d] < 0) --q;
      key[d] = q * bin[d];
    }
    groups[key] += cell.values[static_cast<size_t>(attr)];
  }
  return groups;
}

int64_t ReferenceDimJoinCount(const Array& a, const Array& b) {
  // Mirrors the operator's side selection: build the smaller array, probe
  // the larger (duplicate probe positions each count once per occurrence).
  const Array& build = a.total_cells() <= b.total_cells() ? a : b;
  const Array& probe = a.total_cells() <= b.total_cells() ? b : a;
  std::unordered_set<Coordinates, array::CoordinatesHash> positions;
  for (const auto& cell : build.AllCells()) positions.insert(cell.pos);
  int64_t matches = 0;
  for (const auto& cell : probe.AllCells()) {
    if (positions.contains(cell.pos)) ++matches;
  }
  return matches;
}

int64_t ReferenceAttrJoinCount(const Array& a, int attr,
                               const std::unordered_set<int64_t>& keys) {
  // Join keys round to the nearest integer (llround, ties away from zero);
  // non-finite values never match. Mirrors exec::AttrJoinKey.
  int64_t matches = 0;
  for (const auto& cell : a.AllCells()) {
    const double v = cell.values[static_cast<size_t>(attr)];
    if (std::isfinite(v) && keys.contains(std::llround(v))) ++matches;
  }
  return matches;
}

using ValueIndex =
    std::unordered_map<Coordinates, double, array::CoordinatesHash>;

// Position -> value, the first occurrence in AllCells() order winning.
ValueIndex ReferenceValueIndex(const Array& a, int attr) {
  ValueIndex index;
  for (const auto& cell : a.AllCells()) {
    index.emplace(cell.pos, cell.values[static_cast<size_t>(attr)]);
  }
  return index;
}

// One probe per window cell in odd-base counter order (dimension 0 the
// fastest digit), the enumeration the operator's sums must reproduce.
double ReferenceWindowAt(const ValueIndex& index, const Coordinates& pos,
                         int64_t radius) {
  const int64_t span = 2 * radius + 1;
  int64_t total = 1;
  for (size_t d = 0; d < pos.size(); ++d) total *= span;
  double sum = 0.0;
  int64_t count = 0;
  Coordinates probe(pos.size());
  for (int64_t code = 0; code < total; ++code) {
    int64_t rest = code;
    for (size_t d = 0; d < pos.size(); ++d) {
      probe[d] = pos[d] + (rest % span) - radius;
      rest /= span;
    }
    const auto it = index.find(probe);
    if (it != index.end()) {
      sum += it->second;
      ++count;
    }
  }
  return count > 0 ? sum / static_cast<double>(count) : 0.0;
}

// Mirrors the operator's window enumeration order so sums agree bit-exactly.
std::vector<std::pair<Coordinates, double>> ReferenceWindowAverageAll(
    const Array& a, int attr, int64_t radius) {
  const ValueIndex index = ReferenceValueIndex(a, attr);
  std::vector<std::pair<Coordinates, double>> out;
  for (const auto& [pos, unused] : index) {
    out.emplace_back(pos, ReferenceWindowAt(index, pos, radius));
  }
  std::sort(out.begin(), out.end(), [](const auto& x, const auto& y) {
    return array::CoordinatesLess(x.first, y.first);
  });
  return out;
}

void ExpectCellsIdentical(const std::vector<Cell>& got,
                          const std::vector<Cell>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].pos, want[i].pos) << "cell " << i;
    ASSERT_EQ(got[i].values.size(), want[i].values.size());
    for (size_t v = 0; v < got[i].values.size(); ++v) {
      EXPECT_EQ(got[i].values[v], want[i].values[v])
          << "cell " << i << " attr " << v;
    }
  }
}

// -- Chunk-level columnar invariants ---------------------------------------

TEST(ColumnarChunkTest, BoundingBoxTracksInsertedPositions) {
  Array a(array::ArraySchema(
      "b",
      {array::DimensionDesc{"x", 0, 15, 8, false},
       array::DimensionDesc{"y", 0, 15, 8, false}},
      {array::AttributeDesc{"v", array::AttrType::kDouble}}));
  ASSERT_TRUE(a.InsertCell({3, 5}, {1.0}).ok());
  ASSERT_TRUE(a.InsertCell({1, 7}, {2.0}).ok());
  ASSERT_TRUE(a.InsertCell({6, 2}, {3.0}).ok());
  const array::Chunk* chunk = a.FindChunk({0, 0});
  ASSERT_NE(chunk, nullptr);
  EXPECT_EQ(chunk->bbox_lo(), (Coordinates{1, 2}));
  EXPECT_EQ(chunk->bbox_hi(), (Coordinates{6, 7}));
  EXPECT_EQ(chunk->num_cells(), 3u);
  EXPECT_EQ(chunk->num_dims(), 2u);
  EXPECT_EQ(chunk->num_attrs(), 1u);
  // Columns preserve insertion order.
  EXPECT_EQ(chunk->attr_column(0), (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_EQ(chunk->packed_coords(),
            (std::vector<int64_t>{3, 5, 1, 7, 6, 2}));
  const Cell cell = chunk->MaterializeCell(1);
  EXPECT_EQ(cell.pos, (Coordinates{1, 7}));
  EXPECT_EQ(cell.values, (std::vector<double>{2.0}));
}

// -- Operator equivalence on the sample workloads --------------------------

class ColumnarEquivalenceTest : public ::testing::Test {
 protected:
  ColumnarEquivalenceTest()
      : modis_(workload::MakeSmallModisBand(/*days=*/4, /*seed=*/2014)),
        ais_(workload::MakeSmallAisTracks(/*months=*/5, /*ships=*/120,
                                          /*seed=*/29)) {}

  Array modis_;
  Array ais_;
};

TEST_F(ColumnarEquivalenceTest, FilterBoxMatchesReference) {
  const CellBox modis_box{{0, 4, 2}, {2, 20, 12}};
  ExpectCellsIdentical(FilterBoxSpans(modis_, modis_box).Materialize(),
                       ReferenceFilterBox(modis_, modis_box));
  const CellBox ais_box{{0, 3, 3}, {4, 9, 9}};
  ExpectCellsIdentical(FilterBoxSpans(ais_, ais_box).Materialize(),
                       ReferenceFilterBox(ais_, ais_box));
  // Degenerate box outside the populated region prunes everything.
  const CellBox empty_box{{3, 30, 14}, {3, 31, 15}};
  ExpectCellsIdentical(FilterBoxSpans(modis_, empty_box).Materialize(),
                       ReferenceFilterBox(modis_, empty_box));
}

TEST_F(ColumnarEquivalenceTest, QuantileMatchesReference) {
  for (const double q : {0.0, 0.25, 0.5, 0.9, 1.0}) {
    for (int attr = 0; attr < 3; ++attr) {
      const auto got = AttrQuantile(modis_, attr, q);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(*got, ReferenceQuantile(modis_, attr, q))
          << "attr=" << attr << " q=" << q;
    }
  }
}

TEST_F(ColumnarEquivalenceTest, GroupBySumMatchesReference) {
  const std::vector<int64_t> bin = {2, 8, 8};
  // AIS speeds are integer-valued doubles, so the sums are exact under any
  // accumulation order — the chunk-per-bin Sum-kernel fast path (lane-split
  // order) must still match the sequential reference bit-for-bit.
  const auto got = GroupBySum(ais_, bin, /*attr=*/0);
  const auto want = ReferenceGroupBySum(ais_, bin, 0);
  ASSERT_EQ(got.size(), want.size());
  for (const auto& [key, sum] : want) {
    ASSERT_TRUE(got.contains(key));
    EXPECT_EQ(got.at(key), sum);
  }
}

TEST_F(ColumnarEquivalenceTest, GroupBySumDenseNonIntegralWithinUlps) {
  // MODIS radiance is non-integral and its land chunks are dense, so the
  // Sum kernel's fixed lane-split order may differ from the sequential
  // reference in the last ULPs — deterministically (and identically across
  // SIMD dispatch; see scan_dispatch_test). Bound the drift tightly.
  const std::vector<int64_t> bin = {2, 8, 8};
  const auto got = GroupBySum(modis_, bin, /*attr=*/1);
  const auto want = ReferenceGroupBySum(modis_, bin, 1);
  ASSERT_EQ(got.size(), want.size());
  for (const auto& [key, sum] : want) {
    ASSERT_TRUE(got.contains(key));
    EXPECT_NEAR(got.at(key), sum, std::abs(sum) * 1e-12 + 1e-12);
  }
}

TEST_F(ColumnarEquivalenceTest, JoinsMatchReference) {
  EXPECT_EQ(DimJoinCount(modis_, modis_),
            ReferenceDimJoinCount(modis_, modis_));
  // Cross-workload join over the shared 3-D shape: both sample arrays use
  // (time, lon, lat) coordinates.
  EXPECT_EQ(DimJoinCount(modis_, ais_), ReferenceDimJoinCount(modis_, ais_));
  std::unordered_set<int64_t> keys;
  for (int64_t ship = 0; ship < 120; ship += 3) keys.insert(ship);
  EXPECT_EQ(AttrJoinCount(ais_, /*attr=ship_id*/ 1, keys),
            ReferenceAttrJoinCount(ais_, 1, keys));
}

TEST_F(ColumnarEquivalenceTest, WindowAverageMatchesReference) {
  const auto got = WindowAverageAll(modis_, /*attr=*/1, /*radius=*/1);
  const auto want = ReferenceWindowAverageAll(modis_, 1, 1);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].first, want[i].first);
    EXPECT_EQ(got[i].second, want[i].second) << "pos " << i;
  }
  // Point probes agree with the field.
  for (size_t i = 0; i < std::min<size_t>(got.size(), 25); ++i) {
    const auto at = WindowAverageAt(modis_, 1, got[i].first, 1);
    ASSERT_TRUE(at.ok());
    EXPECT_EQ(*at, got[i].second);
  }
}

// -- Window edge cases, each bit-exact against the reference ---------------

// A rank-`ndims` array over [lo, hi] per dimension, chunked every
// `interval` cells, with one double attribute.
Array MakeWindowArray(int ndims, int64_t lo, int64_t hi, int64_t interval) {
  std::vector<array::DimensionDesc> dims;
  for (int d = 0; d < ndims; ++d) {
    dims.push_back(array::DimensionDesc{
        std::string(1, static_cast<char>('a' + d)), lo, hi, interval, false});
  }
  return Array(array::ArraySchema(
      "w", dims, {array::AttributeDesc{"v", array::AttrType::kDouble}}));
}

// Values whose sums round differently under reassociation, so an
// out-of-order sum shows up in the last bits.
double EdgeValue(int64_t k) {
  return 1.0 / static_cast<double>(k + 3) + 0.1 * static_cast<double>(k % 7);
}

// Inserts every position of the box [lo, hi]^ndims whose odometer index k
// satisfies keep(k), with value EdgeValue(k).
template <typename Keep>
void FillBox(Array& a, int64_t lo, int64_t hi, Keep keep) {
  const size_t ndims = static_cast<size_t>(a.schema().num_dims());
  Coordinates pos(ndims, lo);
  for (int64_t k = 0;; ++k) {
    if (keep(k)) {
      ASSERT_TRUE(a.InsertCell(pos, {EdgeValue(k)}).ok());
    }
    size_t d = 0;
    for (; d < ndims && pos[d] == hi; ++d) pos[d] = lo;
    if (d == ndims) break;
    ++pos[d];
  }
}

// WindowAverageAll at several thread counts and grains, and WindowAverageAt
// at every occupied position, all bit-identical to the reference.
void ExpectWindowMatchesReference(const Array& a, int64_t radius) {
  const auto want = ReferenceWindowAverageAll(a, 0, radius);
  for (const int threads : {1, 0}) {
    for (const int64_t grain : {int64_t{1}, int64_t{16384}}) {
      ExecContext context;
      context.data_plane_threads = threads;
      context.morsel_grain = grain;
      const auto got = WindowAverageAll(a, 0, radius, context);
      ASSERT_EQ(got.size(), want.size());
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].first, want[i].first) << "pos " << i;
        EXPECT_EQ(got[i].second, want[i].second)
            << "pos " << i << " threads=" << threads << " grain=" << grain;
      }
    }
  }
  for (const auto& [pos, value] : want) {
    const auto at = WindowAverageAt(a, 0, pos, radius);
    ASSERT_TRUE(at.ok());
    EXPECT_EQ(*at, value);
  }
}

TEST(WindowEdgeCaseTest, DuplicatePositionsKeepTheFirstValue) {
  Array a = MakeWindowArray(2, 0, 7, 4);
  FillBox(a, 0, 7, [](int64_t k) { return k % 3 != 0; });
  // (3, 0) is empty until inserted twice; (0, 1) and (5, 6) are already
  // occupied, in two different chunks.
  ASSERT_TRUE(a.InsertCell({3, 0}, {1.5}).ok());
  ASSERT_TRUE(a.InsertCell({3, 0}, {7.25}).ok());
  ASSERT_TRUE(a.InsertCell({0, 1}, {99.0}).ok());
  ASSERT_TRUE(a.InsertCell({5, 6}, {-3.0}).ok());
  const ValueIndex firsts = ReferenceValueIndex(a, 0);
  const auto field = WindowAverageAll(a, 0, /*radius=*/0);
  ASSERT_EQ(field.size(), firsts.size());
  for (const auto& [pos, value] : field) EXPECT_EQ(value, firsts.at(pos));
  EXPECT_EQ(*WindowAverageAt(a, 0, {3, 0}, 0), 1.5);
  EXPECT_EQ(*WindowAverageAt(a, 0, {0, 1}, 0), EdgeValue(8));
  EXPECT_EQ(*WindowAverageAt(a, 0, {5, 6}, 0), EdgeValue(53));
  ExpectWindowMatchesReference(a, 1);
  ExpectWindowMatchesReference(a, 2);
}

TEST(WindowEdgeCaseTest, RankOneAndRankFour) {
  Array line = MakeWindowArray(1, 0, 199, 16);
  FillBox(line, 0, 199, [](int64_t k) { return k % 5 != 2 && k % 7 != 0; });
  ExpectWindowMatchesReference(line, 0);
  ExpectWindowMatchesReference(line, 3);
  Array hyper = MakeWindowArray(4, 0, 4, 2);
  FillBox(hyper, 0, 4, [](int64_t k) { return (k * 7) % 10 < 6; });
  ExpectWindowMatchesReference(hyper, 1);
}

TEST(WindowEdgeCaseTest, RadiusZeroAndRadiusBeyondTheExtent) {
  Array a = MakeWindowArray(2, 0, 5, 2);
  FillBox(a, 0, 5, [](int64_t k) { return k % 4 != 1; });
  ExpectWindowMatchesReference(a, 0);
  ExpectWindowMatchesReference(a, 5);
  ExpectWindowMatchesReference(a, 9);
  // Rank 1: a window covering everything visits the cells in ascending
  // position from any centre, so a radius far beyond what the reference
  // can enumerate still agrees with one at the extent.
  Array line = MakeWindowArray(1, 0, 40, 8);
  FillBox(line, 0, 40, [](int64_t k) { return k % 3 != 0; });
  const auto want = ReferenceWindowAverageAll(line, 0, 40);
  for (const auto& [pos, value] : want) {
    EXPECT_EQ(*WindowAverageAt(line, 0, pos, int64_t{1} << 40), value);
  }
}

TEST(WindowEdgeCaseTest, NegativeCoordinates) {
  Array a = MakeWindowArray(3, -6, 2, 3);
  FillBox(a, -6, 2, [](int64_t k) { return (k * 11) % 13 < 8; });
  ExpectWindowMatchesReference(a, 1);
  ExpectWindowMatchesReference(a, 2);
}

TEST(WindowEdgeCaseTest, OneCellPerRow) {
  Array a = MakeWindowArray(3, 0, 10, 4);
  for (int64_t x = 0; x <= 10; ++x) {
    for (int64_t y = 0; y <= 10; ++y) {
      ASSERT_TRUE(
          a.InsertCell({x, y, (7 * x + 3 * y) % 11}, {EdgeValue(11 * x + y)})
              .ok());
    }
  }
  ExpectWindowMatchesReference(a, 1);
  ExpectWindowMatchesReference(a, 3);
}

TEST(WindowEdgeCaseTest, EmptyArrayGivesAnEmptyField) {
  const Array a = MakeWindowArray(2, 0, 7, 4);
  EXPECT_TRUE(WindowAverageAll(a, 0, 1).empty());
  const auto at = WindowAverageAt(a, 0, {3, 3}, 1);
  ASSERT_TRUE(at.ok());
  EXPECT_EQ(*at, 0.0);
}

TEST(WindowEdgeCaseTest, AverageAtAnUnoccupiedPosition) {
  Array a = MakeWindowArray(2, -4, 9, 4);
  FillBox(a, -4, 9, [](int64_t k) { return k % 5 != 0 && k % 9 != 4; });
  const ValueIndex index = ReferenceValueIndex(a, 0);
  int probes = 0;
  for (int64_t x = -6; x <= 11; ++x) {
    for (int64_t y = -6; y <= 11; ++y) {
      const Coordinates pos{x, y};
      if (index.contains(pos)) continue;
      ++probes;
      for (const int64_t radius : {0, 1, 2}) {
        const auto at = WindowAverageAt(a, 0, pos, radius);
        ASSERT_TRUE(at.ok());
        EXPECT_EQ(*at, ReferenceWindowAt(index, pos, radius))
            << x << "," << y << " r=" << radius;
      }
    }
  }
  EXPECT_GT(probes, 100);
  // Windows at the ends of the coordinate space clamp instead of
  // overflowing.
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  for (const Coordinates& pos : {Coordinates{kMin, kMin}, Coordinates{kMax, 0},
                                 Coordinates{0, kMax}}) {
    const auto at = WindowAverageAt(a, 0, pos, 3);
    ASSERT_TRUE(at.ok());
    EXPECT_EQ(*at, 0.0);
  }
  const auto wide = WindowAverageAt(a, 0, {kMax, kMin}, int64_t{1} << 30);
  ASSERT_TRUE(wide.ok());
  EXPECT_EQ(*wide, 0.0);
}

TEST_F(ColumnarEquivalenceTest, RegridMatchesReferenceAccumulation) {
  const auto coarse = Regrid(modis_, {2, 8, 8}, /*attr=*/1);
  ASSERT_TRUE(coarse.ok());
  // Reference: accumulate sums/counts per coarse key over AllCells in the
  // same deterministic order.
  std::map<Coordinates, std::pair<double, int64_t>> acc;
  for (const auto& cell : modis_.AllCells()) {
    Coordinates key(cell.pos.size());
    const std::vector<int64_t> factors = {2, 8, 8};
    for (size_t d = 0; d < cell.pos.size(); ++d) {
      key[d] = (cell.pos[d] - modis_.schema().dims()[d].lo) / factors[d];
    }
    auto& slot = acc[key];
    slot.first += cell.values[1];
    slot.second += 1;
  }
  EXPECT_EQ(coarse->total_cells(), static_cast<int64_t>(acc.size()));
  for (const auto& cell : coarse->AllCells()) {
    ASSERT_TRUE(acc.contains(cell.pos));
    EXPECT_EQ(cell.values[0], acc.at(cell.pos).first);
    EXPECT_EQ(cell.values[1], static_cast<double>(acc.at(cell.pos).second));
  }
}

TEST_F(ColumnarEquivalenceTest, TotalsSurviveColumnarStorage) {
  // Footprint accounting is unchanged by the storage layout.
  int64_t cells = 0;
  for (const array::Chunk* chunk : modis_.SortedChunks()) {
    cells += chunk->cell_count();
    EXPECT_EQ(chunk->cell_count(), static_cast<int64_t>(chunk->num_cells()));
  }
  EXPECT_EQ(cells, modis_.total_cells());
}

}  // namespace
}  // namespace arraydb::exec

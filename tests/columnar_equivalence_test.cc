// Equivalence tests for the columnar chunk storage and the operator fast
// paths: on the AIS and MODIS sample workloads, every operator must return
// results identical to the seed's row-at-a-time semantics, reconstructed
// here as straightforward reference computations over AllCells().

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
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

// Mirrors the operator's window enumeration order so sums agree bit-exactly.
std::vector<std::pair<Coordinates, double>> ReferenceWindowAverageAll(
    const Array& a, int attr, int64_t radius) {
  std::unordered_map<Coordinates, double, array::CoordinatesHash> index;
  for (const auto& cell : a.AllCells()) {
    index.emplace(cell.pos, cell.values[static_cast<size_t>(attr)]);
  }
  std::vector<std::pair<Coordinates, double>> out;
  const int64_t span = 2 * radius + 1;
  for (const auto& [pos, unused] : index) {
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
    out.emplace_back(pos, count > 0 ? sum / static_cast<double>(count) : 0.0);
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
  for (const auto& [coords, chunk] : modis_.chunks()) {
    cells += chunk.cell_count();
    EXPECT_EQ(chunk.cell_count(), static_cast<int64_t>(chunk.num_cells()));
  }
  EXPECT_EQ(cells, modis_.total_cells());
}

}  // namespace
}  // namespace arraydb::exec

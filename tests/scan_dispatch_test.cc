// Operator-level dispatch equivalence on the AIS and MODIS sample
// workloads: forcing the scalar fallback and forcing AVX2 must produce
// bit-identical FilterBoxSpans / quantile / group-by / kNN results. Also the
// AllCells-free kNN regression test: the chunk-directory search must
// reproduce a brute force over materialized cells exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "array/array.h"
#include "array/cell_span.h"
#include "exec/operators.h"
#include "simd/dispatch.h"
#include "util/rng.h"
#include "workload/sample_data.h"

namespace arraydb::exec {
namespace {

using array::Array;
using array::Cell;
using array::Coordinates;
using simd::DispatchLevel;
using simd::ScopedDispatch;

bool Avx2Usable() {
  const ScopedDispatch probe(DispatchLevel::kAvx2);
  return probe.ok();
}

class ScanDispatchTest : public ::testing::Test {
 protected:
  ScanDispatchTest()
      : modis_(workload::MakeSmallModisBand(/*days=*/4, /*seed=*/2014)),
        ais_(workload::MakeSmallAisTracks(/*months=*/5, /*ships=*/120,
                                          /*seed=*/29)) {}

  Array modis_;
  Array ais_;
};

std::vector<std::vector<std::pair<uint32_t, uint32_t>>> SpansOf(
    const FilterBoxView& view) {
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> out;
  for (const auto& cs : view.chunks()) out.push_back(cs.spans);
  return out;
}

TEST_F(ScanDispatchTest, FilterBoxIdenticalAcrossDispatch) {
  if (!Avx2Usable()) GTEST_SKIP() << "AVX2 unavailable";
  const std::vector<std::pair<const Array*, CellBox>> cases = {
      {&modis_, CellBox{{0, 4, 2}, {2, 20, 12}}},
      {&modis_, CellBox{{3, 30, 14}, {3, 31, 15}}},  // Prunes everything.
      {&ais_, CellBox{{0, 3, 3}, {4, 9, 9}}},
      {&ais_, CellBox{{0, 0, 0}, {4, 31, 23}}},  // Selects everything.
  };
  for (const auto& [arr, box] : cases) {
    FilterBoxView scalar_view, avx2_view;
    std::vector<Cell> scalar_cells, avx2_cells;
    {
      const ScopedDispatch forced(DispatchLevel::kScalar);
      scalar_view = FilterBoxSpans(*arr, box);
      scalar_cells = scalar_view.Materialize();
    }
    {
      const ScopedDispatch forced(DispatchLevel::kAvx2);
      avx2_view = FilterBoxSpans(*arr, box);
      avx2_cells = avx2_view.Materialize();
    }
    EXPECT_EQ(scalar_view.num_cells(), avx2_view.num_cells());
    EXPECT_EQ(SpansOf(scalar_view), SpansOf(avx2_view));
    ASSERT_EQ(scalar_cells.size(), avx2_cells.size());
    for (size_t i = 0; i < scalar_cells.size(); ++i) {
      EXPECT_EQ(scalar_cells[i].pos, avx2_cells[i].pos);
      EXPECT_EQ(scalar_cells[i].values, avx2_cells[i].values);
    }
  }
}

TEST_F(ScanDispatchTest, FilterBoxCountMatchesSpansAcrossDispatch) {
  const std::vector<std::pair<const Array*, CellBox>> cases = {
      {&modis_, CellBox{{0, 4, 2}, {2, 20, 12}}},
      {&modis_, CellBox{{3, 30, 14}, {3, 31, 15}}},
      {&ais_, CellBox{{0, 3, 3}, {4, 9, 9}}},
      {&ais_, CellBox{{0, 0, 0}, {4, 31, 23}}},
  };
  for (const auto& [arr, box] : cases) {
    const int64_t want = FilterBoxSpans(*arr, box).num_cells();
    EXPECT_EQ(FilterBoxCount(*arr, box), want);
    if (Avx2Usable()) {
      int64_t scalar_count, avx2_count;
      {
        const ScopedDispatch forced(DispatchLevel::kScalar);
        scalar_count = FilterBoxCount(*arr, box);
      }
      {
        const ScopedDispatch forced(DispatchLevel::kAvx2);
        avx2_count = FilterBoxCount(*arr, box);
      }
      EXPECT_EQ(scalar_count, want);
      EXPECT_EQ(avx2_count, want);
    }
  }
}

TEST_F(ScanDispatchTest, QuantileIdenticalAcrossDispatch) {
  if (!Avx2Usable()) GTEST_SKIP() << "AVX2 unavailable";
  for (const double q : {0.0, 0.25, 0.5, 0.9, 1.0}) {
    for (int attr = 0; attr < 3; ++attr) {
      double scalar_q, avx2_q;
      {
        const ScopedDispatch forced(DispatchLevel::kScalar);
        const auto r = AttrQuantile(modis_, attr, q);
        ASSERT_TRUE(r.ok());
        scalar_q = *r;
      }
      {
        const ScopedDispatch forced(DispatchLevel::kAvx2);
        const auto r = AttrQuantile(modis_, attr, q);
        ASSERT_TRUE(r.ok());
        avx2_q = *r;
      }
      EXPECT_EQ(scalar_q, avx2_q) << "attr=" << attr << " q=" << q;
    }
  }
}

TEST_F(ScanDispatchTest, GroupBySumIdenticalAcrossDispatch) {
  if (!Avx2Usable()) GTEST_SKIP() << "AVX2 unavailable";
  // Radiance (attr 1) is non-integral, so this exercises the Sum kernel's
  // cross-variant bit-identity, not just integer luck.
  const std::vector<int64_t> bin = {2, 8, 8};
  std::map<Coordinates, double> scalar_groups, avx2_groups;
  {
    const ScopedDispatch forced(DispatchLevel::kScalar);
    scalar_groups = GroupBySum(modis_, bin, /*attr=*/1);
  }
  {
    const ScopedDispatch forced(DispatchLevel::kAvx2);
    avx2_groups = GroupBySum(modis_, bin, /*attr=*/1);
  }
  ASSERT_EQ(scalar_groups.size(), avx2_groups.size());
  for (const auto& [key, sum] : scalar_groups) {
    ASSERT_TRUE(avx2_groups.contains(key));
    EXPECT_EQ(avx2_groups.at(key), sum);  // Bit-identical, not just close.
  }
}

TEST_F(ScanDispatchTest, KnnIdenticalAcrossDispatch) {
  if (!Avx2Usable()) GTEST_SKIP() << "AVX2 unavailable";
  double scalar_knn, avx2_knn;
  {
    const ScopedDispatch forced(DispatchLevel::kScalar);
    const auto r = KnnAverageDistance(ais_, /*k=*/5, /*samples=*/16,
                                      /*seed=*/77);
    ASSERT_TRUE(r.ok());
    scalar_knn = *r;
  }
  {
    const ScopedDispatch forced(DispatchLevel::kAvx2);
    const auto r = KnnAverageDistance(ais_, /*k=*/5, /*samples=*/16,
                                      /*seed=*/77);
    ASSERT_TRUE(r.ok());
    avx2_knn = *r;
  }
  EXPECT_EQ(scalar_knn, avx2_knn);
}

// An independent brute-force kNN over materialized AllCells(): the k
// smallest distances summed in ascending order, the operator's contract.
double ReferenceKnnAverageDistance(const Array& array, int k, int samples,
                                   uint64_t seed) {
  const auto cells = array.AllCells();
  util::Rng rng(seed);
  double total = 0.0;
  for (int s = 0; s < samples; ++s) {
    const size_t idx = static_cast<size_t>(rng.NextBounded(cells.size()));
    const auto& origin = cells[idx].pos;
    std::vector<double> dists;
    dists.reserve(cells.size() - 1);
    for (size_t j = 0; j < cells.size(); ++j) {
      if (j == idx) continue;
      double dist = 0.0;
      for (size_t d = 0; d < origin.size(); ++d) {
        const double diff = static_cast<double>(cells[j].pos[d] - origin[d]);
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

TEST_F(ScanDispatchTest, KnnSpanViewMatchesAllCellsReference) {
  for (const auto& [arr, name] :
       {std::pair<const Array*, const char*>{&ais_, "ais"},
        std::pair<const Array*, const char*>{&modis_, "modis"}}) {
    const auto got = KnnAverageDistance(*arr, /*k=*/4, /*samples=*/12,
                                        /*seed=*/3);
    ASSERT_TRUE(got.ok()) << name;
    EXPECT_EQ(*got, ReferenceKnnAverageDistance(*arr, 4, 12, 3)) << name;
  }
}

TEST_F(ScanDispatchTest, CellSpanViewMatchesAllCellsOrder) {
  const array::CellSpanView view(ais_);
  const auto cells = ais_.AllCells();
  ASSERT_EQ(view.num_cells(), static_cast<int64_t>(cells.size()));
  view.ForEachCell([&](const array::Chunk& chunk, size_t i, int64_t global) {
    const auto& want = cells[static_cast<size_t>(global)];
    const int64_t* pos = chunk.cell_pos(i);
    const Coordinates got_pos(pos, pos + chunk.num_dims());
    EXPECT_EQ(got_pos, want.pos) << "global=" << global;
    for (size_t a = 0; a < chunk.num_attrs(); ++a) {
      EXPECT_EQ(chunk.attr_value(a, i), want.values[a]);
    }
    // Locate() inverts the global enumeration.
    const auto loc = view.Locate(global);
    EXPECT_EQ(loc.chunk, &chunk);
    EXPECT_EQ(loc.index, i);
  });
  // GatherAttr packs columns in the same global order.
  const auto col = view.GatherAttr(0);
  ASSERT_EQ(col.size(), cells.size());
  for (size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(col[i], cells[i].values[0]);
  }
}

}  // namespace
}  // namespace arraydb::exec

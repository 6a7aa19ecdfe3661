// Unit tests for the SIMD scan kernels: every kernel against a naive
// reference over randomized shapes (ranks 1..8, ragged tails), and the AVX2
// variant against the scalar variant bit-for-bit under forced dispatch.
// AVX2 legs skip on machines (or builds) without AVX2.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "simd/dispatch.h"
#include "simd/scan_kernels.h"
#include "util/rng.h"

namespace arraydb::simd {
namespace {

bool Avx2Usable() {
  const ScopedDispatch probe(DispatchLevel::kAvx2);
  return probe.ok();
}

// -- Dispatch API ----------------------------------------------------------

TEST(DispatchTest, ScalarAlwaysForcible) {
  const ScopedDispatch forced(DispatchLevel::kScalar);
  EXPECT_TRUE(forced.ok());
  EXPECT_EQ(ActiveLevel(), DispatchLevel::kScalar);
}

TEST(DispatchTest, ClearRestoresDetectedLevel) {
  {
    const ScopedDispatch forced(DispatchLevel::kScalar);
    ASSERT_TRUE(forced.ok());
  }
  EXPECT_EQ(ActiveLevel(), DetectedLevel());
}

TEST(DispatchTest, Avx2ForcibleExactlyWhenUsable) {
  const bool forced = ScopedDispatch(DispatchLevel::kAvx2).ok();
  EXPECT_EQ(ActiveLevel(), DetectedLevel());
  if (!CompiledWithAvx2()) {
    EXPECT_FALSE(forced);  // Force-scalar / non-x86 build: must refuse.
  }
  if (forced) {
    EXPECT_TRUE(CompiledWithAvx2());
  }
}

TEST(DispatchTest, ScopedOverridesNestAndRestore) {
  const ScopedDispatch outer(DispatchLevel::kScalar);
  ASSERT_TRUE(outer.ok());
  {
    // Inner probe (as Avx2Usable() does) must not drop the outer force.
    const ScopedDispatch inner(DispatchLevel::kAvx2);
    (void)inner;
  }
  EXPECT_EQ(ActiveLevel(), DispatchLevel::kScalar);
}

TEST(DispatchTest, ToStringNames) {
  EXPECT_STREQ(ToString(DispatchLevel::kScalar), "scalar");
  EXPECT_STREQ(ToString(DispatchLevel::kAvx2), "avx2");
}

// -- References ------------------------------------------------------------

void ReferenceRangeMask(const std::vector<int64_t>& coords, size_t ndims,
                        const std::vector<int64_t>& lo,
                        const std::vector<int64_t>& hi,
                        std::vector<uint8_t>* out) {
  const size_t count = coords.size() / ndims;
  out->assign(count, 0);
  for (size_t i = 0; i < count; ++i) {
    bool inside = true;
    for (size_t d = 0; d < ndims; ++d) {
      const int64_t v = coords[i * ndims + d];
      if (v < lo[d] || v > hi[d]) inside = false;
    }
    (*out)[i] = inside ? 1 : 0;
  }
}

struct RandomBoxes {
  BBoxSoA soa;
  std::vector<std::vector<int64_t>> lo;  // Box-major, for the reference.
  std::vector<std::vector<int64_t>> hi;
};

RandomBoxes MakeRandomBoxes(size_t count, size_t ndims, util::Rng& rng) {
  RandomBoxes boxes;
  boxes.soa.Resize(count, ndims);
  boxes.lo.resize(count);
  boxes.hi.resize(count);
  for (size_t c = 0; c < count; ++c) {
    for (size_t d = 0; d < ndims; ++d) {
      const auto a = static_cast<int64_t>(rng.NextBounded(100)) - 50;
      const auto b = a + static_cast<int64_t>(rng.NextBounded(20));
      boxes.lo[c].push_back(a);
      boxes.hi[c].push_back(b);
      boxes.soa.lo[d * count + c] = a;
      boxes.soa.hi[d * count + c] = b;
    }
  }
  return boxes;
}

// -- RangeMask -------------------------------------------------------------

TEST(RangeMaskTest, MatchesReferenceAcrossRanksAndTails) {
  util::Rng rng(11);
  // Ranks 9-10 exercise the >8-dim scalar fallback inside the AVX2 variant.
  for (size_t ndims = 1; ndims <= 10; ++ndims) {
    for (const size_t count : {size_t{0}, size_t{1}, size_t{3}, size_t{4},
                               size_t{7}, size_t{64}, size_t{1001}}) {
      std::vector<int64_t> coords(count * ndims);
      for (auto& v : coords) {
        v = static_cast<int64_t>(rng.NextBounded(40)) - 20;
      }
      std::vector<int64_t> lo(ndims), hi(ndims);
      for (size_t d = 0; d < ndims; ++d) {
        lo[d] = static_cast<int64_t>(rng.NextBounded(30)) - 20;
        hi[d] = lo[d] + static_cast<int64_t>(rng.NextBounded(25));
      }
      std::vector<uint8_t> want;
      ReferenceRangeMask(coords, ndims, lo, hi, &want);
      std::vector<uint8_t> got(count, 255);
      RangeMask(coords.data(), count, ndims, lo.data(), hi.data(),
                got.data());
      EXPECT_EQ(got, want) << "ndims=" << ndims << " count=" << count;
    }
  }
}

TEST(RangeMaskTest, Avx2MatchesScalarBitwise) {
  if (!Avx2Usable()) GTEST_SKIP() << "AVX2 unavailable";
  util::Rng rng(17);
  for (size_t ndims = 1; ndims <= 8; ++ndims) {
    const size_t count = 513;  // Ragged against every period length.
    std::vector<int64_t> coords(count * ndims);
    for (auto& v : coords) v = static_cast<int64_t>(rng.NextBounded(16));
    std::vector<int64_t> lo(ndims, 3), hi(ndims, 11);
    std::vector<uint8_t> scalar_mask(count), avx2_mask(count);
    {
      const ScopedDispatch forced(DispatchLevel::kScalar);
      RangeMask(coords.data(), count, ndims, lo.data(), hi.data(),
                scalar_mask.data());
    }
    {
      const ScopedDispatch forced(DispatchLevel::kAvx2);
      RangeMask(coords.data(), count, ndims, lo.data(), hi.data(),
                avx2_mask.data());
    }
    EXPECT_EQ(scalar_mask, avx2_mask) << "ndims=" << ndims;
  }
}

TEST(RangeMaskTest, ExtremeBoundsAndNegativeCoords) {
  const std::vector<int64_t> coords = {INT64_MIN, -1, 0, 1, INT64_MAX};
  const std::vector<int64_t> lo = {INT64_MIN};
  const std::vector<int64_t> hi = {0};
  std::vector<uint8_t> got(5);
  RangeMask(coords.data(), 5, 1, lo.data(), hi.data(), got.data());
  EXPECT_EQ(got, (std::vector<uint8_t>{1, 1, 1, 0, 0}));
}

// -- Reductions ------------------------------------------------------------

TEST(ReductionTest, SumMatchesLaneSplitContract) {
  util::Rng rng(5);
  for (const size_t n :
       {size_t{0}, size_t{1}, size_t{2}, size_t{3}, size_t{4}, size_t{5},
        size_t{8}, size_t{127}, size_t{1024}}) {
    std::vector<double> v(n);
    for (auto& x : v) x = rng.NextUniform(-100.0, 100.0);
    // The documented contract, computed independently.
    double acc[4] = {0.0, 0.0, 0.0, 0.0};
    const size_t n4 = n - n % 4;
    for (size_t i = 0; i < n4; i += 4) {
      for (size_t l = 0; l < 4; ++l) acc[l] += v[i + l];
    }
    double want = (acc[0] + acc[2]) + (acc[1] + acc[3]);
    for (size_t i = n4; i < n; ++i) want += v[i];
    EXPECT_EQ(Sum(v.data(), n), want) << "n=" << n;
  }
}

TEST(ReductionTest, DispatchVariantsBitIdentical) {
  if (!Avx2Usable()) GTEST_SKIP() << "AVX2 unavailable";
  util::Rng rng(23);
  for (const size_t n : {size_t{1}, size_t{2}, size_t{3}, size_t{4},
                         size_t{5}, size_t{63}, size_t{64}, size_t{1000}}) {
    std::vector<double> v(n);
    for (auto& x : v) x = rng.NextUniform(-1e6, 1e6);
    double scalar_sum, scalar_min, scalar_max;
    {
      const ScopedDispatch forced(DispatchLevel::kScalar);
      scalar_sum = Sum(v.data(), n);
      scalar_min = Min(v.data(), n);
      scalar_max = Max(v.data(), n);
    }
    const ScopedDispatch forced(DispatchLevel::kAvx2);
    EXPECT_EQ(Sum(v.data(), n), scalar_sum) << "n=" << n;
    EXPECT_EQ(Min(v.data(), n), scalar_min) << "n=" << n;
    EXPECT_EQ(Max(v.data(), n), scalar_max) << "n=" << n;
  }
}

TEST(ReductionTest, MinMaxMatchStdMinmax) {
  util::Rng rng(31);
  std::vector<double> v(501);
  for (auto& x : v) x = rng.NextUniform(-50.0, 50.0);
  const auto [mn, mx] = std::minmax_element(v.begin(), v.end());
  EXPECT_EQ(Min(v.data(), v.size()), *mn);
  EXPECT_EQ(Max(v.data(), v.size()), *mx);
}

// -- Mask utilities --------------------------------------------------------

TEST(MaskTest, CountAndSpans) {
  const std::vector<uint8_t> mask = {0, 1, 1, 0, 1, 0, 0, 1, 1, 1};
  EXPECT_EQ(MaskCount(mask.data(), mask.size()), 6);
  std::vector<std::pair<uint32_t, uint32_t>> spans;
  MaskToSpans(mask.data(), mask.size(), &spans);
  const std::vector<std::pair<uint32_t, uint32_t>> want = {
      {1, 3}, {4, 5}, {7, 10}};
  EXPECT_EQ(spans, want);
}

TEST(MaskTest, EmptyAndFullMasks) {
  std::vector<std::pair<uint32_t, uint32_t>> spans;
  MaskToSpans(nullptr, 0, &spans);
  EXPECT_TRUE(spans.empty());
  const std::vector<uint8_t> full(17, 1);
  MaskToSpans(full.data(), full.size(), &spans);
  EXPECT_EQ(spans,
            (std::vector<std::pair<uint32_t, uint32_t>>{{0, 17}}));
  EXPECT_EQ(MaskCount(full.data(), full.size()), 17);
}

// -- BBoxIntersectMask -----------------------------------------------------

TEST(BBoxIntersectTest, MatchesPerBoxReference) {
  util::Rng rng(47);
  for (size_t ndims = 1; ndims <= 6; ++ndims) {
    for (const size_t count :
         {size_t{0}, size_t{1}, size_t{3}, size_t{4}, size_t{257}}) {
      const RandomBoxes boxes = MakeRandomBoxes(count, ndims, rng);
      std::vector<int64_t> qlo(ndims), qhi(ndims);
      for (size_t d = 0; d < ndims; ++d) {
        qlo[d] = static_cast<int64_t>(rng.NextBounded(80)) - 40;
        qhi[d] = qlo[d] + static_cast<int64_t>(rng.NextBounded(40));
      }
      std::vector<uint8_t> got(count, 255);
      BBoxIntersectMask(boxes.soa, qlo.data(), qhi.data(), got.data());
      for (size_t c = 0; c < count; ++c) {
        bool want = true;
        for (size_t d = 0; d < ndims; ++d) {
          want &= qhi[d] >= boxes.lo[c][d] && qlo[d] <= boxes.hi[c][d];
        }
        EXPECT_EQ(got[c], want ? 1 : 0)
            << "ndims=" << ndims << " count=" << count << " box=" << c;
      }
    }
  }
}

TEST(BBoxIntersectTest, Avx2MatchesScalarBitwise) {
  if (!Avx2Usable()) GTEST_SKIP() << "AVX2 unavailable";
  util::Rng rng(53);
  const RandomBoxes boxes = MakeRandomBoxes(123, 3, rng);
  const std::vector<int64_t> qlo = {-10, -10, -10};
  const std::vector<int64_t> qhi = {10, 10, 10};
  std::vector<uint8_t> scalar_mask(123), avx2_mask(123);
  {
    const ScopedDispatch forced(DispatchLevel::kScalar);
    BBoxIntersectMask(boxes.soa, qlo.data(), qhi.data(), scalar_mask.data());
  }
  {
    const ScopedDispatch forced(DispatchLevel::kAvx2);
    BBoxIntersectMask(boxes.soa, qlo.data(), qhi.data(), avx2_mask.data());
  }
  EXPECT_EQ(scalar_mask, avx2_mask);
}

}  // namespace
}  // namespace arraydb::simd

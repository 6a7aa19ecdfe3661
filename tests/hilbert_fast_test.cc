// Property tests for the Hilbert codec: the table-driven rank path must
// agree exactly with the reference per-bit implementation on every input —
// the tables change performance, not the curve.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "array/coordinates.h"
#include "hilbert/hilbert.h"
#include "util/rng.h"

namespace arraydb::hilbert {
namespace {

// Index of `point` through a codec sized to its rank and `bits`.
uint64_t CodecIndex(const std::vector<uint32_t>& point, int bits) {
  return HilbertCodec::Create(static_cast<int>(point.size()), bits)
      ->Rank(point.data());
}

// Rank of `coords` through a codec sized to the grid `extents`.
uint64_t CodecRank(const array::Coordinates& coords,
                   const array::Coordinates& extents) {
  return HilbertCodec::Create(static_cast<int>(extents.size()),
                              BitsForExtents(extents))
      ->RankChecked(coords, extents);
}

TEST(HilbertFastTest, CodecMatchesReferenceExhaustivelySmall) {
  // Exhaustive agreement on small cubes across dimensionalities covered by
  // the state machine (n <= 6).
  for (int n = 1; n <= 4; ++n) {
    const int bits = n <= 2 ? 4 : 2;
    const uint64_t side = 1ULL << bits;
    uint64_t total = 1;
    for (int d = 0; d < n; ++d) total *= side;
    std::vector<uint32_t> point(static_cast<size_t>(n));
    for (uint64_t code = 0; code < total; ++code) {
      uint64_t rest = code;
      for (int d = 0; d < n; ++d) {
        point[static_cast<size_t>(d)] = static_cast<uint32_t>(rest % side);
        rest /= side;
      }
      ASSERT_EQ(CodecIndex(point, bits), HilbertIndexReference(point, bits))
          << "n=" << n << " code=" << code;
    }
  }
}

TEST(HilbertFastTest, CodecMatchesReferenceRandomly) {
  util::Rng rng(2024);
  for (int trial = 0; trial < 2000; ++trial) {
    const int n = 1 + static_cast<int>(rng.NextBounded(6));
    const int max_bits = 64 / n;
    // Cap at 32 (uint32 coordinates) so n=1/n=2 draws exercise the 3rd and
    // 4th coordinate-byte interleave paths.
    const int bits = 1 + static_cast<int>(rng.NextBounded(
                             static_cast<uint64_t>(std::min(max_bits, 32))));
    std::vector<uint32_t> point(static_cast<size_t>(n));
    for (auto& c : point) {
      c = static_cast<uint32_t>(rng.NextBounded(1ULL << bits));
    }
    ASSERT_EQ(CodecIndex(point, bits), HilbertIndexReference(point, bits))
        << "n=" << n << " bits=" << bits;
  }
}

// The precomputed state tables stop at rank 6, so the factory declines
// higher-rank schemas with InvalidArgument (instead of CHECK-aborting on a
// geometry the tables could never index).
TEST(HilbertFastTest, CreateRejectsSchemasAboveTheStateTableLimit) {
  // The boundary itself is fine...
  const auto at_limit = HilbertCodec::Create(6, 10);
  ASSERT_TRUE(at_limit.ok());
  const std::vector<uint32_t> probe = {1, 2, 3, 4, 5, 6};
  EXPECT_EQ(at_limit->Rank(probe.data()), HilbertIndexReference(probe, 10));
  // ...one past it is not.
  const auto above = HilbertCodec::Create(7, 8);
  ASSERT_FALSE(above.ok());
  EXPECT_EQ(above.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(above.status().message().find("state tables"), std::string::npos);
  // Invalid geometry is also a status, not an abort.
  EXPECT_FALSE(HilbertCodec::Create(0, 4).ok());
  EXPECT_FALSE(HilbertCodec::Create(3, 0).ok());
  EXPECT_FALSE(HilbertCodec::Create(2, 33).ok());
  EXPECT_FALSE(HilbertCodec::Create(64, 2).ok());
}

TEST(HilbertFastTest, InverseRoundTripsThroughFastForward) {
  util::Rng rng(33);
  for (int trial = 0; trial < 500; ++trial) {
    const int n = 1 + static_cast<int>(rng.NextBounded(4));
    const int bits = 1 + static_cast<int>(rng.NextBounded(
                             static_cast<uint64_t>(std::min(64 / n, 10))));
    const uint64_t space = 1ULL << (n * bits);
    const uint64_t index = rng.NextBounded(space);
    const auto point = HilbertPoint(index, n, bits);
    ASSERT_EQ(CodecIndex(point, bits), index);
  }
}

TEST(HilbertFastTest, RankMatchesReferenceOnRandomRectangles) {
  util::Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    const int n = 1 + static_cast<int>(rng.NextBounded(3));
    array::Coordinates extents(static_cast<size_t>(n));
    for (auto& e : extents) {
      e = 1 + static_cast<int64_t>(rng.NextBounded(40));
    }
    for (int probe = 0; probe < 100; ++probe) {
      array::Coordinates coords(static_cast<size_t>(n));
      for (size_t d = 0; d < coords.size(); ++d) {
        coords[d] = static_cast<int64_t>(
            rng.NextBounded(static_cast<uint64_t>(extents[d])));
      }
      ASSERT_EQ(CodecRank(coords, extents),
                HilbertRankReference(coords, extents));
    }
  }
}

// One codec ranks a whole batch exactly as a fresh codec per point does —
// the shape HilbertPartitioner::RankOf relies on — on random rectangular
// grids of random dimensionality.
TEST(HilbertFastTest, BatchEquivalentToScalarOnRandomRectangularGrids) {
  util::Rng rng(4242);
  for (int trial = 0; trial < 30; ++trial) {
    const int n = 1 + static_cast<int>(rng.NextBounded(4));
    array::Coordinates extents(static_cast<size_t>(n));
    for (auto& e : extents) {
      e = 1 + static_cast<int64_t>(rng.NextBounded(30));
    }
    const auto codec = HilbertCodec::Create(n, BitsForExtents(extents));
    ASSERT_TRUE(codec.ok());
    const size_t count = 1 + rng.NextBounded(512);
    for (size_t i = 0; i < count; ++i) {
      array::Coordinates coords(static_cast<size_t>(n));
      for (size_t d = 0; d < coords.size(); ++d) {
        coords[d] = static_cast<int64_t>(
            rng.NextBounded(static_cast<uint64_t>(extents[d])));
      }
      ASSERT_EQ(codec->RankChecked(coords, extents),
                CodecRank(coords, extents))
          << "trial=" << trial << " i=" << i;
    }
  }
}

TEST(HilbertFastTest, CodecRankCheckedAgreesWithReference) {
  const array::Coordinates extents = {36, 29, 23};
  const auto codec = HilbertCodec::Create(3, BitsForExtents(extents));
  ASSERT_TRUE(codec.ok());
  util::Rng rng(5);
  for (int trial = 0; trial < 500; ++trial) {
    const array::Coordinates coords = {
        static_cast<int64_t>(rng.NextBounded(36)),
        static_cast<int64_t>(rng.NextBounded(29)),
        static_cast<int64_t>(rng.NextBounded(23))};
    ASSERT_EQ(codec->RankChecked(coords, extents),
              HilbertRankReference(coords, extents));
  }
}

}  // namespace
}  // namespace arraydb::hilbert

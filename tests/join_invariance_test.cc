// Invariance suite for the joins (exec/join.h): DimJoinCount and
// AttrJoinCount must be bit-identical across thread counts and morsel
// grains, with either side passed first, and DimJoinCount must agree
// exactly with the unordered_set implementation that stays in the tree as
// the executable multiplicity-semantics specification
// (internal::DimJoinCountBySet). Small grains force genuinely multi-morsel
// merge counts and probes on the sample workloads, so the parallel paths
// are exercised for real (this suite runs under the TSan CI job).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <unordered_set>
#include <vector>

#include "array/array.h"
#include "exec/join.h"
#include "exec/morsel.h"
#include "telemetry/telemetry.h"
#include "workload/sample_data.h"

namespace arraydb::exec {
namespace {

using array::Array;
using array::ArraySchema;
using array::AttrType;
using array::AttributeDesc;
using array::DimensionDesc;

ExecContext Opts(int threads, int64_t grain) {
  ExecContext opts;
  opts.data_plane_threads = threads;
  opts.morsel_grain = grain;
  return opts;
}

// threads = 1 (the sequential definition), 2, and 0 = all hardware.
std::vector<int> ThreadCounts() { return {1, 2, 0}; }
std::vector<int64_t> Grains() { return {192, 16384}; }

// DimJoinCount(a, b) and DimJoinCount(b, a) against the set spec at every
// (threads, grain) point.
void ExpectMatchesSetSpecEverywhere(const Array& a, const Array& b) {
  const int64_t want_ab = internal::DimJoinCountBySet(a, b);
  const int64_t want_ba = internal::DimJoinCountBySet(b, a);
  for (const int threads : ThreadCounts()) {
    for (const int64_t grain : Grains()) {
      EXPECT_EQ(DimJoinCount(a, b, Opts(threads, grain)), want_ab)
          << "threads=" << threads << " grain=" << grain;
      EXPECT_EQ(DimJoinCount(b, a, Opts(threads, grain)), want_ba)
          << "swapped, threads=" << threads << " grain=" << grain;
    }
  }
}

// Two overlapping 3-D sample arrays: the MODIS band and a second band
// shifted in time so the position intersection is a strict subset of both.
class JoinInvarianceTest : public ::testing::Test {
 protected:
  JoinInvarianceTest()
      : modis_(workload::MakeSmallModisBand(/*days=*/4, /*seed=*/2014)),
        other_(workload::MakeSmallModisBand(/*days=*/3, /*seed=*/77)),
        ais_(workload::MakeSmallAisTracks(/*months=*/4, /*ships=*/90,
                                          /*seed=*/29)) {}

  Array modis_;
  Array other_;
  Array ais_;
};

TEST_F(JoinInvarianceTest, DimJoinMatchesSetSpecEverywhere) {
  // The set join is the semantics oracle; the merge join must reproduce
  // it exactly at every (threads, grain) point, with either side first.
  ASSERT_GT(internal::DimJoinCountBySet(modis_, other_), 0);  // Overlap.
  ExpectMatchesSetSpecEverywhere(modis_, other_);
}

TEST_F(JoinInvarianceTest, DimJoinSelfJoinCountsEveryCell) {
  // Self-join touches every position: every chunk pairs, 100% hit rate.
  const int64_t want = internal::DimJoinCountBySet(ais_, ais_);
  for (const int threads : ThreadCounts()) {
    for (const int64_t grain : Grains()) {
      EXPECT_EQ(DimJoinCount(ais_, ais_, Opts(threads, grain)), want)
          << "threads=" << threads << " grain=" << grain;
    }
  }
}

TEST_F(JoinInvarianceTest, AttrJoinInvariantAndLlroundKeyed) {
  // Reference: llround semantics applied cell by cell.
  std::unordered_set<int64_t> keys;
  for (int64_t k = 0; k <= 40; ++k) keys.insert(k);
  int64_t want = 0;
  for (const auto& cell : ais_.AllCells()) {
    const double v = cell.values[0];
    if (std::isfinite(v) && keys.contains(std::llround(v))) ++want;
  }
  ASSERT_GT(want, 0);
  for (const int threads : ThreadCounts()) {
    for (const int64_t grain : Grains()) {
      EXPECT_EQ(AttrJoinCount(ais_, 0, keys, Opts(threads, grain)), want)
          << "threads=" << threads << " grain=" << grain;
    }
  }
}

// -- Edges ------------------------------------------------------------------

TEST_F(JoinInvarianceTest, EmptyArraysJoinEmpty) {
  const Array empty(modis_.schema());
  EXPECT_EQ(DimJoinCount(empty, modis_, Opts(2, 192)), 0);
  EXPECT_EQ(DimJoinCount(modis_, empty, Opts(2, 192)), 0);
  EXPECT_EQ(DimJoinCount(empty, empty, Opts(2, 192)), 0);
  EXPECT_EQ(AttrJoinCount(empty, 0, {1, 2, 3}), 0);
  EXPECT_EQ(AttrJoinCount(ais_, 0, {}), 0);
}

TEST_F(JoinInvarianceTest, RankMismatchJoinsEmpty) {
  // A 2-D array never shares a position with a 3-D array: the join is
  // empty by definition, not a crash.
  ArraySchema schema("flat", {DimensionDesc{"x", 0, 31, 4, false},
                              DimensionDesc{"y", 0, 15, 4, false}},
                     {AttributeDesc{"v", AttrType::kDouble}});
  Array flat(schema);
  ASSERT_TRUE(flat.InsertCell({3, 3}, {1.0}).ok());
  EXPECT_EQ(DimJoinCount(flat, modis_, Opts(2, 192)), 0);
  EXPECT_EQ(DimJoinCount(modis_, flat, Opts(2, 192)), 0);
}

TEST(JoinEdgeTest, NegativeCoordinatesJoinCorrectly) {
  // Longitude-style dimensions centered on zero: chunk coordinates and
  // positions go negative on both sides.
  ArraySchema schema("lonlat", {DimensionDesc{"lon", -180, 179, 8, false},
                                DimensionDesc{"lat", -90, 89, 8, false}},
                     {AttributeDesc{"v", AttrType::kDouble}});
  Array a(schema);
  Array b(schema);
  for (int64_t lon = -20; lon <= 20; ++lon) {
    ASSERT_TRUE(a.InsertCell({lon, -lon / 2}, {1.0}).ok());
  }
  for (int64_t lon = -5; lon <= 30; ++lon) {
    ASSERT_TRUE(b.InsertCell({lon, -lon / 2}, {2.0}).ok());
  }
  const int64_t want = internal::DimJoinCountBySet(a, b);
  EXPECT_EQ(want, 26);  // lon in [-5, 20].
  ExpectMatchesSetSpecEverywhere(a, b);
}

TEST(JoinEdgeTest, DifferentGridsTakeTheSetJoin) {
  // Same rank, different chunk boundaries: a position may sit in chunks
  // at different coordinates on the two sides, so the merge join cannot
  // pair them and the set join runs instead.
  const auto make = [](int64_t lo, int64_t interval, int64_t step) {
    ArraySchema schema("grid", {DimensionDesc{"x", lo, 63, interval, false},
                                DimensionDesc{"y", lo, 63, interval, false}},
                       {AttributeDesc{"v", AttrType::kDouble}});
    Array a(schema);
    for (int64_t x = 1; x < 64; x += step) {
      for (int64_t y = 1; y < 64; y += step) {
        EXPECT_TRUE(a.InsertCell({x, y}, {1.0}).ok());
      }
    }
    return a;
  };
  const Array by4 = make(0, 4, 2);
  const Array by8 = make(0, 8, 3);
  const Array shifted = make(1, 4, 3);
  for (const Array* other : {&by8, &shifted}) {
    ASSERT_GT(internal::DimJoinCountBySet(by4, *other), 0);
    ExpectMatchesSetSpecEverywhere(by4, *other);
  }
#if ARRAYDB_TELEMETRY_ENABLED
  telemetry::ScopedEnabled on(true);
  telemetry::Counter& fallbacks =
      telemetry::Registry::Global().counter("exec.join.set_fallbacks");
  const int64_t before = fallbacks.Value();
  EXPECT_EQ(DimJoinCount(by4, by8), internal::DimJoinCountBySet(by4, by8));
  EXPECT_EQ(DimJoinCount(shifted, by4),
            internal::DimJoinCountBySet(shifted, by4));
  EXPECT_EQ(fallbacks.Value(), before + 2);
  // One grid: the merge join, no fallback.
  const Array same_grid = make(0, 4, 3);
  EXPECT_EQ(DimJoinCount(by4, same_grid),
            internal::DimJoinCountBySet(by4, same_grid));
  EXPECT_EQ(fallbacks.Value(), before + 2);
#endif
}

TEST(JoinEdgeTest, WideUnboundedDimensionJoinsExactly) {
  // One unbounded dimension whose cells lie up to the top of int64 apart:
  // both arrays share one grid, so the merge join pairs the far chunks
  // and still counts exactly.
  ArraySchema schema("wide", {DimensionDesc{"t", 0, 0, 1024, true}},
                     {AttributeDesc{"v", AttrType::kDouble}});
  for (const int64_t x : {(int64_t{1} << 32) - 1, int64_t{1} << 33,
                          (int64_t{1} << 62) + 5,
                          std::numeric_limits<int64_t>::max()}) {
    Array a(schema);
    Array b(schema);
    ASSERT_TRUE(a.InsertCell({0}, {1.0}).ok());
    ASSERT_TRUE(a.InsertCell({x}, {2.0}).ok());
    ASSERT_TRUE(b.InsertCell({x}, {3.0}).ok());
    ASSERT_TRUE(b.InsertCell({0}, {4.0}).ok());
    ASSERT_TRUE(b.InsertCell({5}, {5.0}).ok());
    const int64_t want = internal::DimJoinCountBySet(a, b);
    EXPECT_EQ(want, 2) << "x=" << x;
    SCOPED_TRACE("x=" + std::to_string(x));
    ExpectMatchesSetSpecEverywhere(a, b);
  }
  Array low(schema);
  EXPECT_EQ(low.InsertCell({std::numeric_limits<int64_t>::min()}, {1.0})
                .code(),
            util::StatusCode::kOutOfRange);
}

// -- Multiplicity semantics (pinned) ----------------------------------------

namespace {

// Positions [0, n), each stored `copies_per_pos` times, inserted in
// ascending order or, with `descending`, from n - 1 down to 0: then every
// chunk holds its cells in reverse position order.
Array MakeLine(int64_t n, int copies_per_pos, bool descending = false) {
  ArraySchema schema("line", {DimensionDesc{"x", 0, 63, 8, false}},
                     {AttributeDesc{"v", AttrType::kDouble}});
  Array a(schema);
  for (int64_t i = 0; i < n; ++i) {
    const int64_t x = descending ? n - 1 - i : i;
    for (int c = 0; c < copies_per_pos; ++c) {
      EXPECT_TRUE(a.InsertCell({x}, {static_cast<double>(x)}).ok());
    }
  }
  return a;
}

}  // namespace

TEST(JoinMultiplicityTest, BuildSideDuplicatesCountOnce) {
  // dup has 5 positions x 2 copies = 10 cells; wide has 20 cells, so dup
  // builds. Its duplicates collapse into the key set: every distinct
  // probe-side position in [0, 5) matches exactly once.
  const Array dup = MakeLine(5, /*copies_per_pos=*/2);
  const Array wide = MakeLine(20, /*copies_per_pos=*/1);
  ASSERT_LE(dup.total_cells(), wide.total_cells());
  EXPECT_EQ(internal::DimJoinCountBySet(dup, wide), 5);
  ExpectMatchesSetSpecEverywhere(dup, wide);
}

TEST(JoinMultiplicityTest, ProbeSideDuplicatesEachCount) {
  // small (3 cells) builds; dup probes with 3 copies of each position in
  // [0, 8): positions 0..2 match, each copy counts -> 9.
  const Array small = MakeLine(3, /*copies_per_pos=*/1);
  const Array dup = MakeLine(8, /*copies_per_pos=*/3);
  ASSERT_LE(small.total_cells(), dup.total_cells());
  EXPECT_EQ(internal::DimJoinCountBySet(small, dup), 9);
  ExpectMatchesSetSpecEverywhere(small, dup);
}

TEST(JoinMultiplicityTest, DescendingDuplicatesOnBothSides) {
  // Cells stored in reverse position order within each chunk, with
  // duplicates on both sides: the per-pair sort must bring equal
  // positions together. down (3 copies of [0, 10), 30 cells) builds
  // against up (2 copies of [0, 20), 40 cells): positions 0..9 match, and
  // each of up's 2 copies counts once -> 20.
  const Array down = MakeLine(10, /*copies_per_pos=*/3, /*descending=*/true);
  const Array up = MakeLine(20, /*copies_per_pos=*/2, /*descending=*/true);
  ASSERT_LE(down.total_cells(), up.total_cells());
  EXPECT_EQ(internal::DimJoinCountBySet(down, up), 20);
  ExpectMatchesSetSpecEverywhere(down, up);
  // Same cell counts: the first argument builds in either order.
  const Array asc = MakeLine(15, /*copies_per_pos=*/2);
  ASSERT_EQ(asc.total_cells(), down.total_cells());
  EXPECT_EQ(internal::DimJoinCountBySet(down, asc), 20);
  EXPECT_EQ(internal::DimJoinCountBySet(asc, down), 30);
  ExpectMatchesSetSpecEverywhere(down, asc);
}

TEST(JoinMultiplicityTest, TiesBuildTheFirstArgument) {
  // Equal cell counts: `a` builds. With a's duplicates collapsing and b's
  // counting per cell, the two argument orders give different counts —
  // the tie rule is observable and must match the set spec in both.
  const Array dup = MakeLine(3, /*copies_per_pos=*/2);    // 6 cells.
  const Array plain = MakeLine(6, /*copies_per_pos=*/1);  // 6 cells.
  ASSERT_EQ(dup.total_cells(), plain.total_cells());
  // dup builds -> 3 distinct keys, probe cells 0..2 match -> 3.
  EXPECT_EQ(internal::DimJoinCountBySet(dup, plain), 3);
  // plain builds -> 6 keys, probe cells are 2 copies of 0..2 -> 6.
  EXPECT_EQ(internal::DimJoinCountBySet(plain, dup), 6);
  ExpectMatchesSetSpecEverywhere(dup, plain);
}

// -- AttrJoinKey (llround) semantics ----------------------------------------

TEST(AttrJoinKeyTest, RoundsHalfAwayFromZero) {
  const std::vector<std::pair<double, int64_t>> cases = {
      {-1.5, -2}, {-0.5, -1}, {-0.4, 0}, {0.0, 0},
      {0.4, 0},   {0.5, 1},   {1.5, 2},  {2.5, 3}};
  for (const auto& [value, want] : cases) {
    int64_t key = 99;
    ASSERT_TRUE(AttrJoinKey(value, &key)) << value;
    EXPECT_EQ(key, want) << value;
  }
}

TEST(AttrJoinKeyTest, NonFiniteAndHugeValuesNeverMatch) {
  int64_t key = 0;
  EXPECT_FALSE(AttrJoinKey(std::numeric_limits<double>::quiet_NaN(), &key));
  EXPECT_FALSE(AttrJoinKey(std::numeric_limits<double>::infinity(), &key));
  EXPECT_FALSE(AttrJoinKey(-std::numeric_limits<double>::infinity(), &key));
  EXPECT_FALSE(AttrJoinKey(1e19, &key));
  EXPECT_FALSE(AttrJoinKey(-1e19, &key));
  // Inside the window everything rounds.
  EXPECT_TRUE(AttrJoinKey(4.0e18, &key));
  EXPECT_EQ(key, 4000000000000000000);
}

// -- FlatKeySet --------------------------------------------------------------

TEST(FlatKeySetTest, InsertContainsGrowAndZeroKey) {
  FlatKeySet set;
  EXPECT_FALSE(set.Contains(0));
  EXPECT_EQ(set.size(), 0u);
  // Zero is a real key, distinct from the empty-slot sentinel.
  set.Insert(0);
  EXPECT_TRUE(set.Contains(0));
  EXPECT_EQ(set.size(), 1u);
  set.Insert(0);  // Duplicate: no growth.
  EXPECT_EQ(set.size(), 1u);
  // Enough keys to force several grows past the initial capacity.
  for (uint64_t k = 1; k <= 1000; ++k) set.Insert(k * 0x9e3779b97f4a7c15ULL);
  EXPECT_EQ(set.size(), 1001u);
  for (uint64_t k = 1; k <= 1000; ++k) {
    ASSERT_TRUE(set.Contains(k * 0x9e3779b97f4a7c15ULL)) << k;
  }
  EXPECT_FALSE(set.Contains(12345));
  EXPECT_TRUE(set.Contains(0));
}

TEST(FlatKeySetTest, ReserveSizesForTheLoadFactor) {
  FlatKeySet set;
  set.Reserve(1000);
  for (uint64_t k = 0; k < 1000; ++k) set.Insert(k | (k << 32));
  EXPECT_EQ(set.size(), 1000u);
  for (uint64_t k = 0; k < 1000; ++k) {
    ASSERT_TRUE(set.Contains(k | (k << 32)));
  }
}

}  // namespace
}  // namespace arraydb::exec

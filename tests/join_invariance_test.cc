// Invariance suite for the radix-partitioned rank-key joins (exec/join.h):
// DimJoinCount and AttrJoinCount must be bit-identical across thread
// counts, morsel grains, AND partition-bit settings — and must agree
// exactly with the retired unordered_set implementation, which stays in
// the tree as the executable multiplicity-semantics specification
// (internal::DimJoinCountBySet). Small grains force genuinely multi-morsel
// builds and probes on the sample workloads, so the parallel partition
// scatter, table build, and probe paths are exercised for real (this
// suite runs under the TSan CI job).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <unordered_set>
#include <vector>

#include "array/array.h"
#include "exec/join.h"
#include "exec/morsel.h"
#include "workload/sample_data.h"

namespace arraydb::exec {
namespace {

using array::Array;
using array::ArraySchema;
using array::AttrType;
using array::AttributeDesc;
using array::DimensionDesc;

ExecContext Opts(int threads, int64_t grain, int partition_bits) {
  ExecContext opts;
  opts.data_plane_threads = threads;
  opts.morsel_grain = grain;
  opts.join_partition_bits = partition_bits;
  return opts;
}

// threads = 1 (the sequential definition), 2, and 0 = all hardware.
std::vector<int> ThreadCounts() { return {1, 2, 0}; }
std::vector<int64_t> Grains() { return {192, 16384}; }
std::vector<int> PartitionBits() { return {0, 4, 8}; }

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
  // The retired set join is the semantics oracle; the radix join must
  // reproduce it exactly at every (threads, grain, partition bits) point,
  // with either side passed first.
  const int64_t want = internal::DimJoinCountBySet(modis_, other_);
  ASSERT_GT(want, 0);  // The bands overlap; a zero join would test nothing.
  for (const int threads : ThreadCounts()) {
    for (const int64_t grain : Grains()) {
      for (const int bits : PartitionBits()) {
        EXPECT_EQ(DimJoinCount(modis_, other_, Opts(threads, grain, bits)),
                  want)
            << "threads=" << threads << " grain=" << grain
            << " bits=" << bits;
        EXPECT_EQ(DimJoinCount(other_, modis_, Opts(threads, grain, bits)),
                  want)
            << "swapped, threads=" << threads << " grain=" << grain
            << " bits=" << bits;
      }
    }
  }
}

TEST_F(JoinInvarianceTest, DimJoinSelfJoinCountsEveryCell) {
  // Self-join touches every position: a different load profile for the
  // partition tables (100% hit rate).
  const int64_t want = internal::DimJoinCountBySet(ais_, ais_);
  for (const int threads : ThreadCounts()) {
    for (const int bits : PartitionBits()) {
      EXPECT_EQ(DimJoinCount(ais_, ais_, Opts(threads, 192, bits)), want)
          << "threads=" << threads << " bits=" << bits;
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
      for (const int bits : PartitionBits()) {
        EXPECT_EQ(AttrJoinCount(ais_, 0, keys, Opts(threads, grain, bits)),
                  want)
            << "threads=" << threads << " grain=" << grain
            << " bits=" << bits;
      }
    }
  }
}

// -- Edges ------------------------------------------------------------------

TEST_F(JoinInvarianceTest, EmptyArraysJoinEmpty) {
  const Array empty(modis_.schema());
  for (const int bits : PartitionBits()) {
    EXPECT_EQ(DimJoinCount(empty, modis_, Opts(2, 192, bits)), 0);
    EXPECT_EQ(DimJoinCount(modis_, empty, Opts(2, 192, bits)), 0);
    EXPECT_EQ(DimJoinCount(empty, empty, Opts(2, 192, bits)), 0);
  }
  EXPECT_EQ(AttrJoinCount(empty, 0, {1, 2, 3}), 0);
  EXPECT_EQ(AttrJoinCount(ais_, 0, {}), 0);
}

TEST_F(JoinInvarianceTest, RankMismatchJoinsEmpty) {
  // A 2-D array never shares a position with a 3-D array: the join is
  // empty by definition, not a crash, at every partition setting.
  ArraySchema schema("flat", {DimensionDesc{"x", 0, 31, 4, false},
                              DimensionDesc{"y", 0, 15, 4, false}},
                     {AttributeDesc{"v", AttrType::kDouble}});
  Array flat(schema);
  ASSERT_TRUE(flat.InsertCell({3, 3}, {1.0}).ok());
  for (const int bits : PartitionBits()) {
    EXPECT_EQ(DimJoinCount(flat, modis_, Opts(2, 192, bits)), 0);
    EXPECT_EQ(DimJoinCount(modis_, flat, Opts(2, 192, bits)), 0);
  }
}

TEST(JoinEdgeTest, NegativeCoordinatesKeyCorrectly) {
  // Longitude-style dimensions centered on zero: the join key space must
  // offset coordinates by the union bounding box's low corner, not assume
  // non-negative inputs.
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
  for (const int threads : {1, 2, 0}) {
    for (const int bits : {0, 4, 8}) {
      EXPECT_EQ(DimJoinCount(a, b, Opts(threads, 192, bits)), want)
          << "threads=" << threads << " bits=" << bits;
    }
  }
}

TEST(JoinEdgeTest, WideKeySpaceFallsBackToTheSetJoin) {
  // One unbounded dimension spanning more than 2^32 cells cannot be ranked
  // in the codec's uint32 lanes: the join must take the set fallback and
  // still count exactly, up to the top of int64. A span of exactly 2^32
  // cells is the widest the rank path keys.
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
    for (const int bits : PartitionBits()) {
      EXPECT_EQ(DimJoinCount(a, b, Opts(2, 192, bits)), want)
          << "x=" << x << " bits=" << bits;
    }
  }
  Array low(schema);
  EXPECT_EQ(low.InsertCell({std::numeric_limits<int64_t>::min()}, {1.0})
                .code(),
            util::StatusCode::kOutOfRange);
}

// -- Multiplicity semantics (pinned) ----------------------------------------

namespace {

Array MakeLine(int64_t n, int copies_per_pos) {
  ArraySchema schema("line", {DimensionDesc{"x", 0, 63, 8, false}},
                     {AttributeDesc{"v", AttrType::kDouble}});
  Array a(schema);
  for (int64_t x = 0; x < n; ++x) {
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
  for (const int bits : {0, 4, 8}) {
    EXPECT_EQ(DimJoinCount(dup, wide, Opts(2, 192, bits)), 5)
        << "bits=" << bits;
  }
  EXPECT_EQ(internal::DimJoinCountBySet(dup, wide), 5);
}

TEST(JoinMultiplicityTest, ProbeSideDuplicatesEachCount) {
  // small (3 cells) builds; dup probes with 3 copies of each position in
  // [0, 8): positions 0..2 match, each copy counts -> 9.
  const Array small = MakeLine(3, /*copies_per_pos=*/1);
  const Array dup = MakeLine(8, /*copies_per_pos=*/3);
  ASSERT_LE(small.total_cells(), dup.total_cells());
  for (const int bits : {0, 4, 8}) {
    EXPECT_EQ(DimJoinCount(small, dup, Opts(2, 192, bits)), 9)
        << "bits=" << bits;
  }
  EXPECT_EQ(internal::DimJoinCountBySet(small, dup), 9);
}

TEST(JoinMultiplicityTest, TiesBuildTheFirstArgument) {
  // Equal cell counts: `a` builds. With a's duplicates collapsing and b's
  // counting per cell, the two argument orders give different counts —
  // the tie rule is observable and must match the set spec in both.
  const Array dup = MakeLine(3, /*copies_per_pos=*/2);    // 6 cells.
  const Array plain = MakeLine(6, /*copies_per_pos=*/1);  // 6 cells.
  ASSERT_EQ(dup.total_cells(), plain.total_cells());
  // dup builds -> 3 distinct keys, probe cells 0..2 match -> 3.
  EXPECT_EQ(DimJoinCount(dup, plain, Opts(2, 192, 4)), 3);
  EXPECT_EQ(internal::DimJoinCountBySet(dup, plain), 3);
  // plain builds -> 6 keys, probe cells are 2 copies of 0..2 -> 6.
  EXPECT_EQ(DimJoinCount(plain, dup, Opts(2, 192, 4)), 6);
  EXPECT_EQ(internal::DimJoinCountBySet(plain, dup), 6);
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

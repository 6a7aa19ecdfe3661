// Unit tests for Array and Chunk: sparse storage, the chunk directory,
// and footprint accounting.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "array/array.h"
#include "exec/operators.h"
#include "util/rng.h"

namespace arraydb::array {
namespace {

ArraySchema SmallSchema() {
  return ArraySchema(
      "A",
      {DimensionDesc{"x", 1, 4, 2, false}, DimensionDesc{"y", 1, 4, 2, false}},
      {AttributeDesc{"i", AttrType::kInt32},
       AttributeDesc{"j", AttrType::kFloat}});
}

TEST(ArrayTest, InsertRoutesCellsToChunks) {
  Array a(SmallSchema());
  // The six occupied cells of the paper's Figure 1.
  ASSERT_TRUE(a.InsertCell({1, 1}, {1.0, 1.3}).ok());
  ASSERT_TRUE(a.InsertCell({3, 2}, {9.0, 2.7}).ok());
  ASSERT_TRUE(a.InsertCell({3, 3}, {4.0, 3.5}).ok());
  ASSERT_TRUE(a.InsertCell({4, 3}, {3.0, 4.2}).ok());
  ASSERT_TRUE(a.InsertCell({3, 4}, {7.0, 7.2}).ok());
  ASSERT_TRUE(a.InsertCell({4, 4}, {6.0, 2.5}).ok());

  EXPECT_EQ(a.total_cells(), 6);
  // Figure 1 stores data in 3 of the 4 chunks (the (0,1) chunk is empty).
  EXPECT_EQ(a.num_chunks(), 3);
  EXPECT_EQ(a.total_bytes(), 6 * a.schema().BytesPerCell());

  const Chunk* c00 = a.FindChunk({0, 0});
  ASSERT_NE(c00, nullptr);
  EXPECT_EQ(c00->cell_count(), 1);  // Only (1,1) falls in the first chunk.
  const Chunk* c11 = a.FindChunk({1, 1});
  ASSERT_NE(c11, nullptr);
  EXPECT_EQ(c11->cell_count(), 4);  // The dense center of Figure 1.
}

TEST(ArrayTest, ChunkAssignmentMatchesSchema) {
  Array a(SmallSchema());
  ASSERT_TRUE(a.InsertCell({1, 1}, {0.0, 0.0}).ok());
  ASSERT_TRUE(a.InsertCell({2, 2}, {0.0, 0.0}).ok());
  ASSERT_TRUE(a.InsertCell({3, 3}, {0.0, 0.0}).ok());
  EXPECT_NE(a.FindChunk({0, 0}), nullptr);
  EXPECT_NE(a.FindChunk({1, 1}), nullptr);
  EXPECT_EQ(a.FindChunk({0, 1}), nullptr);
  EXPECT_EQ(a.FindChunk({1, 0}), nullptr);
}

TEST(ArrayTest, RejectsOutOfRangeAndMalformedCells) {
  Array a(SmallSchema());
  EXPECT_FALSE(a.InsertCell({0, 1}, {0.0, 0.0}).ok());   // Below lo.
  EXPECT_FALSE(a.InsertCell({5, 1}, {0.0, 0.0}).ok());   // Above hi.
  EXPECT_FALSE(a.InsertCell({1}, {0.0, 0.0}).ok());      // Wrong rank.
  EXPECT_FALSE(a.InsertCell({1, 1}, {0.0}).ok());        // Wrong attr count.
  EXPECT_EQ(a.total_cells(), 0);
}

TEST(ArrayTest, RejectsCellWhoseChunkIndexOverflows) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  // Unbounded time from -1 at interval 1: INT64_MAX lies 2^63 cells past lo
  // and used to be filed under chunk INT64_MIN.
  Array a(ArraySchema("T", {DimensionDesc{"t", -1, 0, 1, true}},
                      {AttributeDesc{"v", AttrType::kDouble}}));
  EXPECT_EQ(a.InsertCell({kMax}, {1.0}).code(), util::StatusCode::kOutOfRange);
  EXPECT_EQ(a.total_cells(), 0);
  EXPECT_EQ(a.num_chunks(), 0);
  // One cell lower fits, at the largest chunk index.
  ASSERT_TRUE(a.InsertCell({kMax - 1}, {1.0}).ok());
  EXPECT_NE(a.FindChunk({kMax}), nullptr);

  // The widest valid bounded dimension stores its last cell in its last
  // chunk.
  Array widest(ArraySchema("W", {DimensionDesc{"x", 0, kMax - 1, 1, false}},
                           {AttributeDesc{"v", AttrType::kDouble}}));
  ASSERT_TRUE(widest.InsertCell({kMax - 1}, {2.0}).ok());
  EXPECT_NE(widest.FindChunk({kMax - 1}), nullptr);
  EXPECT_EQ(widest.InsertCell({kMax}, {2.0}).code(),
            util::StatusCode::kOutOfRange);
}

TEST(ArrayTest, ChunkInfosAreSortedAndComplete) {
  Array a(SmallSchema());
  // Chunks created out of coordinate order: (1,1), (0,0), (1,0).
  ASSERT_TRUE(a.InsertCell({3, 3}, {1.0, 1.0}).ok());
  ASSERT_TRUE(a.InsertCell({4, 4}, {2.0, 2.0}).ok());
  ASSERT_TRUE(a.InsertCell({1, 2}, {3.0, 3.0}).ok());
  ASSERT_TRUE(a.InsertCell({3, 1}, {4.0, 4.0}).ok());
  const auto infos = a.ChunkInfos();
  ASSERT_EQ(infos.size(), 3u);
  EXPECT_EQ(infos[0].coords, (Coordinates{0, 0}));
  EXPECT_EQ(infos[1].coords, (Coordinates{1, 0}));
  EXPECT_EQ(infos[2].coords, (Coordinates{1, 1}));
  EXPECT_EQ(infos[2].cell_count, 2);
  EXPECT_EQ(infos[2].bytes, 2 * a.schema().BytesPerCell());
}

// Every chunk in the directory holds at least one cell, counts its cells
// once, and has a bounding box over exactly its cells.
void ExpectEveryChunkHoldsCells(const Array& a) {
  int64_t cells = 0;
  for (const Chunk* chunk : a.SortedChunks()) {
    SCOPED_TRACE(CoordinatesToString(chunk->coords()));
    ASSERT_GE(chunk->num_cells(), 1u);
    EXPECT_EQ(static_cast<int64_t>(chunk->num_cells()), chunk->cell_count());
    EXPECT_EQ(chunk->bytes(),
              chunk->cell_count() * a.schema().BytesPerCell());
    const size_t ndims = chunk->num_dims();
    ASSERT_EQ(chunk->bbox_lo().size(), ndims);
    ASSERT_EQ(chunk->bbox_hi().size(), ndims);
    Coordinates lo(chunk->cell_pos(0), chunk->cell_pos(0) + ndims);
    Coordinates hi = lo;
    for (size_t i = 0; i < chunk->num_cells(); ++i) {
      const int64_t* pos = chunk->cell_pos(i);
      EXPECT_EQ(a.schema().ChunkOf(Coordinates(pos, pos + ndims)),
                chunk->coords());
      for (size_t d = 0; d < ndims; ++d) {
        lo[d] = std::min(lo[d], pos[d]);
        hi[d] = std::max(hi[d], pos[d]);
      }
    }
    EXPECT_EQ(chunk->bbox_lo(), lo);
    EXPECT_EQ(chunk->bbox_hi(), hi);
    cells += chunk->cell_count();
  }
  EXPECT_EQ(cells, a.total_cells());
}

// The operators read the directory without filtering it, which is sound
// only if no insert path creates a chunk without a cell: a rejected insert
// must leave the directory exactly as it was.
TEST(ArrayTest, RejectedInsertsLeaveTheDirectoryUnchanged) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  // Unbounded time from -1 at interval 1 (INT64_MAX overflows its chunk
  // index) by a bounded x.
  Array a(ArraySchema("I",
                      {DimensionDesc{"t", -1, 0, 1, true},
                       DimensionDesc{"x", 0, 9, 3, false}},
                      {AttributeDesc{"u", AttrType::kDouble},
                       AttributeDesc{"v", AttrType::kDouble}}));
  struct Rejected {
    const char* what;
    Coordinates pos;
    std::vector<double> values;
    util::StatusCode code;
  };
  const std::vector<Rejected> rejected = {
      {"rank too low", {3}, {1.0, 2.0}, util::StatusCode::kInvalidArgument},
      {"rank too high", {3, 4, 5}, {1.0, 2.0},
       util::StatusCode::kInvalidArgument},
      {"too few attributes", {3, 4}, {1.0},
       util::StatusCode::kInvalidArgument},
      {"too many attributes", {3, 4}, {1.0, 2.0, 3.0},
       util::StatusCode::kInvalidArgument},
      {"below lo", {-2, 4}, {1.0, 2.0}, util::StatusCode::kOutOfRange},
      {"x below lo", {3, -1}, {1.0, 2.0}, util::StatusCode::kOutOfRange},
      {"x above hi", {3, 10}, {1.0, 2.0}, util::StatusCode::kOutOfRange},
      {"chunk index overflow", {kMax, 4}, {1.0, 2.0},
       util::StatusCode::kOutOfRange},
  };
  util::Rng rng(28);
  for (int step = 0; step < 600; ++step) {
    if (rng.NextBounded(3) != 0) {
      const Coordinates pos = {
          -1 + static_cast<int64_t>(rng.NextBounded(40)),
          static_cast<int64_t>(rng.NextBounded(10))};
      ASSERT_TRUE(a.InsertCell(pos, {static_cast<double>(step), 0.5}).ok());
      continue;
    }
    const Rejected& r = rejected[rng.NextBounded(rejected.size())];
    SCOPED_TRACE(r.what);
    const std::vector<const Chunk*> dir_before = a.SortedChunks();
    const int64_t chunks_before = a.num_chunks();
    const int64_t cells_before = a.total_cells();
    const int64_t bytes_before = a.total_bytes();
    EXPECT_EQ(a.InsertCell(r.pos, r.values).code(), r.code);
    EXPECT_EQ(a.num_chunks(), chunks_before);
    EXPECT_EQ(a.SortedChunks(), dir_before);
    EXPECT_EQ(a.total_cells(), cells_before);
    EXPECT_EQ(a.total_bytes(), bytes_before);
  }
  // Each rejection also leaves an empty array empty.
  Array empty(a.schema());
  for (const Rejected& r : rejected) {
    EXPECT_EQ(empty.InsertCell(r.pos, r.values).code(), r.code) << r.what;
  }
  EXPECT_EQ(empty.num_chunks(), 0);
  EXPECT_TRUE(empty.SortedChunks().empty());

  ASSERT_GT(a.num_chunks(), 1);
  ExpectEveryChunkHoldsCells(a);
}

TEST(ArrayTest, AllCellsSeesEveryInsert) {
  Array a(SmallSchema());
  ASSERT_TRUE(a.InsertCell({1, 1}, {1.0, 2.0}).ok());
  ASSERT_TRUE(a.InsertCell({4, 4}, {3.0, 4.0}).ok());
  const auto cells = a.AllCells();
  EXPECT_EQ(cells.size(), 2u);
}

// The directory holds every chunk once, in strictly increasing coordinate
// order, each entry pointing at the array's own chunk.
void ExpectDirectoryConsistent(const Array& a) {
  const std::vector<const Chunk*>& dir = a.SortedChunks();
  ASSERT_EQ(static_cast<int64_t>(dir.size()), a.num_chunks());
  for (size_t i = 0; i < dir.size(); ++i) {
    EXPECT_EQ(dir[i], a.FindChunk(dir[i]->coords()));
    if (i > 0) {
      EXPECT_TRUE(CoordinatesLess(dir[i - 1]->coords(), dir[i]->coords()));
    }
  }
}

Array MakeShuffledArray(uint64_t seed) {
  Array a(ArraySchema("S",
                      {DimensionDesc{"x", 0, 99, 3, false},
                       DimensionDesc{"y", 0, 99, 7, false}},
                      {AttributeDesc{"v", AttrType::kDouble}}));
  util::Rng rng(seed);
  for (int i = 0; i < 400; ++i) {
    const Coordinates pos = {static_cast<int64_t>(rng.NextBounded(100)),
                             static_cast<int64_t>(rng.NextBounded(100))};
    EXPECT_TRUE(a.InsertCell(pos, {static_cast<double>(i)}).ok());
  }
  // Then one cell in every fifth chunk of the top chunk row, after the
  // rest, so new chunks land in the middle of the directory.
  for (int64_t x = 0; x < 34; x += 5) {
    EXPECT_TRUE(a.InsertCell({3 * x, 98}, {static_cast<double>(x)}).ok());
  }
  return a;
}

TEST(ArrayTest, SortedChunksStayInOrderUnderAnyInsertOrder) {
  Array a = MakeShuffledArray(41);
  ExpectDirectoryConsistent(a);
  ExpectEveryChunkHoldsCells(a);
  // The returned reference follows later writes, in front and at the back.
  const std::vector<const Chunk*>& dir = a.SortedChunks();
  const size_t before = dir.size();
  ASSERT_EQ(a.FindChunk({33, 14}), nullptr);
  ASSERT_TRUE(a.InsertCell({99, 98}, {1.0}).ok());
  ASSERT_TRUE(a.InsertCell({0, 0}, {1.0}).ok());
  ASSERT_TRUE(a.InsertCell({99, 99}, {1.0}).ok());
  EXPECT_GE(dir.size(), before + 1);
  EXPECT_EQ(dir.back()->coords(), (Coordinates{33, 14}));
  ExpectDirectoryConsistent(a);
  ExpectEveryChunkHoldsCells(a);
}

TEST(ArrayTest, CopiesOwnTheirChunkDirectory) {
  auto source = std::make_unique<Array>(MakeShuffledArray(7));
  const std::vector<ChunkInfo> want_infos = source->ChunkInfos();
  const std::vector<Cell> want_cells = source->AllCells();
  const exec::CellBox box{{10, 20}, {60, 80}};
  const int64_t want_count = exec::FilterBoxCount(*source, box);
  ASSERT_GT(want_count, 0);

  Array copied(*source);
  Array assigned = MakeShuffledArray(8);
  assigned = *source;
  source.reset();  // Entries still pointing into the source now dangle.

  auto staging = std::make_unique<Array>(copied);
  Array moved(std::move(*staging));
  staging.reset();  // Moving keeps the chunk nodes, so nothing dangles.
  for (const Array* a : {&copied, &assigned, &moved}) {
    ExpectDirectoryConsistent(*a);
    const std::vector<ChunkInfo> infos = a->ChunkInfos();
    ASSERT_EQ(infos.size(), want_infos.size());
    for (size_t i = 0; i < infos.size(); ++i) {
      EXPECT_EQ(infos[i].coords, want_infos[i].coords);
      EXPECT_EQ(infos[i].cell_count, want_infos[i].cell_count);
    }
    const std::vector<Cell> cells = a->AllCells();
    ASSERT_EQ(cells.size(), want_cells.size());
    for (size_t i = 0; i < cells.size(); ++i) {
      EXPECT_EQ(cells[i].pos, want_cells[i].pos);
      EXPECT_EQ(cells[i].values, want_cells[i].values);
    }
    EXPECT_EQ(exec::FilterBoxCount(*a, box), want_count);
    EXPECT_EQ(exec::FilterBoxSpans(*a, box).num_cells(), want_count);
  }
  // A write to one copy leaves the others alone.
  ASSERT_TRUE(copied.InsertCell({50, 50}, {0.0}).ok());
  EXPECT_EQ(exec::FilterBoxCount(copied, box), want_count + 1);
  EXPECT_EQ(exec::FilterBoxCount(assigned, box), want_count);
}

TEST(ChunkTest, InfoToStringMentionsCoordinates) {
  ChunkInfo info{{3, 4}, 7, 123};
  const std::string s = info.ToString();
  EXPECT_NE(s.find("(3, 4)"), std::string::npos);
  EXPECT_NE(s.find("123"), std::string::npos);
}

}  // namespace
}  // namespace arraydb::array

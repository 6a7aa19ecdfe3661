// Unit tests for Array and Chunk: sparse storage, no-overwrite semantics,
// and footprint accounting.

#include <gtest/gtest.h>

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

TEST(ArrayTest, SyntheticChunksEnforceNoOverwrite) {
  Array a(SmallSchema());
  ChunkInfo info;
  info.coords = {0, 0};
  info.cell_count = 100;
  info.bytes = 800;
  ASSERT_TRUE(a.AddSyntheticChunk(info).ok());
  // No-overwrite storage model: re-adding the same chunk position fails.
  const auto again = a.AddSyntheticChunk(info);
  EXPECT_FALSE(again.ok());
  EXPECT_EQ(again.code(), util::StatusCode::kAlreadyExists);
  EXPECT_EQ(a.total_bytes(), 800);
}

TEST(ArrayTest, SyntheticChunkOutOfGridRejected) {
  Array a(SmallSchema());
  ChunkInfo info;
  info.coords = {7, 0};
  info.bytes = 1;
  EXPECT_FALSE(a.AddSyntheticChunk(info).ok());
}

TEST(ArrayTest, ChunkInfosAreSortedAndComplete) {
  Array a(SmallSchema());
  ASSERT_TRUE(a.AddSyntheticChunk({{1, 1}, 5, 50}).ok());
  ASSERT_TRUE(a.AddSyntheticChunk({{0, 0}, 2, 20}).ok());
  ASSERT_TRUE(a.AddSyntheticChunk({{1, 0}, 1, 10}).ok());
  const auto infos = a.ChunkInfos();
  ASSERT_EQ(infos.size(), 3u);
  EXPECT_EQ(infos[0].coords, (Coordinates{0, 0}));
  EXPECT_EQ(infos[1].coords, (Coordinates{1, 0}));
  EXPECT_EQ(infos[2].coords, (Coordinates{1, 1}));
  EXPECT_EQ(infos[2].bytes, 50);
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
  for (int64_t x = 0; x < 34; x += 5) {
    if (a.FindChunk({x, 14}) == nullptr) {
      EXPECT_TRUE(a.AddSyntheticChunk({{x, 14}, 3, 24}).ok());
    }
  }
  return a;
}

TEST(ArrayTest, SortedChunksStayInOrderUnderAnyInsertOrder) {
  Array a = MakeShuffledArray(41);
  ExpectDirectoryConsistent(a);
  // The returned reference follows later writes, in front and at the back.
  const std::vector<const Chunk*>& dir = a.SortedChunks();
  const size_t before = dir.size();
  ASSERT_TRUE(a.AddSyntheticChunk({{33, 14}, 1, 8}).ok());
  ASSERT_TRUE(a.InsertCell({0, 0}, {1.0}).ok());
  ASSERT_TRUE(a.InsertCell({99, 99}, {1.0}).ok());
  EXPECT_GE(dir.size(), before + 1);
  EXPECT_EQ(dir.back()->coords(), (Coordinates{33, 14}));
  ExpectDirectoryConsistent(a);
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

TEST(ChunkTest, SyntheticAndMaterializedModesAreExclusive) {
  Chunk c({0, 0});
  c.AppendCell({1, 1}, {1.0}, 8);
  EXPECT_EQ(c.cell_count(), 1);
  EXPECT_EQ(c.bytes(), 8);
  EXPECT_DEATH(c.SetSyntheticSize(10, 80), "CHECK");
}

TEST(ChunkTest, InfoToStringMentionsCoordinates) {
  ChunkInfo info{{3, 4}, 7, 123};
  const std::string s = info.ToString();
  EXPECT_NE(s.find("(3, 4)"), std::string::npos);
  EXPECT_NE(s.find("123"), std::string::npos);
}

}  // namespace
}  // namespace arraydb::array

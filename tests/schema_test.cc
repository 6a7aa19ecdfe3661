// Unit tests for ArraySchema: the SciDB-style declaration model of §2.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <utility>

#include "array/schema.h"

namespace arraydb::array {
namespace {

// The paper's Figure 1 example: A<i:int32, j:float>[x=1:4,2, y=1:4,2].
ArraySchema Figure1Schema() {
  return ArraySchema(
      "A",
      {DimensionDesc{"x", 1, 4, 2, false}, DimensionDesc{"y", 1, 4, 2, false}},
      {AttributeDesc{"i", AttrType::kInt32},
       AttributeDesc{"j", AttrType::kFloat}});
}

TEST(SchemaTest, Figure1RoundTrip) {
  const ArraySchema schema = Figure1Schema();
  EXPECT_TRUE(schema.Validate().ok());
  EXPECT_EQ(schema.ToString(), "A<i:int32,j:float>[x=1:4,2, y=1:4,2]");
  EXPECT_EQ(schema.num_dims(), 2);
  EXPECT_EQ(schema.num_attrs(), 2);
  EXPECT_EQ(schema.TotalChunkSlots(), 4);  // Four 2x2 chunks.
  EXPECT_EQ(schema.CellsPerChunkCap(), 4);
  EXPECT_EQ(schema.BytesPerCell(), 8);  // int32 + float.
}

TEST(SchemaTest, ChunkOfMapsCellsToChunks) {
  const ArraySchema schema = Figure1Schema();
  EXPECT_EQ(schema.ChunkOf({1, 1}), (Coordinates{0, 0}));
  EXPECT_EQ(schema.ChunkOf({2, 2}), (Coordinates{0, 0}));
  EXPECT_EQ(schema.ChunkOf({3, 1}), (Coordinates{1, 0}));
  EXPECT_EQ(schema.ChunkOf({4, 4}), (Coordinates{1, 1}));
}

TEST(SchemaTest, LinearizeIsBijective) {
  const ArraySchema schema(
      "B", {DimensionDesc{"x", 0, 29, 3, false},
            DimensionDesc{"y", 0, 19, 4, false},
            DimensionDesc{"z", 0, 9, 2, false}},
      {AttributeDesc{"v", AttrType::kDouble}});
  const int64_t slots = schema.TotalChunkSlots();
  EXPECT_EQ(slots, 10 * 5 * 5);
  for (int64_t i = 0; i < slots; ++i) {
    const Coordinates c = schema.DelinearizeChunkIndex(i);
    EXPECT_EQ(schema.LinearizeChunkIndex(c), i);
    EXPECT_TRUE(schema.ChunkInBounds(c));
  }
}

TEST(SchemaTest, ChunkCountRoundsUp) {
  DimensionDesc d{"x", 0, 9, 4, false};  // Extent 10, interval 4 -> 3 chunks.
  EXPECT_EQ(d.ChunkCount(), 3);
  EXPECT_EQ(d.ChunkIndexOf(0), 0);
  EXPECT_EQ(d.ChunkIndexOf(3), 0);
  EXPECT_EQ(d.ChunkIndexOf(4), 1);
  EXPECT_EQ(d.ChunkIndexOf(9), 2);
  EXPECT_EQ(d.ChunkLow(2), 8);
}

TEST(SchemaTest, NegativeOriginDimension) {
  // Longitude-style dimension: -180..180 with a 12-degree stride.
  DimensionDesc lon{"longitude", -180, 180, 12, false};
  EXPECT_EQ(lon.Extent(), 361);
  EXPECT_EQ(lon.ChunkCount(), 31);
  EXPECT_EQ(lon.ChunkIndexOf(-180), 0);
  EXPECT_EQ(lon.ChunkIndexOf(-169), 0);
  EXPECT_EQ(lon.ChunkIndexOf(-168), 1);
  EXPECT_EQ(lon.ChunkIndexOf(0), 15);
  EXPECT_EQ(lon.ChunkIndexOf(180), 30);
}

TEST(SchemaTest, ValidationCatchesErrors) {
  EXPECT_FALSE(ArraySchema("", {DimensionDesc{"x", 0, 1, 1, false}},
                           {AttributeDesc{"v", AttrType::kDouble}})
                   .Validate()
                   .ok());
  EXPECT_FALSE(
      ArraySchema("A", {}, {AttributeDesc{"v", AttrType::kDouble}})
          .Validate()
          .ok());
  EXPECT_FALSE(
      ArraySchema("A", {DimensionDesc{"x", 0, 1, 1, false}}, {}).Validate().ok());
  // Duplicate names.
  EXPECT_FALSE(ArraySchema("A",
                           {DimensionDesc{"x", 0, 1, 1, false},
                            DimensionDesc{"x", 0, 1, 1, false}},
                           {AttributeDesc{"v", AttrType::kDouble}})
                   .Validate()
                   .ok());
  // Non-positive chunk interval.
  EXPECT_FALSE(ArraySchema("A", {DimensionDesc{"x", 0, 1, 0, false}},
                           {AttributeDesc{"v", AttrType::kDouble}})
                   .Validate()
                   .ok());
  // Empty range.
  EXPECT_FALSE(ArraySchema("A", {DimensionDesc{"x", 5, 4, 1, false}},
                           {AttributeDesc{"v", AttrType::kDouble}})
                   .Validate()
                   .ok());
}

constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
constexpr int64_t kMin = std::numeric_limits<int64_t>::min();

ArraySchema OneDimSchema(DimensionDesc dim) {
  return ArraySchema("A", {std::move(dim)},
                     {AttributeDesc{"v", AttrType::kDouble}});
}

TEST(SchemaTest, ExtentAboveInt64IsRejected) {
  // An extent hi - lo + 1 of 2^63 or more used to wrap to INT64_MIN chunks.
  for (const DimensionDesc& dim : {DimensionDesc{"x", 0, kMax, 1, false},
                                   DimensionDesc{"x", kMin, -1, 7, false},
                                   DimensionDesc{"x", kMin, kMax, 1, false}}) {
    EXPECT_EQ(OneDimSchema(dim).Validate().code(),
              util::StatusCode::kInvalidArgument);
  }
  // The widest valid dimensions span exactly INT64_MAX cells.
  for (const DimensionDesc& dim : {DimensionDesc{"x", 0, kMax - 1, 1, false},
                                   DimensionDesc{"x", kMin, -2, 1, false},
                                   DimensionDesc{"x", 1, kMax, 1, false}}) {
    const ArraySchema widest = OneDimSchema(dim);
    ASSERT_TRUE(widest.Validate().ok());
    EXPECT_EQ(dim.Extent(), kMax);
    EXPECT_EQ(widest.ChunkGridExtents(), (Coordinates{kMax}));
    EXPECT_EQ(dim.ChunkIndexOf(dim.hi), kMax - 1);
  }
}

TEST(SchemaTest, ChunkCountRoundsUpNearInt64Max) {
  // Extent INT64_MAX = 4 * 2^61 - 1 at interval 4: 2^61 chunks, where the
  // `extent + interval - 1` form overflowed to a negative count.
  const DimensionDesc dim{"x", 0, kMax - 1, 4, false};
  ASSERT_TRUE(OneDimSchema(dim).Validate().ok());
  EXPECT_EQ(dim.ChunkCount(), int64_t{1} << 61);
  EXPECT_EQ(OneDimSchema(dim).ChunkGridExtents(),
            (Coordinates{int64_t{1} << 61}));
  EXPECT_EQ(dim.ChunkIndexOf(kMax - 1), (int64_t{1} << 61) - 1);
  EXPECT_EQ(DimensionDesc({"x", 0, kMax - 1, 2, false}).ChunkCount(),
            int64_t{1} << 62);
}

TEST(SchemaTest, ChunkIndexAtInt64Extremes) {
  // Interval 1 from lo = -1: INT64_MAX lies 2^63 cells past lo.
  const DimensionDesc time{"t", -1, 0, 1, true};
  EXPECT_FALSE(time.ChunkIndexFits(kMax));
  EXPECT_TRUE(time.ChunkIndexFits(kMax - 1));
  EXPECT_EQ(time.ChunkIndexOf(kMax - 1), kMax);
  // Any interval of 2 or more halves the offset into range.
  const DimensionDesc pairs{"t", -1, 0, 2, true};
  EXPECT_TRUE(pairs.ChunkIndexFits(kMax));
  EXPECT_EQ(pairs.ChunkIndexOf(kMax), int64_t{1} << 62);
  // Below lo (tolerated on unbounded dims), the index floors toward -inf.
  const DimensionDesc top{"t", kMax, 0, 1, true};
  EXPECT_TRUE(top.ChunkIndexFits(-1));
  EXPECT_EQ(top.ChunkIndexOf(-1), kMin);
  EXPECT_FALSE(top.ChunkIndexFits(-2));
  EXPECT_EQ(DimensionDesc({"t", 0, 0, 4, true}).ChunkIndexOf(kMin),
            -(int64_t{1} << 61));
}

TEST(SchemaTest, UnboundedDimensionRendersStar) {
  const ArraySchema schema(
      "T", {DimensionDesc{"time", 0, 0, 1440, true}},
      {AttributeDesc{"v", AttrType::kDouble}});
  EXPECT_EQ(schema.ToString(), "T<v:double>[time=0:*,1440]");
}

TEST(SchemaTest, AttrTypeFootprints) {
  EXPECT_EQ(AttrTypeBytes(AttrType::kInt32), 4);
  EXPECT_EQ(AttrTypeBytes(AttrType::kInt64), 8);
  EXPECT_EQ(AttrTypeBytes(AttrType::kFloat), 4);
  EXPECT_EQ(AttrTypeBytes(AttrType::kDouble), 8);
  EXPECT_EQ(AttrTypeBytes(AttrType::kChar), 1);
  EXPECT_GT(AttrTypeBytes(AttrType::kString), 8);
}

}  // namespace
}  // namespace arraydb::array

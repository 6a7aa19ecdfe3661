// Tests for the workload generators: volumes, skew statistics (calibrated
// to §3.1-3.2), determinism, and benchmark query construction.

#include <gtest/gtest.h>

#include <algorithm>

#include "util/stats.h"
#include "util/units.h"
#include "workload/ais.h"
#include "workload/modis.h"
#include "workload/sample_data.h"

namespace arraydb::workload {
namespace {

double BatchGb(const std::vector<array::ChunkInfo>& batch) {
  double gb = 0.0;
  for (const auto& c : batch) {
    gb += util::BytesToGb(static_cast<double>(c.bytes));
  }
  return gb;
}

// Fraction of total bytes held by the largest `fraction` of chunks.
double TopShare(const std::vector<array::ChunkInfo>& batch, double fraction) {
  std::vector<double> sizes;
  sizes.reserve(batch.size());
  double total = 0.0;
  for (const auto& c : batch) {
    sizes.push_back(static_cast<double>(c.bytes));
    total += static_cast<double>(c.bytes);
  }
  std::sort(sizes.rbegin(), sizes.rend());
  const size_t top = std::max<size_t>(
      1, static_cast<size_t>(fraction * static_cast<double>(sizes.size())));
  double top_sum = 0.0;
  for (size_t i = 0; i < top; ++i) top_sum += sizes[i];
  return top_sum / total;
}

// ------------------------------------------------------------------ MODIS --

TEST(ModisTest, SchemaMatchesPaper) {
  ModisWorkload modis;
  EXPECT_EQ(modis.schema().num_dims(), 3);
  EXPECT_EQ(modis.schema().num_attrs(), 7);
  const auto extents = modis.schema().ChunkGridExtents();
  EXPECT_EQ(extents[0], 14);  // 14 daily cycles.
  EXPECT_EQ(extents[1], 30);  // 360 degrees / 12.
  EXPECT_EQ(extents[2], 15);  // 180 degrees / 12.
}

TEST(ModisTest, DailyVolumeNear45Gb) {
  ModisWorkload modis;
  double total = 0.0;
  for (int day = 0; day < modis.num_cycles(); ++day) {
    const double gb = BatchGb(modis.GenerateBatch(day));
    EXPECT_GT(gb, 30.0);
    EXPECT_LT(gb, 60.0);
    total += gb;
  }
  // ~630 GB over 14 days (§6.1).
  EXPECT_NEAR(total, 630.0, 60.0);
}

TEST(ModisTest, MildSkewTop5PercentHoldsAbout10Percent) {
  ModisWorkload modis;
  const auto batch = modis.GenerateBatch(3);
  const double share = TopShare(batch, 0.05);
  EXPECT_GT(share, 0.07);
  EXPECT_LT(share, 0.16);  // Paper: "top 5% of chunks constitute only 10%".
}

TEST(ModisTest, BatchesAreDeterministic) {
  ModisWorkload a;
  ModisWorkload b;
  const auto ba = a.GenerateBatch(5);
  const auto bb = b.GenerateBatch(5);
  ASSERT_EQ(ba.size(), bb.size());
  for (size_t i = 0; i < ba.size(); ++i) {
    EXPECT_EQ(ba[i].coords, bb[i].coords);
    EXPECT_EQ(ba[i].bytes, bb[i].bytes);
  }
}

TEST(ModisTest, ChunksCoverOneDayEach) {
  ModisWorkload modis;
  const auto batch = modis.GenerateBatch(7);
  EXPECT_EQ(batch.size(), 30u * 15u);
  for (const auto& c : batch) {
    EXPECT_EQ(c.coords[0], 7);
    EXPECT_TRUE(modis.schema().ChunkInBounds(c.coords));
  }
}

TEST(ModisTest, QuerySuitesAreComplete) {
  ModisWorkload modis;
  const auto spj = modis.SpjQueries(5);
  ASSERT_EQ(spj.size(), 3u);  // Selection, sort, join (§3.3.1).
  EXPECT_EQ(spj[0].kind, exec::QueryKind::kFilter);
  EXPECT_EQ(spj[1].kind, exec::QueryKind::kSortQuantile);
  EXPECT_EQ(spj[2].kind, exec::QueryKind::kDimJoin);
  // The join touches only the most recent day.
  EXPECT_EQ(spj[2].region.lo[0], 5);
  EXPECT_EQ(spj[2].region.hi[0], 5);

  const auto science = modis.ScienceQueries(5);
  ASSERT_EQ(science.size(), 4u);  // Stats x2 (poles), k-means, window.
  EXPECT_EQ(science[2].kind, exec::QueryKind::kKMeans);
  EXPECT_EQ(science[3].kind, exec::QueryKind::kWindow);
}

// -------------------------------------------------------------------- AIS --

TEST(AisTest, SchemaMatchesPaper) {
  AisWorkload ais;
  EXPECT_EQ(ais.schema().num_dims(), 3);
  EXPECT_EQ(ais.schema().num_attrs(), 10);
  const auto extents = ais.schema().ChunkGridExtents();
  EXPECT_EQ(extents[0], 40);
  EXPECT_EQ(extents[1], 29);  // (-180..-67) / 4.
  EXPECT_EQ(extents[2], 23);  // (0..90) / 4.
  EXPECT_EQ(ais.num_cycles(), 10);
}

TEST(AisTest, TotalVolumeNear400Gb) {
  AisWorkload ais;
  double total = 0.0;
  for (int cycle = 0; cycle < ais.num_cycles(); ++cycle) {
    total += BatchGb(ais.GenerateBatch(cycle));
  }
  EXPECT_NEAR(total, 400.0, 40.0);
}

TEST(AisTest, ExtremeSkewMatchesPaperStatistics) {
  AisWorkload ais;
  // Accumulate all chunks of the full dataset (as the paper reports the
  // distribution over the whole corpus).
  std::vector<array::ChunkInfo> all;
  for (int cycle = 0; cycle < ais.num_cycles(); ++cycle) {
    const auto batch = ais.GenerateBatch(cycle);
    all.insert(all.end(), batch.begin(), batch.end());
  }
  // "Nearly 85% of the data resides in just 5% of the chunks."
  const double share = TopShare(all, 0.05);
  EXPECT_GT(share, 0.75);
  EXPECT_LT(share, 0.97);
  // "Median size of 924 bytes": most chunks are background noise.
  std::vector<double> sizes;
  for (const auto& c : all) sizes.push_back(static_cast<double>(c.bytes));
  const double median = util::Median(sizes);
  EXPECT_GT(median, 200.0);
  EXPECT_LT(median, 5000.0);
}

TEST(AisTest, SeasonalVolumesVary) {
  AisWorkload ais;
  std::vector<double> cycle_gb;
  for (int cycle = 0; cycle < ais.num_cycles(); ++cycle) {
    cycle_gb.push_back(BatchGb(ais.GenerateBatch(cycle)));
  }
  // Shipping peaks near the holidays: relative spread must be noticeable
  // (this is what makes s=1 win the Table 2 tuning for AIS).
  EXPECT_GT(util::RelativeStdev(cycle_gb), 0.05);
}

TEST(AisTest, HoustonIsHot) {
  AisWorkload ais;
  const auto batch = ais.GenerateBatch(0);
  // Find the Houston chunk (lon -95 -> chunk 21, lat 29 -> chunk 7) in
  // month 0 and compare to a mid-ocean chunk.
  int64_t houston = 0;
  int64_t ocean = 0;
  for (const auto& c : batch) {
    if (c.coords[0] != 0) continue;
    if (c.coords[1] == 21 && c.coords[2] == 7) houston = c.bytes;
    if (c.coords[1] == 10 && c.coords[2] == 15) ocean = c.bytes;
  }
  EXPECT_GT(houston, ocean * 100);
}

TEST(AisTest, QuerySuitesAreComplete) {
  AisWorkload ais;
  const auto spj = ais.SpjQueries(2);
  ASSERT_EQ(spj.size(), 3u);
  EXPECT_EQ(spj[0].kind, exec::QueryKind::kFilter);
  EXPECT_EQ(spj[2].kind, exec::QueryKind::kAttrJoin);
  EXPECT_GT(spj[2].small_side_gb, 0.0);  // Replicated vessel array.

  const auto science = ais.ScienceQueries(2);
  ASSERT_EQ(science.size(), 3u);
  EXPECT_EQ(science[1].kind, exec::QueryKind::kKnn);
  EXPECT_EQ(science[1].name, AisWorkload::kKnnQueryName);
}

TEST(AisTest, BatchesAreDeterministic) {
  AisWorkload a;
  AisWorkload b;
  const auto ba = a.GenerateBatch(3);
  const auto bb = b.GenerateBatch(3);
  ASSERT_EQ(ba.size(), bb.size());
  for (size_t i = 0; i < ba.size(); ++i) {
    EXPECT_EQ(ba[i].coords, bb[i].coords);
    EXPECT_EQ(ba[i].bytes, bb[i].bytes);
  }
}

// ----------------------------------------------------------- Sample data --

TEST(SampleDataTest, SmallModisHasLandOceanContrast) {
  const auto band = MakeSmallModisBand(3, 77);
  EXPECT_GT(band.total_cells(), 500);
  // Land chunks (lon < 20) should be denser than ocean.
  int64_t land = 0;
  int64_t ocean = 0;
  for (const array::Chunk* chunk : band.SortedChunks()) {
    const array::Coordinates& coords = chunk->coords();
    if (coords[1] < 5) {
      land += chunk->cell_count();
    } else if (coords[1] >= 6) {
      ocean += chunk->cell_count();
    }
  }
  EXPECT_GT(land, ocean);
}

TEST(SampleDataTest, SmallAisClustersAtPorts) {
  const auto tracks = MakeSmallAisTracks(6, 200, 13);
  EXPECT_GT(tracks.total_cells(), 300);
  // Port chunks should far outweigh open-water chunks.
  int64_t port_cells = 0;
  for (const array::Chunk* chunk : tracks.SortedChunks()) {
    const array::Coordinates& coords = chunk->coords();
    const bool near_port =
        (std::abs(coords[1] - 1) <= 1 && std::abs(coords[2] - 1) <= 1) ||
        (std::abs(coords[1] - 6) <= 1 && std::abs(coords[2] - 4) <= 1);
    if (near_port) port_cells += chunk->cell_count();
  }
  EXPECT_GT(static_cast<double>(port_cells),
            0.4 * static_cast<double>(tracks.total_cells()));
}

}  // namespace
}  // namespace arraydb::workload

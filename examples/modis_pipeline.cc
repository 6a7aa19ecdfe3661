// Remote-sensing pipeline (§3.1): the MODIS use case at two scales.
//
// Part A executes the science benchmark's *actual algorithms* on a small
// materialized band — quantile of radiance, windowed NDVI smoothing,
// regridding to a coarse image, and k-means over the pixel space — using
// the reference operators.
//
// Part B replays the full paper-scale elastic experiment: 630 GB over 14
// daily cycles on a cluster growing 2 -> 8 nodes under the Incremental
// Quadtree partitioner (the best MODIS performer in Figure 5).
//
// Build & run:  ./build/examples/modis_pipeline

#include <cstdio>
#include <vector>

#include "array/cell_span.h"
#include "exec/operators.h"
#include "workload/modis.h"
#include "workload/runner.h"
#include "workload/sample_data.h"

using namespace arraydb;

int main() {
  std::printf("== Part A: science operators on a materialized band ==\n\n");
  const array::Array band = workload::MakeSmallModisBand(/*days=*/5,
                                                         /*seed=*/2014);
  std::printf("Band: %s\n", band.schema().ToString().c_str());
  std::printf("%lld cells in %lld chunks\n",
              static_cast<long long>(band.total_cells()),
              static_cast<long long>(band.num_chunks()));

  // Sort benchmark: distribution of the light measurements.
  for (const double q : {0.25, 0.5, 0.75}) {
    const auto value = exec::AttrQuantile(band, /*attr=radiance*/ 1, q);
    if (value.ok()) {
      std::printf("radiance %.0f%%-quantile: %.2f\n", q * 100.0, *value);
    }
  }

  // Complex projection benchmark: windowed average -> smooth image. The
  // span view reads the radiance column without materializing Cell values.
  const array::CellSpanView band_view(band);
  const auto smoothed = exec::WindowAverageAll(band, 1, /*radius=*/1);
  double raw_mean = 0.0, smooth_mean = 0.0;
  band_view.ForEachCell(
      [&raw_mean](const array::Chunk& chunk, size_t i, int64_t) {
        raw_mean += chunk.attr_value(1, i);
      });
  raw_mean /= static_cast<double>(band.total_cells());
  for (const auto& [pos, v] : smoothed) smooth_mean += v;
  smooth_mean /= static_cast<double>(smoothed.size());
  std::printf(
      "windowed NDVI smoothing: %zu pixels, raw mean %.2f, smoothed mean "
      "%.2f\n",
      smoothed.size(), raw_mean, smooth_mean);

  // Regrid the sparse data into a coarser, dense image (§3.3).
  const auto coarse = exec::Regrid(band, {5, 8, 8}, /*attr=*/1);
  if (coarse.ok()) {
    std::printf("regrid to %lld coarse cells (sum+count per cell)\n",
                static_cast<long long>(coarse->total_cells()));
  }

  // Modeling benchmark: k-means over (lon, lat, radiance) triples.
  std::vector<std::vector<double>> pixels;
  pixels.reserve(static_cast<size_t>(band_view.num_cells()));
  band_view.ForEachCell(
      [&pixels](const array::Chunk& chunk, size_t i, int64_t) {
        const int64_t* pos = chunk.cell_pos(i);
        pixels.push_back({static_cast<double>(pos[1]),
                          static_cast<double>(pos[2]),
                          chunk.attr_value(1, i) / 10.0});
      });
  const auto clusters = exec::KMeans(pixels, /*k=*/4, /*max_iterations=*/25,
                                     /*seed=*/7);
  if (clusters.ok()) {
    std::printf("k-means: %d iterations, inertia %.1f, centroids:",
                clusters->iterations, clusters->inertia);
    for (const auto& c : clusters->centroids) {
      std::printf(" (%.1f,%.1f)", c[0], c[1]);
    }
    std::printf("\n");
  }
  std::printf("\n");

  std::printf("== Part B: paper-scale elastic experiment ==\n\n");
  workload::ModisWorkload modis;
  workload::RunnerConfig cfg;
  cfg.partitioner = core::PartitionerKind::kIncrementalQuadtree;
  cfg.initial_nodes = 2;
  cfg.nodes_per_scaleout = 2;
  cfg.max_nodes = 8;
  workload::WorkloadRunner runner(cfg);
  const auto result = runner.Run(modis);
  std::printf("cycle  nodes  load(GB)  insert  reorg   SPJ  science  RSD%%\n");
  for (const auto& m : result.cycles) {
    std::printf("%5d  %5d  %8.1f  %6.1f  %5.1f  %4.1f  %7.1f  %4.1f\n",
                m.cycle + 1, m.nodes_after, m.load_gb, m.insert_minutes,
                m.reorg_minutes, m.spj_minutes, m.science_minutes,
                m.rsd * 100.0);
  }
  std::printf(
      "\nTotals: insert %.1f min, reorg %.1f min, benchmarks %.1f min; "
      "Eq.1 cost %.1f node-hours\n",
      result.Sum(&workload::CycleMetrics::insert_minutes),
      result.Sum(&workload::CycleMetrics::reorg_minutes),
      result.total_benchmark_minutes(), result.cost_node_hours());
  return 0;
}

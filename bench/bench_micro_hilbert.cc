// Ablation microbenchmarks for the Hilbert curve substrate: codec index
// throughput across dimensionalities, codec ranking (a codec per call, and
// one codec over a batch) against the seed per-bit reference path, plus a
// locality comparison of chunk orderings (Hilbert vs row-major vs Z-order)
// — the property the Hilbert partitioner's range splits depend on.
//
// Emits BENCH_hilbert.json (ns/op + items/s per benchmark, and the
// batch-vs-seed speedup ratios) for cross-PR perf tracking.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "array/coordinates.h"
#include "bench/gbench_json.h"
#include "hilbert/hilbert.h"
#include "util/rng.h"

namespace {

using namespace arraydb;

// A codec sized to (dims, bits), built per call.
hilbert::HilbertCodec MakeCodec(int dims, int bits) {
  return hilbert::HilbertCodec::Create(dims, bits).value();
}

// One index per call, the codec built per call.
void BM_CodecIndexPerCall(benchmark::State& state) {
  const int dims = static_cast<int>(state.range(0));
  const int bits = static_cast<int>(state.range(1));
  util::Rng rng(5);
  std::vector<uint32_t> point(static_cast<size_t>(dims));
  for (auto _ : state) {
    for (auto& c : point) {
      c = static_cast<uint32_t>(rng.NextBounded(1ULL << bits));
    }
    benchmark::DoNotOptimize(MakeCodec(dims, bits).Rank(point.data()));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_CodecIndexPerCall)
    ->Name("BM_HilbertIndex")
    ->Args({2, 8})
    ->Args({3, 6})
    ->Args({3, 10})
    ->Args({4, 8});

void BM_HilbertPoint(benchmark::State& state) {
  const int dims = static_cast<int>(state.range(0));
  const int bits = static_cast<int>(state.range(1));
  util::Rng rng(9);
  const uint64_t space = 1ULL << (dims * bits);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        hilbert::HilbertPoint(rng.NextBounded(space), dims, bits));
  }
}
BENCHMARK(BM_HilbertPoint)->Args({2, 8})->Args({3, 6});

// -- Batched ranking vs the seed scalar path --------------------------------
//
// All three benchmarks rank the same pre-generated random points on the
// same rectangular grid, so items/s is directly comparable:
//   Seed    — the original per-call path: per-bit gather + rotate/gray
//             arithmetic, per-call setup (HilbertRankReference).
//   Scalar  — a codec sized to the grid per call, one RankChecked.
//   Batch   — one codec per batch ranks every point, as
//             HilbertPartitioner::RankOf does with its codec.

struct RankGrid {
  array::Coordinates extents;
};

const RankGrid kRankGrids[] = {
    {{36, 29, 23}},   // 3-D MODIS-like chunk grid (6 bits).
    {{128, 128}},     // 2-D square grid (7 bits).
};

std::vector<array::Coordinates> MakeRankPoints(const array::Coordinates& ext,
                                               size_t count) {
  util::Rng rng(17);
  std::vector<array::Coordinates> points(count);
  for (auto& p : points) {
    p.resize(ext.size());
    for (size_t d = 0; d < ext.size(); ++d) {
      p[d] = static_cast<int64_t>(
          rng.NextBounded(static_cast<uint64_t>(ext[d])));
    }
  }
  return points;
}

constexpr size_t kRankBatchSize = 4096;

void BM_HilbertRankSeed(benchmark::State& state) {
  const auto& grid = kRankGrids[static_cast<size_t>(state.range(0))];
  const auto points = MakeRankPoints(grid.extents, kRankBatchSize);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        hilbert::HilbertRankReference(points[i], grid.extents));
    i = (i + 1) % points.size();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_HilbertRankSeed)->Arg(0)->Arg(1);

void BM_HilbertRankScalar(benchmark::State& state) {
  const auto& grid = kRankGrids[static_cast<size_t>(state.range(0))];
  const auto points = MakeRankPoints(grid.extents, kRankBatchSize);
  size_t i = 0;
  const int dims = static_cast<int>(grid.extents.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        MakeCodec(dims, hilbert::BitsForExtents(grid.extents))
            .RankChecked(points[i], grid.extents));
    i = (i + 1) % points.size();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_HilbertRankScalar)->Arg(0)->Arg(1);

void BM_CodecRankBatch(benchmark::State& state) {
  const auto& grid = kRankGrids[static_cast<size_t>(state.range(0))];
  const auto points = MakeRankPoints(grid.extents, kRankBatchSize);
  const int dims = static_cast<int>(grid.extents.size());
  for (auto _ : state) {
    const hilbert::HilbertCodec codec =
        MakeCodec(dims, hilbert::BitsForExtents(grid.extents));
    std::vector<uint64_t> ranks;
    ranks.reserve(points.size());
    for (const auto& coords : points) {
      ranks.push_back(codec.RankChecked(coords, grid.extents));
    }
    benchmark::DoNotOptimize(ranks);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(points.size()));
}
BENCHMARK(BM_CodecRankBatch)->Name("BM_HilbertRankBatch")->Arg(0)->Arg(1);

// Mean Manhattan jump between consecutive cells of an ordering — lower is
// better locality for range partitioning.
double MeanJump(const std::vector<array::Coordinates>& order) {
  double total = 0.0;
  for (size_t i = 1; i < order.size(); ++i) {
    total += static_cast<double>(
        array::ManhattanDistance(order[i], order[i - 1]));
  }
  return total / static_cast<double>(order.size() - 1);
}

void BM_OrderingLocality(benchmark::State& state) {
  const int64_t side = 64;
  const array::Coordinates extents = {side, side};
  enum { kHilbert = 0, kRowMajor = 1, kZOrder = 2 };
  const int mode = static_cast<int>(state.range(0));

  double jump = 0.0;
  for (auto _ : state) {
    std::vector<std::pair<uint64_t, array::Coordinates>> cells;
    cells.reserve(static_cast<size_t>(side * side));
    for (int64_t x = 0; x < side; ++x) {
      for (int64_t y = 0; y < side; ++y) {
        uint64_t key = 0;
        switch (mode) {
          case kHilbert:
            key = MakeCodec(2, hilbert::BitsForExtents(extents))
                      .RankChecked({x, y}, extents);
            break;
          case kRowMajor:
            key = static_cast<uint64_t>(x * side + y);
            break;
          case kZOrder: {
            for (int b = 0; b < 6; ++b) {
              key |= static_cast<uint64_t>((x >> b) & 1) << (2 * b + 1);
              key |= static_cast<uint64_t>((y >> b) & 1) << (2 * b);
            }
            break;
          }
        }
        cells.emplace_back(key, array::Coordinates{x, y});
      }
    }
    std::sort(cells.begin(), cells.end());
    std::vector<array::Coordinates> order;
    order.reserve(cells.size());
    for (auto& [key, c] : cells) order.push_back(std::move(c));
    jump = MeanJump(order);
    benchmark::DoNotOptimize(jump);
  }
  state.counters["mean_manhattan_jump"] = jump;
  state.SetLabel(mode == kHilbert   ? "hilbert"
                 : mode == kRowMajor ? "row-major"
                                     : "z-order");
}
BENCHMARK(BM_OrderingLocality)->Arg(0)->Arg(1)->Arg(2);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;

  arraydb::bench::JsonBenchWriter writer;
  arraydb::bench::JsonFileReporter reporter(&writer);
  benchmark::RunSpecifiedBenchmarks(&reporter);

  // Derived acceptance metrics: batched ranking throughput over the seed
  // scalar path, per grid and overall (minimum across grids).
  double min_speedup = 0.0;
  for (size_t g = 0; g < std::size(kRankGrids); ++g) {
    const std::string suffix = "/" + std::to_string(g);
    const auto* seed = writer.Find("BM_HilbertRankSeed" + suffix);
    const auto* batch = writer.Find("BM_HilbertRankBatch" + suffix);
    if (seed == nullptr || batch == nullptr) continue;
    if (seed->items_per_second <= 0.0 || batch->items_per_second <= 0.0) {
      continue;
    }
    const double speedup = batch->items_per_second / seed->items_per_second;
    writer.AddMetric("speedup_batch_vs_seed_grid" + std::to_string(g),
                     speedup);
    min_speedup = min_speedup == 0.0 ? speedup : std::min(min_speedup, speedup);
  }
  if (min_speedup > 0.0) {
    writer.AddMetric("speedup_batch_vs_seed", min_speedup);
    std::printf("batch-vs-seed ranking speedup (min over grids): %.2fx\n",
                min_speedup);
  }
  if (!writer.WriteFile("BENCH_hilbert.json")) {
    std::fprintf(stderr, "failed to write BENCH_hilbert.json\n");
    return 1;
  }
  std::printf("wrote BENCH_hilbert.json\n");
  benchmark::Shutdown();
  return 0;
}

// Ablation microbenchmarks: per-operation costs of every partitioner —
// chunk placement, lookup, and scale-out planning — on a populated
// mid-size grid. These are the operations on the coordinator's critical
// path; the paper's schemes trade richer placement logic (tree descent,
// curve ranks) for better layouts.
//
// Emits BENCH_partitioners.json (ns/op + items/s) for cross-PR tracking.

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "array/schema.h"
#include "bench/gbench_json.h"
#include "cluster/cluster.h"
#include "core/partitioner_factory.h"
#include "util/rng.h"

namespace {

using namespace arraydb;

array::ArraySchema BenchSchema() {
  return array::ArraySchema(
      "bench",
      {array::DimensionDesc{"t", 0, 31, 1, false},
       array::DimensionDesc{"x", 0, 31, 1, false},
       array::DimensionDesc{"y", 0, 31, 1, false}},
      {array::AttributeDesc{"v", array::AttrType::kDouble}});
}

// Populates a 4-node cluster with `chunks` random chunks via `partitioner`.
void Populate(core::Partitioner& partitioner, cluster::Cluster& cluster,
              int chunks, util::Rng& rng) {
  for (int i = 0; i < chunks; ++i) {
    array::ChunkInfo info;
    info.coords = {static_cast<int64_t>(rng.NextBounded(32)),
                   static_cast<int64_t>(rng.NextBounded(32)),
                   static_cast<int64_t>(rng.NextBounded(32))};
    if (cluster.Contains(info.coords)) continue;
    info.bytes = 1 << 20;
    info.cell_count = 1024;
    const auto node = partitioner.PlaceChunk(cluster, info);
    (void)cluster.PlaceChunk(info.coords, info.bytes, node);
  }
}

void BM_PlaceChunk(benchmark::State& state) {
  const auto kind = static_cast<core::PartitionerKind>(state.range(0));
  const auto schema = BenchSchema();
  cluster::Cluster cluster(4, 100.0);
  auto partitioner = core::MakePartitioner(kind, schema, 4, 100.0);
  util::Rng rng(7);
  Populate(*partitioner, cluster, 2000, rng);
  array::ChunkInfo probe;
  probe.bytes = 1 << 20;
  for (auto _ : state) {
    probe.coords = {static_cast<int64_t>(rng.NextBounded(32)),
                    static_cast<int64_t>(rng.NextBounded(32)),
                    static_cast<int64_t>(rng.NextBounded(32))};
    benchmark::DoNotOptimize(partitioner->PlaceChunk(cluster, probe));
  }
  state.SetLabel(core::PartitionerKindName(kind));
}

void BM_Locate(benchmark::State& state) {
  const auto kind = static_cast<core::PartitionerKind>(state.range(0));
  const auto schema = BenchSchema();
  cluster::Cluster cluster(4, 100.0);
  auto partitioner = core::MakePartitioner(kind, schema, 4, 100.0);
  util::Rng rng(11);
  Populate(*partitioner, cluster, 2000, rng);
  const auto chunks = cluster.AllChunks();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        partitioner->Locate(chunks[i % chunks.size()].coords));
    ++i;
  }
  state.SetLabel(core::PartitionerKindName(kind));
}

void BM_PlanScaleOut(benchmark::State& state) {
  const auto kind = static_cast<core::PartitionerKind>(state.range(0));
  const auto schema = BenchSchema();
  for (auto _ : state) {
    state.PauseTiming();
    cluster::Cluster cluster(4, 100.0);
    auto partitioner = core::MakePartitioner(kind, schema, 4, 100.0);
    util::Rng rng(13);
    Populate(*partitioner, cluster, 2000, rng);
    cluster.AddNodes(2);
    state.ResumeTiming();
    auto plan = partitioner->PlanScaleOut(cluster, 4);
    benchmark::DoNotOptimize(plan);
  }
  state.SetLabel(core::PartitionerKindName(kind));
}

void AllKinds(benchmark::internal::Benchmark* b) {
  for (const auto kind : core::AllPartitionerKinds()) {
    b->Arg(static_cast<int>(kind));
  }
}

BENCHMARK(BM_PlaceChunk)->Apply(AllKinds);
BENCHMARK(BM_Locate)->Apply(AllKinds);
BENCHMARK(BM_PlanScaleOut)->Apply(AllKinds)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  arraydb::bench::JsonBenchWriter writer;
  arraydb::bench::JsonFileReporter reporter(&writer);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  if (!writer.WriteFile("BENCH_partitioners.json")) {
    std::fprintf(stderr, "failed to write BENCH_partitioners.json\n");
    return 1;
  }
  std::printf("wrote BENCH_partitioners.json\n");
  benchmark::Shutdown();
  return 0;
}

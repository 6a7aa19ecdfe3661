// Tests for the thread pool and the deterministic chunk-parallel
// ingest/placement fast path: any thread count must produce exactly the
// sequential results (ordered merge), and the pool must execute every
// submitted task exactly once.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include "core/hilbert_partitioner.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload/ais.h"
#include "workload/modis.h"
#include "workload/runner.h"

namespace arraydb {
namespace {

TEST(ThreadPoolTest, SubmittedTasksAllRun) {
  // Declared before the pool so the pool joins its workers before the
  // condition variable is destroyed; the final task notifies under the
  // mutex so the wakeup cannot slip between the waiter's predicate check
  // and its sleep.
  std::atomic<int> done{0};
  std::mutex mu;
  std::condition_variable cv;
  util::ThreadPool pool(3);
  constexpr int kTasks = 64;
  for (int i = 0; i < kTasks; ++i) {
    pool.Submit([&] {
      if (done.fetch_add(1) + 1 == kTasks) {
        const std::lock_guard<std::mutex> guard(mu);
        cv.notify_one();
      }
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return done.load() == kTasks; });
  EXPECT_EQ(done.load(), kTasks);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  for (const int shards : {1, 2, 3, 8, 64}) {
    constexpr int64_t kN = 1000;
    std::vector<std::atomic<int>> hits(kN);
    for (auto& h : hits) h.store(0);
    util::ParallelFor(kN, shards, [&hits](int64_t begin, int64_t end) {
      for (int64_t i = begin; i < end; ++i) hits[static_cast<size_t>(i)]++;
    });
    for (int64_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[static_cast<size_t>(i)].load(), 1)
          << "shards=" << shards << " i=" << i;
    }
  }
}

TEST(ParallelForTest, EmptyAndTinyRangesDegradeGracefully) {
  int calls = 0;
  util::ParallelFor(0, 4, [&calls](int64_t, int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::vector<int> hits(3, 0);
  util::ParallelFor(3, 16, [&hits](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) hits[static_cast<size_t>(i)]++;
  });
  EXPECT_EQ(hits, (std::vector<int>{1, 1, 1}));
}

array::ArraySchema GridSchema() {
  return array::ArraySchema(
      "grid",
      {array::DimensionDesc{"t", 0, 31, 1, false},
       array::DimensionDesc{"x", 0, 31, 1, false},
       array::DimensionDesc{"y", 0, 31, 1, false}},
      {array::AttributeDesc{"v", array::AttrType::kDouble}});
}

TEST(PrewarmPlacementTest, ParallelPrewarmIsPlacementNeutral) {
  const auto schema = GridSchema();
  std::vector<array::ChunkInfo> batch;
  util::Rng rng(11);
  for (int i = 0; i < 512; ++i) {
    array::ChunkInfo info;
    info.coords = {static_cast<int64_t>(rng.NextBounded(32)),
                   static_cast<int64_t>(rng.NextBounded(32)),
                   static_cast<int64_t>(rng.NextBounded(32))};
    info.bytes = 1 << 16;
    batch.push_back(info);
  }
  core::HilbertPartitioner cold(schema, 4, /*growth_dim=*/0);
  core::HilbertPartitioner warm(schema, 4, /*growth_dim=*/0);
  warm.PrewarmPlacement(batch, 4);
  cluster::Cluster cluster(4, 100.0);
  for (const auto& info : batch) {
    EXPECT_EQ(warm.PlaceChunk(cluster, info), cold.PlaceChunk(cluster, info));
    EXPECT_EQ(warm.RankOf(info.coords), cold.RankOf(info.coords));
    EXPECT_EQ(warm.Locate(info.coords), cold.Locate(info.coords));
  }
}

TEST(PrewarmPlacementTest, MemoizedRankStaysStableAcrossRepeatedLookups) {
  const auto schema = GridSchema();
  core::HilbertPartitioner partitioner(schema, 2, /*growth_dim=*/0);
  const array::Coordinates coords = {5, 17, 9};
  const uint64_t first = partitioner.RankOf(coords);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(partitioner.RankOf(coords), first);
  }
}

// The full workload runner must be bit-identical between sequential and
// chunk-parallel ingest, for every partitioner-relevant metric.
TEST(ParallelIngestTest, RunnerMetricsIdenticalAcrossThreadCounts) {
  workload::AisWorkload ais;
  workload::RunResult results[3];
  const int thread_counts[3] = {1, 4, 0 /* hardware concurrency */};
  for (int i = 0; i < 3; ++i) {
    workload::RunnerConfig cfg;
    cfg.partitioner = core::PartitionerKind::kHilbertCurve;
    cfg.initial_nodes = 2;
    cfg.nodes_per_scaleout = 2;
    cfg.max_nodes = 8;
    cfg.run_queries = false;
    cfg.ingest.threads = thread_counts[i];
    results[i] = workload::WorkloadRunner(cfg).Run(ais);
  }
  for (int i = 1; i < 3; ++i) {
    EXPECT_EQ(results[i].cycles, results[0].cycles);
    EXPECT_EQ(results[i].final_nodes, results[0].final_nodes);
  }
}

TEST(ResolveThreadCountTest, PositiveValuesPassThrough) {
  EXPECT_EQ(util::ResolveThreadCount(1), 1);
  EXPECT_EQ(util::ResolveThreadCount(7), 7);
}

TEST(ResolveThreadCountTest, ZeroAndNegativeResolveToHardwareConcurrency) {
  const int hw = static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()));
  EXPECT_EQ(util::ResolveThreadCount(0), hw);
  EXPECT_EQ(util::ResolveThreadCount(-3), hw);
  EXPECT_GE(util::ResolveThreadCount(0), 1);
}

}  // namespace
}  // namespace arraydb

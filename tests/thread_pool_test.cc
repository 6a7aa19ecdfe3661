// Tests for the thread pool and the deterministic ParallelFor helper: every
// index is covered exactly once for any shard count, and the pool executes
// every submitted task exactly once.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "util/thread_pool.h"

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

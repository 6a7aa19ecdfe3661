#include "exec/morsel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>

#include "telemetry/trace.h"
#include "util/logging.h"

namespace arraydb::exec {

std::vector<const array::Chunk*> NonEmptyChunks(const array::Array& array) {
  std::vector<const array::Chunk*> chunks;
  for (const array::Chunk* chunk : array.SortedChunks()) {
    if (chunk->num_cells() != 0) chunks.push_back(chunk);
  }
  return chunks;
}

MorselScheduler::MorselScheduler(const ExecContext& context)
    : threads_(util::ResolveThreadCount(context.data_plane_threads)) {
  ARRAYDB_CHECK_GT(context.morsel_grain, 0);
}

std::vector<MorselRange> MorselScheduler::Carve(int64_t n, int64_t grain) {
  ARRAYDB_CHECK_GT(grain, 0);
  std::vector<MorselRange> morsels;
  if (n <= 0) return morsels;
  morsels.reserve(static_cast<size_t>((n + grain - 1) / grain));
  for (int64_t begin = 0; begin < n; begin += grain) {
    morsels.emplace_back(begin, std::min(begin + grain, n));
  }
  return morsels;
}

std::vector<MorselRange> MorselScheduler::CarveByWeight(
    const std::vector<int64_t>& weights, int64_t grain) {
  ARRAYDB_CHECK_GT(grain, 0);
  std::vector<MorselRange> morsels;
  const auto n = static_cast<int64_t>(weights.size());
  int64_t begin = 0;
  int64_t acc = 0;
  for (int64_t i = 0; i < n; ++i) {
    acc += weights[static_cast<size_t>(i)];
    if (acc >= grain) {
      morsels.emplace_back(begin, i + 1);
      begin = i + 1;
      acc = 0;
    }
  }
  if (begin < n) morsels.emplace_back(begin, n);
  return morsels;
}

std::vector<MorselRange> MorselScheduler::CarveChunks(
    const std::vector<const array::Chunk*>& chunks, int64_t grain) {
  std::vector<int64_t> weights;
  weights.reserve(chunks.size());
  for (const array::Chunk* chunk : chunks) {
    weights.push_back(static_cast<int64_t>(chunk->num_cells()));
  }
  return CarveByWeight(weights, grain);
}

void MorselScheduler::Run(
    const std::vector<MorselRange>& morsels,
    const std::function<void(size_t, int64_t, int64_t)>& fn) const {
  const size_t count = morsels.size();
  if (count == 0) return;
  TELEM_SPAN("exec.morsel.run");
  // Counted identically on Reduce's inline path, so the totals are
  // thread-count invariant (the per-worker busy histogram below is the
  // one schedule-dependent observation, and is documented as such).
  TELEM_COUNTER_ADD("exec.morsel.runs", 1);
  TELEM_COUNTER_ADD("exec.morsel.morsels_dispatched",
                    static_cast<int64_t>(count));

  // Shared ascending pickup: whichever worker is free takes the next morsel
  // index, so pickup order is chunk-major and load balancing is dynamic.
  std::atomic<size_t> next{0};
  const auto pump = [&next, &morsels, &fn, count] {
    TELEM_SPAN("exec.morsel.worker");
    const int64_t busy_start_ns = telemetry::MetricsNowNs();
    for (size_t m = next.fetch_add(1, std::memory_order_relaxed); m < count;
         m = next.fetch_add(1, std::memory_order_relaxed)) {
      fn(m, morsels[m].first, morsels[m].second);
    }
    if (busy_start_ns > 0) {
      TELEM_HISTOGRAM_RECORD(
          "exec.morsel.worker_busy_us",
          (telemetry::MetricsNowNs() - busy_start_ns) / 1000);
    }
  };

  const int helpers =
      static_cast<int>(
          std::min<size_t>(static_cast<size_t>(threads_), count)) -
      1;
  if (helpers <= 0) {
    pump();
    return;
  }

  struct Completion {
    std::mutex mu;
    std::condition_variable done;
    int remaining = 0;
  } completion;
  completion.remaining = helpers;

  std::vector<std::function<void()>> tasks;
  tasks.reserve(static_cast<size_t>(helpers));
  for (int h = 0; h < helpers; ++h) {
    tasks.emplace_back([&pump, &completion] {
      pump();
      std::lock_guard<std::mutex> lock(completion.mu);
      if (--completion.remaining == 0) completion.done.notify_one();
    });
  }
  util::ThreadPool::Shared().SubmitBatch(std::move(tasks));
  // The calling thread is a full worker: with a 1-thread pool (or a busy
  // pool) it drains every morsel itself, so completion never deadlocks on
  // pool capacity.
  pump();
  std::unique_lock<std::mutex> lock(completion.mu);
  completion.done.wait(lock,
                       [&completion] { return completion.remaining == 0; });
}

}  // namespace arraydb::exec

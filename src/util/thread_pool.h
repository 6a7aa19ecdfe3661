// A small fixed-size thread pool plus a deterministic ParallelFor helper.
//
// The pool serves the data plane's morsels (exec::MorselScheduler) and the
// reorg engine's simulated increment copy (ParallelFor). Work is sharded
// into contiguous index ranges, each shard writes only its own output
// slots, and the caller blocks until every shard has finished (ordered
// merge). Results are bit-identical to the sequential execution regardless
// of thread count or scheduling.

#ifndef ARRAYDB_UTIL_THREAD_POOL_H_
#define ARRAYDB_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace arraydb::util {

class ThreadPool {
 public:
  /// Starts `num_threads` workers (clamped to >= 1).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Enqueues `task` for execution on some worker.
  void Submit(std::function<void()> task);

  /// Enqueues all of `tasks` under one lock acquisition and wakes enough
  /// workers for them (batched submission for fan-outs like the morsel
  /// scheduler, which would otherwise pay a lock/notify round-trip per
  /// worker). Queue order is the vector order.
  void SubmitBatch(std::vector<std::function<void()>> tasks);

  /// Process-wide pool sized to the hardware concurrency, started lazily.
  static ThreadPool& Shared();

 private:
  // Queued work item. The enqueue timestamp feeds the
  // util.thread_pool.queue_wait_us telemetry histogram; it is 0 (and the
  // wait is not recorded) when telemetry is inactive.
  struct Task {
    std::function<void()> fn;
    int64_t enqueue_ns = 0;
  };

  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_available_;
  std::deque<Task> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

/// Runs body(begin, end) over contiguous shards of [0, n), at most
/// `max_shards` of them, on the shared pool; blocks until all shards have
/// completed. max_shards <= 1 (or tiny n) degenerates to an inline call, so
/// a thread count of 1 is exactly the sequential path.
void ParallelFor(int64_t n, int max_shards,
                 const std::function<void(int64_t, int64_t)>& body);

/// The one place a configured thread-count knob is interpreted: a positive
/// value is taken verbatim; zero (or negative) means "auto" and resolves to
/// std::thread::hardware_concurrency(), clamped to at least 1 for platforms
/// that report 0. Every consumer of a `*_threads` config field
/// (exec::ExecContext::data_plane_threads, reorg::ReorgOptions::copy_threads)
/// resolves through this helper.
int ResolveThreadCount(int configured);

}  // namespace arraydb::util

#endif  // ARRAYDB_UTIL_THREAD_POOL_H_

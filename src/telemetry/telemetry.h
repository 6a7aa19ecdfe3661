// Process-wide metrics registry: counters, gauges, and fixed-bucket
// histograms, named `layer.component.metric` (see src/telemetry/README.md
// for the naming scheme and the per-metric invariance classes).
//
// Design constraints, in order:
//
//   * Observe-only. Instrumentation never feeds back into control flow:
//     every query, join, and reorg result is bit-identical with telemetry
//     enabled, disabled at runtime, or compiled out entirely
//     (-DARRAYDB_TELEMETRY=OFF). tests/telemetry_test.cc pins this.
//   * Contention-free hot path. Each instrument shards its state over
//     kShards cache-line-isolated atomic cells indexed by a thread-local
//     slot, so concurrent increments from the morsel workers never bounce a
//     shared line. Reads (Value(), snapshots) sum the shards.
//   * Deterministic snapshots. Instruments live in sorted maps and hold
//     only integers, so SnapshotJson() is byte-identical whenever the
//     recorded values are — which the schedule-invariant metrics are at any
//     thread count (the morsel determinism contract extends to them).
//   * Bounded overhead. A disabled registry costs one relaxed atomic load
//     per call site; an enabled counter adds a thread-local read and, on a
//     shard its thread owns, a relaxed load and store (internal::Cell).
//     bench_operators measures the end-to-end ratio and CI gates it at
//     ceiling_telemetry_overhead_ratio (<= 1.05).
//
// Call sites use the TELEM_* macros, which cache the registry lookup in a
// function-local static and compile to nothing when the subsystem is
// compiled out. Instrument objects are never destroyed or invalidated
// (ResetValues zeroes them in place), so cached references stay valid for
// the process lifetime.

#ifndef ARRAYDB_TELEMETRY_TELEMETRY_H_
#define ARRAYDB_TELEMETRY_TELEMETRY_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

// Compile-out switch: -DARRAYDB_TELEMETRY=OFF (CMake) defines
// ARRAYDB_TELEMETRY_DISABLED, turning every TELEM_* macro into a no-op
// statement that does not evaluate its arguments. The registry classes
// themselves stay compiled so tooling and tests link in every build mode.
#if defined(ARRAYDB_TELEMETRY_DISABLED)
#define ARRAYDB_TELEMETRY_ENABLED 0
#else
#define ARRAYDB_TELEMETRY_ENABLED 1
#endif

namespace arraydb::telemetry {

namespace internal {

/// Sharding width for every instrument. 16 cache lines per counter is
/// plenty for the testbed's thread counts while keeping a histogram's
/// footprint at a few KiB.
inline constexpr int kShards = 16;

/// Shards [0, kOwnedShards) belong to one thread each: the first threads
/// to record. Every later thread shares one of the other shards, assigned
/// round-robin.
inline constexpr int kOwnedShards = kShards / 2;

/// Hands a thread its shard slot at its first recording.
int AssignShard();

/// This thread's shard slot.
inline int ShardIndex() {
  thread_local const int slot = AssignShard();
  return slot;
}

/// One integer of an instrument shard. A thread that owns its shard is the
/// only writer of the shard's cells, so it adds with a relaxed load and
/// store: no locked read-modify-write, which fences the pipeline on x86 and
/// costs as much as a small kernel call. Shared shards add with fetch_add.
/// Reset never writes `value`, only raises `base` to it, so a reset racing
/// an owner's add cannot be undone by that add's store.
struct Cell {
  std::atomic<int64_t> value{0};
  std::atomic<int64_t> base{0};

  void Add(int slot, int64_t n) {
    if (slot >= kOwnedShards) {
      value.fetch_add(n, std::memory_order_relaxed);
    } else {
      value.store(value.load(std::memory_order_relaxed) + n,
                  std::memory_order_relaxed);
    }
  }
  int64_t Get() const {
    return value.load(std::memory_order_relaxed) -
           base.load(std::memory_order_relaxed);
  }
  void Reset() {
    base.store(value.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
  }
};

extern std::atomic<bool> g_enabled;

/// Hot-path gate: true when recording is on. Relaxed — a caller racing a
/// toggle may record or skip one sample, which is fine for observation.
inline bool Active() {
  return g_enabled.load(std::memory_order_relaxed);
}

}  // namespace internal

/// Runtime master switch (default on). Gates metric recording AND trace
/// span collection; flipping it never changes any computed result, only
/// what gets observed.
bool Enabled();
void SetEnabled(bool enabled);

/// RAII toggle of the runtime switch (tests, and bench_operators' overhead
/// comparison arms).
class ScopedEnabled {
 public:
  explicit ScopedEnabled(bool enabled);
  ~ScopedEnabled();
  ScopedEnabled(const ScopedEnabled&) = delete;
  ScopedEnabled& operator=(const ScopedEnabled&) = delete;

 private:
  bool saved_;
};

/// Nanoseconds on the steady clock since the process telemetry epoch when
/// recording is active; 0 when disabled (callers use 0 to skip their
/// timing arithmetic too) or compiled out.
int64_t MetricsNowNs();

/// Monotonically increasing sum. Add is wait-free on the shard cell.
class Counter {
 public:
  void Add(int64_t n) {
    if (!internal::Active()) return;
    const int slot = internal::ShardIndex();
    shards_[slot].value.Add(slot, n);
  }

  int64_t Value() const;
  void Reset();

 private:
  struct alignas(64) Shard {
    internal::Cell value;
  };
  std::array<Shard, internal::kShards> shards_;
};

/// Last-set value plus a monotone high-water mark (queue depths, node
/// counts). Unsharded: gauges are set at configuration-rate call sites.
class Gauge {
 public:
  void Set(int64_t v);
  /// Raises the value to `v` if larger (and the high-water mark either
  /// way); used for peak-depth style observations.
  void UpdateMax(int64_t v);

  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  int64_t Peak() const { return peak_.load(std::memory_order_relaxed); }
  void Reset();

 private:
  std::atomic<int64_t> value_{0};
  std::atomic<int64_t> peak_{0};
};

/// Fixed power-of-two-bucket histogram of non-negative int64 samples
/// (latencies in microseconds, sizes in cells). Bucket 0 holds values
/// <= 0; bucket b >= 1 holds [2^(b-1), 2^b); the last bucket absorbs
/// everything above 2^(kBuckets-2). The layout is fixed at compile time, so
/// two histograms that recorded the same multiset serialize identically.
class Histogram {
 public:
  static constexpr int kBuckets = 32;

  void Record(int64_t value) {
    if (!internal::Active()) return;
    const int slot = internal::ShardIndex();
    Shard& shard = shards_[slot];
    shard.buckets[BucketIndex(value)].Add(slot, 1);
    shard.sum.Add(slot, value);
  }

  /// Bucket for `value`; pure, exposed for tests and the snapshot legend.
  static int BucketIndex(int64_t value);
  /// Inclusive upper bound of bucket `b` (INT64_MAX for the overflow
  /// bucket).
  static int64_t BucketUpperBound(int b);

  int64_t Count() const;
  int64_t Sum() const;
  std::array<int64_t, kBuckets> BucketCounts() const;
  void Reset();

 private:
  struct alignas(64) Shard {
    std::array<internal::Cell, kBuckets> buckets{};
    internal::Cell sum;
  };
  std::array<Shard, internal::kShards> shards_;
};

/// The process-wide instrument registry. Lookup is mutex-guarded and
/// intended to run once per call site (the TELEM_* macros cache the
/// reference in a function-local static); recording afterwards never takes
/// the lock.
class Registry {
 public:
  static Registry& Global();

  /// Finds or creates the named instrument. References stay valid for the
  /// process lifetime.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Serializes every instrument as sorted-key JSON:
  /// {"counters": {...}, "gauges": {...}, "histograms": {...}} — the same
  /// writer (telemetry::JsonWriter) the BENCH_*.json artifacts use.
  /// Deterministic: map order is lexicographic and all values are integers.
  std::string SnapshotJson() const;
  bool WriteJsonFile(const std::string& path) const;

  /// Zeroes every instrument in place (cached references stay valid).
  /// Tests isolate themselves with this; production never needs it.
  void ResetValues();

 private:
  Registry() = default;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace arraydb::telemetry

// -- Instrumentation macros ---------------------------------------------------
//
// `name` must be a string literal (or otherwise outlive the process): the
// registry lookup runs once per call site and the reference is cached.

#if ARRAYDB_TELEMETRY_ENABLED

#define TELEM_COUNTER_ADD(name, n)                                       \
  do {                                                                   \
    static ::arraydb::telemetry::Counter& arraydb_telem_instr_ =         \
        ::arraydb::telemetry::Registry::Global().counter(name);          \
    arraydb_telem_instr_.Add(n);                                         \
  } while (false)

#define TELEM_GAUGE_SET(name, v)                                         \
  do {                                                                   \
    static ::arraydb::telemetry::Gauge& arraydb_telem_instr_ =           \
        ::arraydb::telemetry::Registry::Global().gauge(name);            \
    arraydb_telem_instr_.Set(v);                                         \
  } while (false)

#define TELEM_HISTOGRAM_RECORD(name, v)                                  \
  do {                                                                   \
    static ::arraydb::telemetry::Histogram& arraydb_telem_instr_ =       \
        ::arraydb::telemetry::Registry::Global().histogram(name);        \
    arraydb_telem_instr_.Record(v);                                      \
  } while (false)

#else  // !ARRAYDB_TELEMETRY_ENABLED

// Compiled out: statements remain syntactically intact but evaluate
// nothing — the `if (false)` keeps the operands type-checked without
// running their side effects or leaving unused-variable warnings behind.
#define TELEM_COUNTER_ADD(name, n) \
  do {                             \
    if (false) {                   \
      (void)(name);                \
      (void)(n);                   \
    }                              \
  } while (false)
#define TELEM_GAUGE_SET(name, v) TELEM_COUNTER_ADD(name, v)
#define TELEM_HISTOGRAM_RECORD(name, v) TELEM_COUNTER_ADD(name, v)

#endif  // ARRAYDB_TELEMETRY_ENABLED

#endif  // ARRAYDB_TELEMETRY_TELEMETRY_H_

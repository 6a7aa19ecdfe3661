#include "telemetry/telemetry.h"

#include <bit>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

#include "telemetry/json.h"

namespace arraydb::telemetry {

namespace internal {

std::atomic<bool> g_enabled{true};

int AssignShard() {
  static std::atomic<uint64_t> next{0};
  const uint64_t n = next.fetch_add(1, std::memory_order_relaxed);
  constexpr uint64_t kOwned = kOwnedShards;
  constexpr uint64_t kShared = kShards - kOwnedShards;
  return static_cast<int>(n < kOwned ? n : kOwned + (n - kOwned) % kShared);
}

namespace {

// One steady-clock origin for every metric and trace timestamp in the
// process, fixed at first use.
std::chrono::steady_clock::time_point Epoch() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return epoch;
}

}  // namespace

}  // namespace internal

bool Enabled() { return internal::Active(); }

void SetEnabled(bool enabled) {
  internal::g_enabled.store(enabled, std::memory_order_relaxed);
}

ScopedEnabled::ScopedEnabled(bool enabled) : saved_(Enabled()) {
  SetEnabled(enabled);
}

ScopedEnabled::~ScopedEnabled() { SetEnabled(saved_); }

int64_t MetricsNowNs() {
#if ARRAYDB_TELEMETRY_ENABLED
  if (!internal::Active()) return 0;
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - internal::Epoch())
      .count();
#else
  return 0;
#endif
}

// -- Counter ------------------------------------------------------------------

int64_t Counter::Value() const {
  int64_t total = 0;
  for (const Shard& shard : shards_) total += shard.value.Get();
  return total;
}

void Counter::Reset() {
  for (Shard& shard : shards_) shard.value.Reset();
}

// -- Gauge --------------------------------------------------------------------

void Gauge::Set(int64_t v) {
  if (!internal::Active()) return;
  value_.store(v, std::memory_order_relaxed);
  UpdateMax(v);
}

void Gauge::UpdateMax(int64_t v) {
  if (!internal::Active()) return;
  int64_t seen = value_.load(std::memory_order_relaxed);
  while (v > seen &&
         !value_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
  }
  seen = peak_.load(std::memory_order_relaxed);
  while (v > seen &&
         !peak_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
  }
}

void Gauge::Reset() {
  value_.store(0, std::memory_order_relaxed);
  peak_.store(0, std::memory_order_relaxed);
}

// -- Histogram ----------------------------------------------------------------

int Histogram::BucketIndex(int64_t value) {
  if (value <= 0) return 0;
  const int width = std::bit_width(static_cast<uint64_t>(value));
  return width < kBuckets ? width : kBuckets - 1;
}

int64_t Histogram::BucketUpperBound(int b) {
  if (b <= 0) return 0;
  if (b >= kBuckets - 1) return std::numeric_limits<int64_t>::max();
  return (int64_t{1} << b) - 1;
}

int64_t Histogram::Count() const {
  int64_t total = 0;
  for (const Shard& shard : shards_) {
    for (const internal::Cell& bucket : shard.buckets) total += bucket.Get();
  }
  return total;
}

int64_t Histogram::Sum() const {
  int64_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.sum.Get();
  }
  return total;
}

std::array<int64_t, Histogram::kBuckets> Histogram::BucketCounts() const {
  std::array<int64_t, kBuckets> counts{};
  for (const Shard& shard : shards_) {
    for (int b = 0; b < kBuckets; ++b) {
      counts[static_cast<size_t>(b)] +=
          shard.buckets[static_cast<size_t>(b)].Get();
    }
  }
  return counts;
}

void Histogram::Reset() {
  for (Shard& shard : shards_) {
    for (internal::Cell& bucket : shard.buckets) bucket.Reset();
    shard.sum.Reset();
  }
}

// -- Registry -----------------------------------------------------------------

Registry& Registry::Global() {
  // Leaked: instruments must outlive every thread that may still be
  // flushing samples at process exit.
  static Registry* registry = new Registry();
  return *registry;
}

Counter& Registry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return *it->second;
}

std::string Registry::SnapshotJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  JsonWriter w(out);
  w.BeginObject();
  w.Key("counters");
  w.BeginObject();
  for (const auto& [name, counter] : counters_) {
    w.Key(name);
    w.Int(counter->Value());
  }
  w.EndObject();
  w.Key("gauges");
  w.BeginObject();
  for (const auto& [name, gauge] : gauges_) {
    w.Key(name);
    w.BeginObject();
    w.Key("value");
    w.Int(gauge->Value());
    w.Key("peak");
    w.Int(gauge->Peak());
    w.EndObject();
  }
  w.EndObject();
  w.Key("histograms");
  w.BeginObject();
  for (const auto& [name, histogram] : histograms_) {
    w.Key(name);
    w.BeginObject();
    w.Key("count");
    w.Int(histogram->Count());
    w.Key("sum");
    w.Int(histogram->Sum());
    w.Key("buckets");
    w.BeginArray();
    for (const int64_t count : histogram->BucketCounts()) w.Int(count);
    w.EndArray();
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  out << "\n";
  return out.str();
}

bool Registry::WriteJsonFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << SnapshotJson();
  return static_cast<bool>(out);
}

void Registry::ResetValues() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

namespace {

// ARRAYDB_METRICS=<path>: dump the registry snapshot at process exit —
// the zero-code way to get runtime metrics out of any bench or example.
struct EnvMetricsDump {
  EnvMetricsDump() {
    const char* path = std::getenv("ARRAYDB_METRICS");
    if (path != nullptr && *path != '\0') {
      static std::string metrics_path;
      metrics_path = path;
      std::atexit([] {
        Registry::Global().WriteJsonFile(metrics_path);
      });
    }
  }
};
[[maybe_unused]] const EnvMetricsDump g_env_metrics_dump;

}  // namespace

}  // namespace arraydb::telemetry

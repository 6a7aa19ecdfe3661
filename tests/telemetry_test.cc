// Telemetry subsystem suite (src/telemetry/): concurrent instrument
// hammering (exact totals under contention — runs under the TSan CI job),
// snapshot byte-determinism, thread-count invariance of the data-plane
// counters (the telemetry face of the morsel determinism contract), the
// observe-only bit-identity contract (results identical with telemetry
// enabled, disabled, and while tracing), the trace round-trip, and the
// CHECK_OP operand-printing upgrade.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "exec/join.h"
#include "exec/morsel.h"
#include "exec/operators.h"
#include "telemetry/json.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"
#include "util/logging.h"
#include "workload/sample_data.h"

namespace arraydb::telemetry {
namespace {

// -- Instruments under contention ---------------------------------------------

TEST(CounterTest, ConcurrentAddsSumExactly) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kAddsPerThread; ++i) counter.Add(3);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter.Value(), int64_t{3} * kThreads * kAddsPerThread);
  counter.Reset();
  EXPECT_EQ(counter.Value(), 0);
}

TEST(CounterTest, OwnedAndSharedShardsSumExactly) {
  // More threads than shards: the first to record own a shard each, the
  // rest share the others, and every add still lands exactly once.
  Counter counter;
  Histogram hist;
  constexpr int kThreads = 2 * internal::kShards + 3;
  constexpr int kAddsPerThread = 5000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter, &hist, t] {
      for (int i = 0; i < kAddsPerThread; ++i) {
        counter.Add(1);
        hist.Record(t);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter.Value(), int64_t{kThreads} * kAddsPerThread);
  EXPECT_EQ(hist.Count(), int64_t{kThreads} * kAddsPerThread);
  EXPECT_EQ(hist.Sum(),
            int64_t{kAddsPerThread} * (kThreads - 1) * kThreads / 2);
}

TEST(CounterTest, ResetThenAddCountsOnlyNewAdds) {
  Counter counter;
  Histogram hist;
  const auto record = [&counter, &hist](int64_t n) {
    counter.Add(n);
    hist.Record(n);
  };
  record(5);
  std::thread([&record] { record(7); }).join();
  counter.Reset();
  hist.Reset();
  EXPECT_EQ(counter.Value(), 0);
  EXPECT_EQ(hist.Count(), 0);
  record(2);
  std::thread([&record] { record(3); }).join();
  EXPECT_EQ(counter.Value(), 5);
  EXPECT_EQ(hist.Count(), 2);
  EXPECT_EQ(hist.Sum(), 5);
}

TEST(HistogramTest, ConcurrentRecordsCountExactly) {
  Histogram hist;
  constexpr int kThreads = 8;
  constexpr int kRecordsPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, t] {
      for (int i = 0; i < kRecordsPerThread; ++i) {
        hist.Record(t);  // Thread t hammers one bucket.
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(hist.Count(), int64_t{kThreads} * kRecordsPerThread);
  int64_t expected_sum = 0;
  for (int t = 0; t < kThreads; ++t) expected_sum += t;
  EXPECT_EQ(hist.Sum(), expected_sum * kRecordsPerThread);
  const auto buckets = hist.BucketCounts();
  int64_t total = 0;
  for (const int64_t b : buckets) total += b;
  EXPECT_EQ(total, hist.Count());
}

TEST(HistogramTest, BucketBoundaries) {
  // Bucket 0 holds <= 0; bucket b >= 1 holds [2^(b-1), 2^b).
  EXPECT_EQ(Histogram::BucketIndex(-5), 0);
  EXPECT_EQ(Histogram::BucketIndex(0), 0);
  EXPECT_EQ(Histogram::BucketIndex(1), 1);
  EXPECT_EQ(Histogram::BucketIndex(2), 2);
  EXPECT_EQ(Histogram::BucketIndex(3), 2);
  EXPECT_EQ(Histogram::BucketIndex(4), 3);
  EXPECT_EQ(Histogram::BucketIndex(1023), 10);
  EXPECT_EQ(Histogram::BucketIndex(1024), 11);
  EXPECT_EQ(Histogram::BucketIndex(INT64_MAX), Histogram::kBuckets - 1);
  for (int b = 1; b + 1 < Histogram::kBuckets; ++b) {
    EXPECT_EQ(Histogram::BucketIndex(Histogram::BucketUpperBound(b)), b);
    EXPECT_EQ(Histogram::BucketIndex(Histogram::BucketUpperBound(b) + 1),
              b + 1);
  }
}

TEST(GaugeTest, SetTracksValueAndPeak) {
  Gauge gauge;
  gauge.Set(5);
  gauge.Set(9);
  gauge.Set(2);
  EXPECT_EQ(gauge.Value(), 2);
  EXPECT_EQ(gauge.Peak(), 9);
  gauge.UpdateMax(7);
  EXPECT_EQ(gauge.Value(), 7);  // Raised: 7 > 2.
  gauge.UpdateMax(3);
  EXPECT_EQ(gauge.Value(), 7);  // Not lowered.
  EXPECT_EQ(gauge.Peak(), 9);
  gauge.Reset();
  EXPECT_EQ(gauge.Value(), 0);
  EXPECT_EQ(gauge.Peak(), 0);
}

TEST(TelemetryTest, DisabledInstrumentsRecordNothing) {
  Counter counter;
  Histogram hist;
  {
    ScopedEnabled off(false);
    counter.Add(7);
    hist.Record(42);
  }
  EXPECT_EQ(counter.Value(), 0);
  EXPECT_EQ(hist.Count(), 0);
  counter.Add(7);  // Master switch restored: recording works again.
  EXPECT_EQ(counter.Value(), 7);
}

// -- Snapshot determinism -----------------------------------------------------

TEST(RegistryTest, SnapshotIsSortedAndByteDeterministic) {
  auto& registry = Registry::Global();
  registry.ResetValues();
  registry.counter("zz.last").Add(2);
  registry.counter("aa.first").Add(1);
  registry.gauge("mm.middle").Set(5);
  registry.histogram("hh.hist").Record(100);

  const std::string snap1 = registry.SnapshotJson();
  const std::string snap2 = registry.SnapshotJson();
  EXPECT_EQ(snap1, snap2);  // Byte-identical for identical state.

  // Sorted keys: aa.first serializes before zz.last.
  EXPECT_NE(snap1.find("aa.first"), std::string::npos);
  EXPECT_LT(snap1.find("aa.first"), snap1.find("zz.last"));

  // Cached references survive ResetValues (zeroed in place, not erased).
  Counter& cached = registry.counter("aa.first");
  registry.ResetValues();
  EXPECT_EQ(cached.Value(), 0);
  cached.Add(4);
  EXPECT_EQ(registry.counter("aa.first").Value(), 4);
}

TEST(RegistryTest, SnapshotValuesConcurrentlyRecordedAreExact) {
  auto& registry = Registry::Global();
  registry.ResetValues();
  constexpr int kThreads = 8;
  constexpr int kAdds = 5000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      for (int i = 0; i < kAdds; ++i) {
        registry.counter("test.hammer.counter").Add(1);
        registry.histogram("test.hammer.hist").Record(i % 7);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(registry.counter("test.hammer.counter").Value(),
            int64_t{kThreads} * kAdds);
  EXPECT_EQ(registry.histogram("test.hammer.hist").Count(),
            int64_t{kThreads} * kAdds);
}

// -- Thread-count invariance of the data-plane counters -----------------------

#if ARRAYDB_TELEMETRY_ENABLED

// The designated schedule-invariant counters (src/telemetry/README.md):
// their totals must be bit-identical at every thread count, because the
// morsel decomposition and the join structure are pure in the data and the
// grain. Schedule-dependent observations (worker busy histograms, queue
// depths) are deliberately absent from this list.
std::vector<std::string> InvariantCounters() {
  return {"exec.join.dim_joins", "exec.join.build_keys",
          "exec.join.probe_cells", "exec.join.probe_hits",
          "exec.morsel.runs", "exec.morsel.morsels_dispatched"};
}

std::map<std::string, int64_t> RunJoinAndCollect(const array::Array& a,
                                                 const array::Array& b,
                                                 int threads) {
  auto& registry = Registry::Global();
  registry.ResetValues();
  exec::ExecContext context;
  context.data_plane_threads = threads;
  context.morsel_grain = 192;  // Small grain: genuinely multi-morsel.
  const int64_t matches = exec::DimJoinCount(a, b, context);
  EXPECT_GT(matches, 0);
  std::map<std::string, int64_t> values;
  for (const auto& name : InvariantCounters()) {
    values[name] = registry.counter(name).Value();
  }
  return values;
}

TEST(InvarianceTest, JoinCountersIdenticalAcrossThreadCounts) {
  const array::Array modis =
      workload::MakeSmallModisBand(/*days=*/4, /*seed=*/2014);
  const array::Array other =
      workload::MakeSmallModisBand(/*days=*/3, /*seed=*/77);
  const auto sequential = RunJoinAndCollect(modis, other, /*threads=*/1);
  EXPECT_GT(sequential.at("exec.join.probe_hits"), 0);
  EXPECT_GT(sequential.at("exec.morsel.morsels_dispatched"), 1);
  for (const int threads : {2, 0}) {
    const auto parallel = RunJoinAndCollect(modis, other, threads);
    EXPECT_EQ(parallel, sequential) << "threads=" << threads;
  }
  Registry::Global().ResetValues();
}

#endif  // ARRAYDB_TELEMETRY_ENABLED

// -- Observe-only: bit-identical results on/off/tracing -----------------------

struct QueryResults {
  int64_t join = 0;
  int64_t filter = 0;
  std::map<array::Coordinates, double> groups;

  bool operator==(const QueryResults&) const = default;
};

QueryResults RunQueries(const array::Array& modis, const array::Array& other) {
  QueryResults r;
  exec::ExecContext context;
  context.data_plane_threads = 0;  // All hardware: the contended path.
  context.morsel_grain = 192;
  r.join = exec::DimJoinCount(modis, other, context);
  const exec::CellBox box{{0, 4, 4}, {2, 20, 12}};
  r.filter = exec::FilterBoxCount(modis, box, context);
  r.groups = exec::GroupBySum(modis, {2, 8, 8}, 0, context);
  return r;
}

TEST(ObserveOnlyTest, ResultsBitIdenticalOnOffAndTracing) {
  const array::Array modis =
      workload::MakeSmallModisBand(/*days=*/4, /*seed=*/2014);
  const array::Array other =
      workload::MakeSmallModisBand(/*days=*/3, /*seed=*/77);

  QueryResults enabled, disabled, traced;
  {
    ScopedEnabled on(true);
    enabled = RunQueries(modis, other);
  }
  {
    ScopedEnabled off(false);
    disabled = RunQueries(modis, other);
  }
  {
    ScopedEnabled on(true);
    ScopedTracing tracing;
    traced = RunQueries(modis, other);
  }
  EXPECT_GT(enabled.join, 0);
  EXPECT_GT(enabled.filter, 0);
  EXPECT_FALSE(enabled.groups.empty());
  EXPECT_EQ(disabled, enabled);
  EXPECT_EQ(traced, enabled);
  Registry::Global().ResetValues();
  ClearTrace();
}

// -- Trace round-trip ---------------------------------------------------------

TEST(TraceTest, SpansCollectOnlyWhileActiveAndWriteValidJson) {
  ClearTrace();
  {
    // No tracing window open: spans cost a check and record nothing.
    TraceSpan idle("test.idle");
  }
  EXPECT_EQ(TraceEventCount(), 0u);

  {
    ScopedTracing tracing;
    TraceSpan outer("test.outer");
    {
      TraceSpan inner("test.inner");
    }
  }
  EXPECT_EQ(TraceEventCount(), 2u);

  const std::string path = ::testing::TempDir() + "telemetry_test_trace.json";
  ASSERT_TRUE(WriteTrace(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string trace = buffer.str();
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"test.outer\""), std::string::npos);
  EXPECT_NE(trace.find("\"test.inner\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);
  ClearTrace();
  EXPECT_EQ(TraceEventCount(), 0u);
}

TEST(TraceTest, MasterSwitchGatesSpans) {
  ClearTrace();
  ScopedTracing tracing;
  {
    ScopedEnabled off(false);
    TraceSpan muted("test.muted");
  }
  EXPECT_EQ(TraceEventCount(), 0u);
  {
    TraceSpan heard("test.heard");
  }
  EXPECT_EQ(TraceEventCount(), 1u);
  ClearTrace();
}

// -- JSON writer --------------------------------------------------------------

TEST(JsonWriterTest, EscapesAndNests) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
  EXPECT_EQ(JsonEscape(std::string_view("\x01", 1)), "\\u0001");

  std::ostringstream out;
  JsonWriter json(out, /*pretty=*/false);
  json.BeginObject();
  json.Key("list");
  json.BeginArray();
  json.Int(1);
  json.Int(2);
  json.EndArray();
  json.Key("s");
  json.String("x\"y");
  json.Key("f");
  json.Double(1.5, "%.2f");
  json.Key("b");
  json.Bool(true);
  json.EndObject();
  EXPECT_EQ(out.str(),
            "{\"list\":[1,2],\"s\":\"x\\\"y\",\"f\":1.50,\"b\":true}");
}

// -- CHECK_OP operand printing ------------------------------------------------

TEST(CheckOpDeathTest, FailureMessageShowsOperandValues) {
  const int lhs = 4;
  const int rhs = 5;
  EXPECT_DEATH(ARRAYDB_CHECK_EQ(lhs, rhs), "lhs == rhs \\(4 vs\\. 5\\)");
  const char small = 'a';
  const char big = 'b';
  // Char-family integrals print numerically ('a' -> 97), not as bytes.
  EXPECT_DEATH(ARRAYDB_CHECK_GT(small, big), "\\(97 vs\\. 98\\)");
  const std::string name = "alpha";
  EXPECT_DEATH(ARRAYDB_CHECK_EQ(name, std::string("beta")),
               "\\(alpha vs\\. beta\\)");
}

}  // namespace
}  // namespace arraydb::telemetry

#include "telemetry/trace.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <vector>

#include "telemetry/json.h"

namespace arraydb::telemetry {

namespace {

struct TraceEvent {
  const char* name;
  int64_t ts_ns;
  int64_t dur_ns;
  uint32_t tid;
};

// Per-thread span buffer. The mutex serializes the owning thread's appends
// against collection from WriteTrace/ClearTrace — appends are frequent but
// the lock is almost always uncontended, and spans are coarse (per morsel
// run / reorg step / workload cycle), so this stays off any per-cell path.
struct ThreadTraceBuffer {
  std::mutex mu;
  std::vector<TraceEvent> events;
  uint32_t tid = 0;

  ThreadTraceBuffer();
  ~ThreadTraceBuffer();
};

struct TraceState {
  std::atomic<int> depth{0};  // StartTracing nesting depth.
  std::mutex mu;              // Guards the fields below.
  std::vector<ThreadTraceBuffer*> live;
  std::vector<TraceEvent> drained;  // Flushed by exited threads.
  uint32_t next_tid = 1;
};

// Leaked: thread_local buffer destructors (including the main thread's, at
// process exit) must always find live state.
TraceState& State() {
  static TraceState* state = new TraceState();
  return *state;
}

ThreadTraceBuffer::ThreadTraceBuffer() {
  TraceState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  tid = state.next_tid++;
  state.live.push_back(this);
}

ThreadTraceBuffer::~ThreadTraceBuffer() {
  TraceState& state = State();
  std::lock_guard<std::mutex> state_lock(state.mu);
  {
    std::lock_guard<std::mutex> lock(mu);
    state.drained.insert(state.drained.end(), events.begin(), events.end());
    events.clear();
  }
  state.live.erase(std::find(state.live.begin(), state.live.end(), this));
}

ThreadTraceBuffer& LocalBuffer() {
  thread_local ThreadTraceBuffer buffer;
  return buffer;
}

std::vector<TraceEvent> CollectEvents() {
  TraceState& state = State();
  std::lock_guard<std::mutex> state_lock(state.mu);
  std::vector<TraceEvent> all = state.drained;
  for (ThreadTraceBuffer* buffer : state.live) {
    std::lock_guard<std::mutex> lock(buffer->mu);
    all.insert(all.end(), buffer->events.begin(), buffer->events.end());
  }
  return all;
}

}  // namespace

bool TracingActive() {
  return State().depth.load(std::memory_order_relaxed) > 0 &&
         internal::Active();
}

void StartTracing() {
  // Pin the clock epoch before the first span so timestamps are relative
  // to a fixed origin.
  (void)MetricsNowNs();
  State().depth.fetch_add(1, std::memory_order_relaxed);
}

void StopTracing() {
  std::atomic<int>& depth = State().depth;
  int seen = depth.load(std::memory_order_relaxed);
  while (seen > 0 && !depth.compare_exchange_weak(
                         seen, seen - 1, std::memory_order_relaxed)) {
  }
}

ScopedTracing::ScopedTracing() { StartTracing(); }
ScopedTracing::~ScopedTracing() { StopTracing(); }

TraceSpan::TraceSpan(const char* name) : name_(name) {
  if (!TracingActive()) return;
  active_ = true;
  start_ns_ = MetricsNowNs();
}

TraceSpan::~TraceSpan() {
  if (!active_ || !TracingActive()) return;
  const int64_t end_ns = MetricsNowNs();
  ThreadTraceBuffer& buffer = LocalBuffer();
  std::lock_guard<std::mutex> lock(buffer.mu);
  buffer.events.push_back(
      TraceEvent{name_, start_ns_, end_ns - start_ns_, buffer.tid});
}

size_t TraceEventCount() { return CollectEvents().size(); }

void ClearTrace() {
  TraceState& state = State();
  std::lock_guard<std::mutex> state_lock(state.mu);
  state.drained.clear();
  for (ThreadTraceBuffer* buffer : state.live) {
    std::lock_guard<std::mutex> lock(buffer->mu);
    buffer->events.clear();
  }
}

bool WriteTrace(const std::string& path) {
  std::vector<TraceEvent> events = CollectEvents();
  // Deterministic file order for a given event set: by thread, then time,
  // then longest-first so an enclosing span precedes its children even at
  // equal timestamps.
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.ts_ns != b.ts_ns) return a.ts_ns < b.ts_ns;
              return a.dur_ns > b.dur_ns;
            });

  std::ofstream out(path);
  if (!out) return false;
  JsonWriter w(out, /*pretty=*/false);
  w.BeginObject();
  w.Key("traceEvents");
  w.BeginArray();
  for (const TraceEvent& e : events) {
    w.BeginObject();
    w.Key("name");
    w.String(e.name);
    w.Key("cat");
    w.String("arraydb");
    w.Key("ph");
    w.String("X");
    w.Key("pid");
    w.Int(1);
    w.Key("tid");
    w.Int(static_cast<int64_t>(e.tid));
    w.Key("ts");
    w.Double(static_cast<double>(e.ts_ns) / 1e3, "%.3f");
    w.Key("dur");
    w.Double(static_cast<double>(e.dur_ns) / 1e3, "%.3f");
    w.EndObject();
  }
  w.EndArray();
  w.Key("displayTimeUnit");
  w.String("ms");
  w.EndObject();
  out << "\n";
  return static_cast<bool>(out);
}

namespace {

// ARRAYDB_TRACE=<path>: trace the whole process and write the file at
// exit. Static-initialized so benches and examples need no code.
struct EnvTraceInit {
  EnvTraceInit() {
    const char* path = std::getenv("ARRAYDB_TRACE");
    if (path != nullptr && *path != '\0') {
      static std::string env_path;
      env_path = path;
      StartTracing();
      std::atexit([] { WriteTrace(env_path); });
    }
  }
};
[[maybe_unused]] const EnvTraceInit g_env_trace_init;

}  // namespace

}  // namespace arraydb::telemetry

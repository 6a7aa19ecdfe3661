// Scoped trace spans exported as Chrome/Perfetto trace-event JSON.
//
// A TELEM_SPAN("layer.component.phase") statement records one complete
// ("ph": "X") event — name, thread, start, duration — into a per-thread
// buffer when tracing is active, and costs one relaxed atomic load when it
// is not. Buffers are collected (under per-buffer locks, so live workers
// never race the writer) and sorted into a single trace file by
// WriteTrace(); ci/check_trace.py validates the output parses and that
// spans nest monotonically per thread, which RAII scoping guarantees by
// construction.
//
// Activation:
//   * ARRAYDB_TRACE=<path> in the environment — collection starts at
//     process start and the file is written at exit (zero-code tracing for
//     the benches and examples; the way CI captures a trace), or
//   * a ScopedTracing window in code, serialized with WriteTrace().
//
// Tracing is observe-only under the same contract as the metrics registry:
// results are bit-identical with tracing on, off, or compiled out. The
// runtime master switch (telemetry::SetEnabled) gates span collection too,
// so one toggle silences the whole subsystem.

#ifndef ARRAYDB_TELEMETRY_TRACE_H_
#define ARRAYDB_TELEMETRY_TRACE_H_

#include <cstdint>
#include <string>

#include "telemetry/telemetry.h"

namespace arraydb::telemetry {

/// True when spans are being collected: tracing started (ScopedTracing or
/// ARRAYDB_TRACE) and the master switch is on.
bool TracingActive();

/// Starts/stops span collection. Nestable (depth-counted); StopTracing
/// never drops below zero.
void StartTracing();
void StopTracing();

/// RAII tracing window (the workload runner, tests).
class ScopedTracing {
 public:
  ScopedTracing();
  ~ScopedTracing();
  ScopedTracing(const ScopedTracing&) = delete;
  ScopedTracing& operator=(const ScopedTracing&) = delete;
};

/// Writes every span collected so far (all threads, dead or alive) as a
/// Chrome trace-event JSON file: {"traceEvents": [{"name", "cat", "ph":
/// "X", "pid", "tid", "ts", "dur"}, ...]}, timestamps in microseconds.
/// Safe to call while workers are still tracing. Returns false on I/O
/// failure.
bool WriteTrace(const std::string& path);

/// Number of spans currently buffered (tests).
size_t TraceEventCount();

/// Discards every buffered span (tests).
void ClearTrace();

/// One RAII span. Prefer the TELEM_SPAN macro, which compiles out with the
/// rest of the subsystem. `name` must outlive the process (string
/// literals).
class TraceSpan {
 public:
  explicit TraceSpan(const char* name);
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_;
  int64_t start_ns_ = 0;
  bool active_ = false;
};

}  // namespace arraydb::telemetry

#if ARRAYDB_TELEMETRY_ENABLED

#define ARRAYDB_TELEM_CONCAT_INNER(a, b) a##b
#define ARRAYDB_TELEM_CONCAT(a, b) ARRAYDB_TELEM_CONCAT_INNER(a, b)

#define TELEM_SPAN(name)                                  \
  [[maybe_unused]] const ::arraydb::telemetry::TraceSpan  \
      ARRAYDB_TELEM_CONCAT(arraydb_telem_span_, __LINE__)(name)

#else  // !ARRAYDB_TELEMETRY_ENABLED

#define TELEM_SPAN(name) \
  do {                   \
  } while (false)

#endif  // ARRAYDB_TELEMETRY_ENABLED

#endif  // ARRAYDB_TELEMETRY_TRACE_H_

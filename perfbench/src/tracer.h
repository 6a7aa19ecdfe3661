// Wall-clock timing of calls into the library, plus optional span capture.
//
// Every call the benchmark makes into a library module is wrapped in a
// Timed guard. The guard always reads the steady clock (the end-to-end
// latencies need the duration), and when the tracer is recording it also
// keeps a span: name, start, end, parent span, and the workload cycle as
// the request id. Spans stay in memory and are written once, at the end of
// the run, as Chrome trace-event JSON (ci/check_trace.py validates it).
//
// Span names are "<layer>.<operation>" for calls into a module (array,
// core, cluster, reorg, exec) and "bench.*" / "phase.*" for the
// benchmark's own structure. A layer's self time is the duration of its
// spans minus the time their child spans cover.

#ifndef PERFBENCH_TRACER_H_
#define PERFBENCH_TRACER_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace arraydb::perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  struct Span {
    const char* name = nullptr;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int32_t parent = -1;  // Index into spans(); -1 for a root.
    int32_t cycle = -1;   // Request id: the workload cycle.
    int32_t episode = 0;
  };

  void set_recording(bool on) { recording_ = on; }
  bool recording() const { return recording_; }
  void set_cycle(int cycle) { cycle_ = cycle; }
  void set_episode(int episode) { episode_ = episode; }

  /// Opens a span starting at `start_ns`; returns its index, or -1 when not
  /// recording.
  int Open(const char* name, int64_t start_ns);
  void Close(int index, int64_t end_ns);

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes every span as {"traceEvents": [...]} with microsecond
  /// timestamps relative to the first span. Returns false on I/O failure.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
  bool recording_ = false;
  int cycle_ = -1;
  int episode_ = 0;
};

/// RAII timer around one call; records a span when the tracer is recording.
class Timed {
 public:
  Timed(Tracer& tracer, const char* name)
      : tracer_(&tracer), start_ns_(NowNs()) {
    index_ = tracer.Open(name, start_ns_);
  }
  ~Timed() { Stop(); }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

  /// Ends the span (first call only) and returns its duration in ns.
  int64_t Stop() {
    if (end_ns_ == 0) {
      end_ns_ = NowNs();
      tracer_->Close(index_, end_ns_);
    }
    return end_ns_ - start_ns_;
  }
  int64_t start_ns() const { return start_ns_; }

 private:
  Tracer* tracer_;
  int64_t start_ns_;
  int64_t end_ns_ = 0;
  int index_ = -1;
};

/// Self time per span name and per layer over the recorded spans of one
/// episode.
struct Ledger {
  double episode_s = 0.0;  // Duration of the episode's root span.
  double busy_s = 0.0;  // The same, less the migration's waits and CPU moves.
  std::map<std::string, double> self_s_by_layer;  // "array", "exec", ...
  std::map<std::string, double> phase_s;          // "ingest", "reorg", ...
  /// Share of the busy time not covered by the self time of any module
  /// span.
  double unattributed_share = 0.0;
};

/// Builds the ledger of episode `episode` from `spans`. Module layers are
/// the span-name prefixes listed in kLayers.
Ledger BuildLedger(const std::vector<Tracer::Span>& spans, int episode);

inline constexpr const char* kLayers[] = {"array", "core", "cluster", "reorg",
                                          "exec"};

}  // namespace arraydb::perfbench

#endif  // PERFBENCH_TRACER_H_

// Multi-tenant serving layer above exec::QueryEngine's pricing: N
// concurrent sessions submit queries into per-session bounded queues with
// priority tiers (interactive / batch), an admission controller sheds work
// with a typed rejection — never blocking — when queue depth or in-flight
// bytes exceed limits, and long batch work yields to point queries at
// virtual slice boundaries.
//
// The server is a deterministic virtual-time machine: requests carry a
// simulated service demand in minutes (typically QueryEngine::Simulate's
// pricing of the query, the paper's §3.4 minutes), and SessionServer plays
// W virtual workers forward over a discrete-event clock — time-sliced,
// priority-scheduled, admission-controlled. Latency percentiles are
// therefore machine-independent and exactly reproducible, which is what
// lets CI gate the interactive p99 as a hard ceiling (BENCH_serving.json),
// and the completion records do not depend on how many sessions submitted
// the requests. See src/serve/README.md.

#ifndef ARRAYDB_SERVE_SERVE_H_
#define ARRAYDB_SERVE_SERVE_H_

#include <array>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace arraydb::serve {

/// Priority tiers. Interactive requests are picked before batch whenever
/// the scheduler chooses, and batch work yields to them at slice
/// boundaries; neither tier can starve the other's admission.
enum class Tier { kInteractive = 0, kBatch = 1 };
inline constexpr int kNumTiers = 2;
const char* TierName(Tier tier);

/// Typed admission outcome. Everything except kAdmitted is a shed — the
/// submitter got an immediate answer, never a blocked thread.
enum class Admission {
  kAdmitted = 0,
  /// The session's own bounded queue is full.
  kRejectedSessionQueue,
  /// The tier's aggregate queue is saturated.
  kRejectedTierSaturated,
  /// Admitting the request's scan bytes would exceed the in-flight cap.
  kRejectedBytesInFlight,
  /// No such session (or the server already finished).
  kRejectedUnknownSession,
};
const char* AdmissionName(Admission admission);
inline bool Admitted(Admission a) { return a == Admission::kAdmitted; }

struct AdmissionLimits {
  /// Maximum queued (admitted, not yet started) requests per session.
  int max_session_queue = 64;
  /// Maximum queued requests per tier across all sessions.
  int max_tier_queue = 512;
  /// Cap on the summed scan_gb of admitted-but-unfinished requests.
  double max_inflight_gb = 1024.0;
  /// Fraction of the batch tier's queue capacity shed while the server runs
  /// degraded (ServerOptions::degraded — fault recovery is consuming
  /// bandwidth): batch admission tightens so retry traffic and interactive
  /// queries keep their headroom. Clamped to [0, 1]; 0 or NaN disables
  /// shedding.
  double degraded_batch_shed_fraction = 0.5;
};

struct SchedulerPolicy {
  /// Pick ready interactive requests before ready batch requests. Off:
  /// one FIFO by submission order across tiers.
  bool priority_tiers = true;
  /// Run work one slice at a time (ServerOptions::slice_minutes); at each
  /// slice boundary — the virtual pickup counter — a batch request parks
  /// if an interactive request is waiting. Off: run-to-completion.
  bool time_slicing = true;

  /// The single-queue FIFO baseline the bench compares against.
  static SchedulerPolicy Fifo() {
    SchedulerPolicy policy;
    policy.priority_tiers = false;
    policy.time_slicing = false;
    return policy;
  }
};

struct ServerOptions {
  /// Virtual workers serving requests (the pool the tiers share).
  int workers = 4;
  /// Virtual minutes of service per slice when time_slicing is on. The
  /// virtual analogue of a morsel: preemption happens only at slice
  /// boundaries, never mid-slice.
  double slice_minutes = 0.05;
  /// Service-time dilation applied to every request (>= 1): the
  /// query_dilation from cluster::CostModel::Arbitrate, charging migration
  /// intrusion to service.
  double service_dilation = 1.0;
  /// Degraded mode: fault recovery (retries, replans, aborts) is active in
  /// the migration plane, so the batch tier's queue capacity is shed by
  /// AdmissionLimits::degraded_batch_shed_fraction. Interactive admission
  /// and all scheduling are untouched — results stay bit-identical; only
  /// batch shed decisions can differ.
  bool degraded = false;
  AdmissionLimits admission;
  SchedulerPolicy policy;
};

/// One query submitted to a session. Service demand and scan bytes come
/// from the engine's pricing of the underlying QuerySpec.
struct Request {
  std::string name;
  /// Simulated service minutes (before dilation). Clamped to >= 0.
  double cost_minutes = 0.0;
  /// Bytes the request holds in flight while admitted, in GB. Clamped to
  /// >= 0 (NaN counts as 0).
  double scan_gb = 0.0;
  /// Requested arrival time on the virtual clock; the effective arrival
  /// is max(arrival_minutes, current clock) — time never runs backwards.
  double arrival_minutes = 0.0;
};

/// A served request's lifecycle record, in completion order.
struct Completed {
  std::string name;
  int session = -1;
  Tier tier = Tier::kInteractive;
  double arrival_minutes = 0.0;
  double start_minutes = 0.0;   // First slice began.
  double finish_minutes = 0.0;  // Last slice ended.
  double latency_minutes = 0.0;  // finish - arrival (queueing + service).
  int slices = 1;
};

/// Nearest-rank latency percentiles, reported in simulated milliseconds
/// (1 virtual minute = 60000 ms).
struct LatencySummary {
  int64_t count = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
  double mean_ms = 0.0;
};

/// Builds the summary from raw latencies in virtual minutes.
LatencySummary Summarize(std::vector<double> latencies_minutes);

/// Per-tier accounting.
struct TierStats {
  int64_t submitted = 0;
  int64_t admitted = 0;
  int64_t rejected_session_queue = 0;
  int64_t rejected_tier_saturated = 0;
  int64_t rejected_bytes = 0;
  LatencySummary latency;

  int64_t rejected() const {
    return rejected_session_queue + rejected_tier_saturated + rejected_bytes;
  }
};

struct ServeResult {
  std::array<TierStats, kNumTiers> tiers;
  std::vector<Completed> completed;
  /// Virtual time the last admitted request finished.
  double makespan_minutes = 0.0;
  /// Peak summed scan_gb of admitted-but-unfinished requests.
  double peak_inflight_gb = 0.0;

  const TierStats& tier(Tier t) const {
    return tiers[static_cast<size_t>(t)];
  }
  int64_t total_rejected() const {
    return tiers[0].rejected() + tiers[1].rejected();
  }
};

/// The serving layer's session front door and scheduler. Thread-safe: any
/// number of threads may open sessions and submit concurrently (one lock
/// serializes the virtual machine; each step is O(log workers)).
///
/// Lifecycle: OpenSession × N → Submit (each returns its typed admission
/// verdict immediately, evaluated against live virtual state) → Finish()
/// drains the virtual machine and returns the result. One-shot: after
/// Finish() every Submit is rejected with kRejectedUnknownSession.
class SessionServer {
 public:
  explicit SessionServer(ServerOptions options);

  /// Opens a session in `tier`; returns its id. Sessions are never closed
  /// individually — the server is per-scenario, not long-lived.
  int OpenSession(Tier tier);

  /// Admission-checks and, if admitted, enqueues the request. The check
  /// runs against the virtual state at the request's effective arrival
  /// time (the machine is first advanced there), so a shed decision
  /// reflects the queue depths and in-flight bytes an online controller
  /// would see. Returns immediately in every case.
  Admission Submit(int session, Request request);

  /// Drains all admitted work and returns the result.
  ServeResult Finish();

  const ServerOptions& options() const { return options_; }

 private:
  // An admitted request riding the virtual machine.
  struct Pending {
    enum class State { kReady, kRunning, kDone };
    Request request;
    int session = -1;
    Tier tier = Tier::kInteractive;
    uint64_t seq = 0;         // Submission order; the FIFO/park tiebreak.
    double arrival = 0.0;     // Effective (clock-clamped) arrival.
    double remaining = 0.0;   // Dilated service minutes left.
    double start = -1.0;      // First slice start; -1 until started.
    int slices = 0;
    State state = State::kReady;
  };
  struct Session {
    Tier tier = Tier::kInteractive;
    int queued = 0;  // Admitted, not yet started.
  };

  void AdvanceLocked(double minutes);
  void DispatchLocked();
  bool PickReadyLocked(size_t* out_index) const;
  void CompleteLocked(size_t pending_index);

  ServerOptions options_;

  mutable std::mutex mu_;
  bool finished_ = false;
  double clock_minutes_ = 0.0;
  std::vector<Session> sessions_;
  std::vector<Pending> pending_;
  ServeResult result_;
  double inflight_gb_ = 0.0;
  std::array<int, kNumTiers> tier_queued_{};
  // Virtual workers, index = worker id: when the worker runs a slice,
  // running_[w] is the pending_ index and free_at_[w] the slice end;
  // idle workers hold running_[w] = -1.
  std::vector<double> worker_free_at_;
  std::vector<int64_t> worker_running_;
};

}  // namespace arraydb::serve

#endif  // ARRAYDB_SERVE_SERVE_H_

#include "serve/serve.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "telemetry/telemetry.h"

namespace arraydb::serve {

namespace {

size_t TierIndex(Tier tier) { return static_cast<size_t>(tier); }

}  // namespace

const char* TierName(Tier tier) {
  switch (tier) {
    case Tier::kInteractive:
      return "interactive";
    case Tier::kBatch:
      return "batch";
  }
  return "unknown";
}

const char* AdmissionName(Admission admission) {
  switch (admission) {
    case Admission::kAdmitted:
      return "admitted";
    case Admission::kRejectedSessionQueue:
      return "rejected_session_queue";
    case Admission::kRejectedTierSaturated:
      return "rejected_tier_saturated";
    case Admission::kRejectedBytesInFlight:
      return "rejected_bytes_in_flight";
    case Admission::kRejectedUnknownSession:
      return "rejected_unknown_session";
  }
  return "unknown";
}

LatencySummary Summarize(std::vector<double> latencies_minutes) {
  LatencySummary summary;
  summary.count = static_cast<int64_t>(latencies_minutes.size());
  if (latencies_minutes.empty()) return summary;
  std::sort(latencies_minutes.begin(), latencies_minutes.end());
  const auto nearest_rank = [&latencies_minutes](double q) {
    const auto n = latencies_minutes.size();
    size_t rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(n)));
    rank = std::clamp<size_t>(rank, 1, n);
    return latencies_minutes[rank - 1];
  };
  constexpr double kMsPerMinute = 60000.0;
  summary.p50_ms = nearest_rank(0.50) * kMsPerMinute;
  summary.p99_ms = nearest_rank(0.99) * kMsPerMinute;
  summary.max_ms = latencies_minutes.back() * kMsPerMinute;
  double sum = 0.0;
  for (double v : latencies_minutes) sum += v;
  summary.mean_ms =
      sum / static_cast<double>(latencies_minutes.size()) * kMsPerMinute;
  return summary;
}

SessionServer::SessionServer(ServerOptions options)
    : options_(options) {
  options_.workers = std::max(1, options_.workers);
  options_.service_dilation = std::max(1.0, options_.service_dilation);
  worker_free_at_.assign(static_cast<size_t>(options_.workers), 0.0);
  worker_running_.assign(static_cast<size_t>(options_.workers), -1);
}

int SessionServer::OpenSession(Tier tier) {
  std::lock_guard<std::mutex> lock(mu_);
  Session session;
  session.tier = tier;
  sessions_.push_back(session);
  return static_cast<int>(sessions_.size()) - 1;
}

// Best ready request under the policy: (tier, seq) with priority tiers,
// plain seq for the FIFO baseline. Parked batch requests keep their
// original seq, so they are the oldest of their tier and resume first
// unless an interactive request is waiting.
bool SessionServer::PickReadyLocked(size_t* out_index) const {
  bool found = false;
  size_t best = 0;
  for (size_t i = 0; i < pending_.size(); ++i) {
    const Pending& p = pending_[i];
    if (p.state != Pending::State::kReady) continue;
    if (!found) {
      found = true;
      best = i;
      continue;
    }
    const Pending& b = pending_[best];
    if (options_.policy.priority_tiers) {
      if (std::make_pair(TierIndex(p.tier), p.seq) <
          std::make_pair(TierIndex(b.tier), b.seq)) {
        best = i;
      }
    } else if (p.seq < b.seq) {
      best = i;
    }
  }
  if (found) *out_index = best;
  return found;
}

void SessionServer::DispatchLocked() {
  for (size_t w = 0; w < worker_running_.size(); ++w) {
    if (worker_running_[w] >= 0 || worker_free_at_[w] > clock_minutes_) {
      continue;
    }
    size_t index;
    if (!PickReadyLocked(&index)) return;
    Pending& p = pending_[index];
    if (p.start < 0.0) {
      p.start = clock_minutes_;
      sessions_[static_cast<size_t>(p.session)].queued--;
      tier_queued_[TierIndex(p.tier)]--;
    }
    const bool sliced =
        options_.policy.time_slicing && options_.slice_minutes > 0.0;
    const double dt =
        sliced ? std::min(options_.slice_minutes, p.remaining) : p.remaining;
    p.remaining -= dt;
    p.slices++;
    p.state = Pending::State::kRunning;
    worker_running_[w] = static_cast<int64_t>(index);
    worker_free_at_[w] = clock_minutes_ + dt;
  }
}

void SessionServer::CompleteLocked(size_t pending_index) {
  Pending& pending = pending_[pending_index];
  pending.state = Pending::State::kDone;
  inflight_gb_ -= pending.request.scan_gb;
  Completed record;
  record.name = pending.request.name;
  record.session = pending.session;
  record.tier = pending.tier;
  record.arrival_minutes = pending.arrival;
  record.start_minutes = pending.start;
  record.finish_minutes = clock_minutes_;
  record.latency_minutes = clock_minutes_ - pending.arrival;
  record.slices = pending.slices;
  result_.makespan_minutes =
      std::max(result_.makespan_minutes, clock_minutes_);
  TELEM_COUNTER_ADD("serve.completed", 1);
  // Two call sites, not a ternary name: the macros cache the registry
  // lookup per site.
  const int64_t latency_ms = std::llround(record.latency_minutes * 60000.0);
  if (pending.tier == Tier::kInteractive) {
    TELEM_HISTOGRAM_RECORD("serve.latency.interactive_ms", latency_ms);
  } else {
    TELEM_HISTOGRAM_RECORD("serve.latency.batch_ms", latency_ms);
  }
  result_.completed.push_back(std::move(record));
}

void SessionServer::AdvanceLocked(double minutes) {
  DispatchLocked();
  while (true) {
    // Earliest slice completion not past `minutes`; ties break on worker
    // id, so the machine is a deterministic function of the submissions.
    bool found = false;
    size_t next_worker = 0;
    for (size_t w = 0; w < worker_running_.size(); ++w) {
      if (worker_running_[w] < 0) continue;
      if (worker_free_at_[w] > minutes) continue;
      if (!found || worker_free_at_[w] < worker_free_at_[next_worker]) {
        found = true;
        next_worker = w;
      }
    }
    if (!found) break;
    clock_minutes_ = std::max(clock_minutes_, worker_free_at_[next_worker]);
    const size_t index = static_cast<size_t>(worker_running_[next_worker]);
    Pending& p = pending_[index];
    worker_running_[next_worker] = -1;
    if (p.remaining <= 0.0) {
      CompleteLocked(index);
    } else {
      // Slice boundary — the virtual pickup counter. The request goes
      // back through the policy pick: it resumes immediately unless a
      // higher-priority (or older, in FIFO) request is waiting.
      p.state = Pending::State::kReady;
    }
    DispatchLocked();
  }
  if (minutes != std::numeric_limits<double>::infinity()) {
    clock_minutes_ = std::max(clock_minutes_, minutes);
    DispatchLocked();
  }
}

Admission SessionServer::Submit(int session, Request request) {
  std::lock_guard<std::mutex> lock(mu_);
  const Tier tier =
      (session >= 0 && static_cast<size_t>(session) < sessions_.size())
          ? sessions_[static_cast<size_t>(session)].tier
          : Tier::kInteractive;
  TierStats& stats = result_.tiers[TierIndex(tier)];
  if (finished_ || session < 0 ||
      static_cast<size_t>(session) >= sessions_.size()) {
    return Admission::kRejectedUnknownSession;
  }
  stats.submitted++;

  // Admission runs against the live virtual state at the request's
  // effective arrival: queue depths and in-flight bytes as an online
  // controller would see them.
  const double arrival = std::max(request.arrival_minutes, clock_minutes_);
  AdvanceLocked(arrival);
  // Stored clamped, so CompleteLocked releases exactly what was charged; a
  // NaN or negative value must not poison or undercut the in-flight sum.
  request.scan_gb = std::max(0.0, request.scan_gb);

  Session& s = sessions_[static_cast<size_t>(session)];
  // Degraded mode sheds batch queue capacity: fault recovery owns part of
  // the bandwidth, so sustained batch work is admitted against a smaller
  // queue while interactive limits stay untouched.
  int tier_limit = options_.admission.max_tier_queue;
  if (options_.degraded && tier == Tier::kBatch) {
    // NaN sheds nothing: std::clamp would pass it through to the cast.
    const double shed = options_.admission.degraded_batch_shed_fraction;
    const double keep =
        1.0 - (std::isnan(shed) ? 0.0 : std::clamp(shed, 0.0, 1.0));
    tier_limit = static_cast<int>(
        std::floor(keep * static_cast<double>(tier_limit)));
  }
  Admission verdict = Admission::kAdmitted;
  if (s.queued >= options_.admission.max_session_queue) {
    verdict = Admission::kRejectedSessionQueue;
    stats.rejected_session_queue++;
  } else if (tier_queued_[TierIndex(tier)] >= tier_limit) {
    verdict = Admission::kRejectedTierSaturated;
    stats.rejected_tier_saturated++;
    if (tier_queued_[TierIndex(tier)] <
        options_.admission.max_tier_queue) {
      // Only the degraded shed, not the configured limit, turned this away.
      TELEM_COUNTER_ADD("serve.degraded_sheds", 1);
    }
  } else if (inflight_gb_ + request.scan_gb >
             options_.admission.max_inflight_gb) {
    verdict = Admission::kRejectedBytesInFlight;
    stats.rejected_bytes++;
  }
  if (verdict != Admission::kAdmitted) {
    TELEM_COUNTER_ADD("serve.rejected", 1);
    return verdict;
  }

  stats.admitted++;
  TELEM_COUNTER_ADD("serve.admitted", 1);
  Pending p;
  p.session = session;
  p.tier = tier;
  p.seq = static_cast<uint64_t>(pending_.size());
  p.arrival = arrival;
  p.remaining =
      std::max(0.0, request.cost_minutes) * options_.service_dilation;
  p.request = std::move(request);
  inflight_gb_ += p.request.scan_gb;
  result_.peak_inflight_gb =
      std::max(result_.peak_inflight_gb, inflight_gb_);
  s.queued++;
  tier_queued_[TierIndex(tier)]++;
  pending_.push_back(std::move(p));
  DispatchLocked();
  return Admission::kAdmitted;
}

ServeResult SessionServer::Finish() {
  std::lock_guard<std::mutex> lock(mu_);
  AdvanceLocked(std::numeric_limits<double>::infinity());
  finished_ = true;

  // Per-tier latency summaries from the completion records.
  for (size_t t = 0; t < kNumTiers; ++t) {
    std::vector<double> latencies;
    for (const Completed& rec : result_.completed) {
      if (TierIndex(rec.tier) == t) latencies.push_back(rec.latency_minutes);
    }
    result_.tiers[t].latency = Summarize(std::move(latencies));
  }

  ServeResult result = std::move(result_);
  result_ = ServeResult{};
  return result;
}

}  // namespace arraydb::serve

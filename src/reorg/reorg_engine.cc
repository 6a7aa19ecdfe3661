#include "reorg/reorg_engine.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

#include "telemetry/trace.h"
#include "util/logging.h"
#include "util/strings.h"
#include "util/thread_pool.h"
#include "util/units.h"

namespace arraydb::reorg {
namespace {

// FNV-1a over one move's metadata: stands in for the checksum a real
// migration computes over the bytes it copies. Doubles as the move identity
// mixed into fault draws, so a move keeps its fault fate under re-sharding.
uint64_t MoveDigest(const cluster::ChunkMove& m) {
  uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xffull;
      h *= 1099511628211ull;
    }
  };
  for (const int64_t c : m.coords) mix(static_cast<uint64_t>(c));
  mix(static_cast<uint64_t>(m.bytes));
  mix(static_cast<uint64_t>(m.from));
  mix(static_cast<uint64_t>(m.to));
  return h;
}

constexpr double kMinutesPerMs = 1.0 / 60000.0;

}  // namespace

IncrementalReorgEngine::IncrementalReorgEngine(
    cluster::Cluster* cluster, const cluster::CostModel* cost_model,
    ReorgOptions options)
    : cluster_(cluster), cost_model_(cost_model),
      options_(std::move(options)) {
  ARRAYDB_CHECK(cluster_ != nullptr);
  ARRAYDB_CHECK(cost_model_ != nullptr);
  copy_threads_ = util::ResolveThreadCount(options_.copy_threads);
  virtual_minutes_ = std::isfinite(options_.virtual_start_minutes)
                         ? options_.virtual_start_minutes
                         : 0.0;
}

int64_t IncrementalReorgEngine::NextBudgetBytes() {
  double budget_gb = options_.increment_gb;
  if (options_.budget_fn) {
    BudgetRequest request;
    request.increment_index = summary_.increments;
    request.remaining_gb = summary_.moved_gb - summary_.committed_gb;
    budget_gb = options_.budget_fn(request);
  }
  if (!std::isfinite(budget_gb) || budget_gb <= 0.0) return 1;
  const double bytes = util::GbToBytes(budget_gb);
  // llround is undefined past int64 range; a grant that large means "no
  // byte limit".
  if (bytes >= static_cast<double>(std::numeric_limits<int64_t>::max())) {
    return std::numeric_limits<int64_t>::max();
  }
  return std::max<int64_t>(1, static_cast<int64_t>(std::llround(bytes)));
}

util::Status IncrementalReorgEngine::Begin(const cluster::MovePlan& plan,
                                           cluster::NodeId first_new_node) {
  if (active()) {
    return util::FailedPrecondition("reorg engine already active");
  }
  if (!options_.budget_fn && !(options_.increment_gb > 0.0 &&
                               std::isfinite(options_.increment_gb))) {
    return util::InvalidArgument(
        "ReorgOptions.increment_gb must be positive and finite when no "
        "budget callback is set");
  }
  if (!(options_.increment_timeout_minutes > 0.0)) {
    return util::InvalidArgument(
        "ReorgOptions.increment_timeout_minutes must be positive");
  }
  if (auto status = cluster_->BeginApply(plan); !status.ok()) {
    return util::Annotate(status, "reorg plan rejected at Begin");
  }
  TELEM_COUNTER_ADD("reorg.engine.plans", 1);
  // Every Begin — including an abort-and-restart — advances the plan
  // ordinal, so a restarted plan draws fresh fault fates instead of
  // deterministically re-hitting the ones that killed it (livelock).
  plan_ordinal_ = options_.plan_ordinal_base + begins_;
  begins_ += 1;
  first_new_node_ = first_new_node;
  summary_ = ReorgSummary();
  summary_.only_to_new_nodes = plan.OnlyToNodesAtOrAbove(first_new_node);
  const auto cost = cost_model_->ReorgMinutes(plan, cluster_->num_nodes());
  summary_.work_minutes = cost.minutes;
  summary_.moved_gb = cost.moved_gb;
  summary_.chunks_moved = cost.chunks_moved;
  return util::Status::Ok();
}

bool IncrementalReorgEngine::IsDead(cluster::NodeId node) const {
  return std::binary_search(dead_nodes_.begin(), dead_nodes_.end(), node);
}

double IncrementalReorgEngine::BackoffMsBeforeRetry(int k) const {
  return std::min(RetryPolicy::kBaseBackoffMs *
                      std::pow(RetryPolicy::kBackoffMultiplier,
                               static_cast<double>(k - 1)),
                  RetryPolicy::kMaxBackoffMs);
}

util::Status IncrementalReorgEngine::ProcessNodeDeaths() {
  if (options_.injector == nullptr) return util::Status::Ok();
  // Record newly due deaths (the sorted insert keeps iteration order
  // deterministic under lint rule R1).
  FaultCounts observed;
  for (const cluster::NodeId dead :
       options_.injector->DeadNodesAt(virtual_minutes_)) {
    if (IsDead(dead)) continue;
    dead_nodes_.insert(
        std::lower_bound(dead_nodes_.begin(), dead_nodes_.end(), dead), dead);
    observed.node_deaths += 1;
  }
  RecordFaults(observed);
  // Re-check *every* known death against the staged moves, not just the new
  // ones: a plan begun after an earlier abort can stage moves targeting a
  // node that died long ago.
  for (const cluster::NodeId dead : dead_nodes_) {
    if (!cluster_->reorg_active()) break;
    if (cluster_->ReorgSourcedFromNode(dead)) {
      // The fault model covers migration destinations; losing authoritative
      // source data is unrecoverable without replication.
      return util::Unavailable(util::StrFormat(
          "node %d holds source replicas of the active plan; its loss is "
          "unrecoverable without replication",
          dead));
    }
    if (!cluster_->ReorgTargetsNode(dead)) continue;
    if (auto status = ReplanAroundDeadNode(dead); !status.ok()) return status;
  }
  return util::Status::Ok();
}

util::Status IncrementalReorgEngine::ReplanAroundDeadNode(
    cluster::NodeId dead) {
  TELEM_SPAN("reorg.engine.replan");
  // Step never reaches here with a slice in flight, but a caller-triggered
  // replan might; the copy phase is restartable, so cancelling is safe.
  if (cluster_->increment_in_flight()) cluster_->CancelIncrement();

  // Surviving destination candidates: the new nodes (>= first_new_node_, so
  // rerouting preserves the Table-1 incremental property by construction)
  // minus the dead set.
  const cluster::NodeId lo = std::max<cluster::NodeId>(0, first_new_node_);
  std::vector<cluster::NodeId> candidates;
  for (cluster::NodeId n = lo; n < cluster_->num_nodes(); ++n) {
    if (n == dead || IsDead(n)) continue;
    candidates.push_back(n);
  }
  if (candidates.empty()) {
    return util::Annotate(
        util::Unavailable("no surviving new nodes to receive the moves"),
        util::StrFormat("replanning around dead node %d", dead));
  }

  // Deterministic least-projected-load assignment: seed with the live byte
  // accounting, accumulate as moves are assigned; ties go to the lowest id
  // (candidates are ascending).
  std::vector<int64_t> load;
  load.reserve(candidates.size());
  for (const cluster::NodeId c : candidates) {
    load.push_back(cluster_->NodeBytes(c));
  }
  const auto pick = [&candidates, &load](const cluster::ChunkMove& m) {
    size_t best = 0;
    for (size_t i = 1; i < candidates.size(); ++i) {
      if (load[i] < load[best]) best = i;
    }
    load[best] += m.bytes;
    return candidates[best];
  };

  auto stats_or = cluster_->RerouteDeadDestination(dead, pick);
  if (!stats_or.ok()) {
    return util::Annotate(
        stats_or.status(),
        util::StrFormat("replanning around dead node %d", dead));
  }
  const cluster::Cluster::RerouteStats& rs = *stats_or;
  const int64_t replanned = rs.rerouted_pending + rs.reverted_committed;
  const double reverted_gb =
      util::BytesToGb(static_cast<double>(rs.reverted_bytes));
  FaultCounts replan;
  replan.replans = 1;
  RecordFaults(replan);
  summary_.replanned_chunks += replanned;
  // Reverted flips are un-committed again (their re-copy lands in later
  // Steps); the re-transfer is retry backlog for the next bandwidth
  // arbitration and its modeled pairwise price is pure recovery overhead.
  summary_.committed_gb -= reverted_gb;
  summary_.committed_chunks -= rs.reverted_committed;
  summary_.retry_gb += reverted_gb;
  summary_.recovery_overhead_minutes +=
      reverted_gb * (cost_model_->params().net_minutes_per_gb +
                     cost_model_->params().io_minutes_per_gb);
  TELEM_COUNTER_ADD("reorg.engine.replanned_chunks", replanned);
  return util::Status::Ok();
}

util::StatusOr<IncrementStats> IncrementalReorgEngine::Step() {
  TELEM_SPAN("reorg.engine.step");
  // Deaths due at the current virtual time replan before the next slice is
  // carved, so the slice never stages onto a node known to be dead.
  if (auto status = ProcessNodeDeaths(); !status.ok()) return status;

  const int64_t budget_bytes = NextBudgetBytes();
  auto slice_or = cluster_->AdvanceIncrement(budget_bytes);
  if (!slice_or.ok()) return slice_or.status();
  const cluster::MovePlan& slice = *slice_or;

  IncrementStats stats;
  stats.index = summary_.increments;
  stats.chunks_moved = slice.num_chunks();
  stats.moved_gb = util::BytesToGb(static_cast<double>(slice.TotalBytes()));
  stats.budget_gb = util::BytesToGb(static_cast<double>(budget_bytes));
  if (slice.TotalBytes() > budget_bytes) {
    // The at-least-one-move rule pushed past the budget; report instead of
    // silently overshooting.
    stats.over_budget = true;
    stats.over_budget_gb = util::BytesToGb(
        static_cast<double>(slice.TotalBytes() - budget_bytes));
  }

  // The fault-free slice price: what the trajectory records, and the base
  // every attempt's virtual-clock charge builds on.
  const double base_minutes =
      cost_model_->ReorgMinutes(slice, cluster_->num_nodes()).minutes;
  const auto& moves = slice.moves();
  const int64_t total_bytes = slice.TotalBytes();
  const int max_attempts = std::max(1, options_.retry.max_attempts);
  const double timeout = options_.increment_timeout_minutes;
  const fault::FaultInjector* injector = options_.injector;
  const double dilation =
      injector != nullptr ? std::max(1.0, injector->plan().slow_copy_dilation)
                          : 1.0;
  const int ordinal = plan_ordinal_;
  const int inc_index = stats.index;

  util::Status failure = util::Status::Ok();
  bool succeeded = false;
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    stats.attempts = attempt;
    if (attempt > 1) {
      const double backoff_ms = BackoffMsBeforeRetry(attempt - 1);
      stats.faults.backoff_ms += backoff_ms;
      stats.faults.retries += 1;
      const double backoff_minutes = backoff_ms * kMinutesPerMs;
      virtual_minutes_ += backoff_minutes;
      stats.fault_extra_minutes += backoff_minutes;
      summary_.recovery_overhead_minutes += backoff_minutes;
    }

    // Simulated copy: shard the slice over the pool; each shard checksums
    // what it "transfers" and probes the injector per move. XOR combination
    // and the order-fixed reduce below keep the digest and the fault tally
    // bit-identical across thread counts.
    std::vector<uint64_t> shard_digests(moves.size(), 0);
    std::vector<uint8_t> kinds(moves.size(), 0);
    util::ParallelFor(
        static_cast<int64_t>(moves.size()), copy_threads_,
        [&moves, &shard_digests, &kinds, injector, ordinal, inc_index,
         attempt](int64_t begin, int64_t end) {
          for (int64_t i = begin; i < end; ++i) {
            const uint64_t d = MoveDigest(moves[static_cast<size_t>(i)]);
            shard_digests[static_cast<size_t>(i)] = d;
            if (injector != nullptr) {
              fault::TransferOp op;
              op.plan_ordinal = ordinal;
              op.increment = inc_index;
              op.attempt = attempt;
              op.move_digest = d;
              kinds[static_cast<size_t>(i)] =
                  static_cast<uint8_t>(injector->TransferFault(op));
            }
          }
        });
    uint64_t digest = 0;
    int64_t transient = 0;
    int64_t slow = 0;
    int64_t slow_bytes = 0;
    for (size_t i = 0; i < moves.size(); ++i) {
      digest ^= shard_digests[i];
      const auto kind = static_cast<fault::FaultKind>(kinds[i]);
      if (kind == fault::FaultKind::kTransientFailure) {
        transient += 1;
      } else if (kind == fault::FaultKind::kSlowCopy) {
        slow += 1;
        slow_bytes += moves[i].bytes;
      }
    }
    stats.faults.transient_failures += transient;
    stats.faults.slow_copies += slow;

    // Slow copies dilate the attempt: the slice finishes when its slowest
    // transfers do, so the dilated byte fraction stretches the price.
    double attempt_minutes = base_minutes;
    if (slow_bytes > 0 && total_bytes > 0) {
      attempt_minutes =
          base_minutes * (1.0 + (dilation - 1.0) * static_cast<double>(
                                                       slow_bytes) /
                                    static_cast<double>(total_bytes));
    }

    if (attempt_minutes > timeout) {
      // Abandoned at the deadline: charge the timeout, not the full copy.
      virtual_minutes_ += timeout;
      stats.fault_extra_minutes += timeout;
      summary_.recovery_overhead_minutes += timeout;
      stats.faults.timeouts += 1;
      summary_.retry_gb += stats.moved_gb;
      failure = util::Annotate(
          util::Unavailable(util::StrFormat(
              "copy attempt ran past the %.3f-minute increment timeout",
              timeout)),
          util::StrFormat("increment %d, retry %d", inc_index, attempt - 1));
      continue;
    }
    if (transient > 0) {
      // The copy ran to the end and its checksum failed: the whole attempt
      // is wasted and the slice re-transfers on the next attempt.
      virtual_minutes_ += attempt_minutes;
      stats.fault_extra_minutes += attempt_minutes;
      summary_.recovery_overhead_minutes += attempt_minutes;
      summary_.retry_gb += stats.moved_gb;
      failure = util::Annotate(
          util::Unavailable(util::StrFormat(
              "%lld transient transfer failure(s) across %lld moves",
              static_cast<long long>(transient),
              static_cast<long long>(moves.size()))),
          util::StrFormat("increment %d, retry %d", inc_index, attempt - 1));
      continue;
    }

    virtual_minutes_ += attempt_minutes;
    const double dilation_extra = attempt_minutes - base_minutes;
    stats.fault_extra_minutes += dilation_extra;
    summary_.recovery_overhead_minutes += dilation_extra;
    stats.transfer_digest = digest;
    succeeded = true;
    break;
  }

  // Fault accounting covers both outcomes, folded once per Step. The
  // backoff values are exact in binary, so the fold matches per-retry
  // accumulation bit for bit.
  RecordFaults(stats.faults);

  if (!succeeded) {
    // Retries exhausted: rewind the in-flight slice (nothing was flipped)
    // and surface the annotated last failure. The caller decides between
    // Abort() and trying again later.
    cluster_->CancelIncrement();
    TELEM_COUNTER_ADD("reorg.engine.retry_exhausted", 1);
    return failure;
  }

  stats.only_to_new_nodes = slice.OnlyToNodesAtOrAbove(first_new_node_);
  summary_.only_to_new_nodes =
      summary_.only_to_new_nodes && stats.only_to_new_nodes;
  stats.minutes = base_minutes;

  if (auto status = cluster_->CommitIncrement(); !status.ok()) return status;

  TELEM_COUNTER_ADD("reorg.engine.increments", 1);
  TELEM_COUNTER_ADD("reorg.engine.bytes_moved", slice.TotalBytes());
  TELEM_COUNTER_ADD("reorg.engine.chunks_moved", stats.chunks_moved);
  if (stats.over_budget) {
    TELEM_COUNTER_ADD("reorg.engine.over_budget_increments", 1);
  }

  summary_.increments += 1;
  summary_.slice_minutes += stats.minutes;
  summary_.transfer_digest ^= stats.transfer_digest;
  summary_.committed_gb += stats.moved_gb;
  summary_.committed_chunks += stats.chunks_moved;
  if (stats.over_budget) {
    summary_.over_budget_increments += 1;
    summary_.over_budget_gb += stats.over_budget_gb;
  }
  summary_.moved_gb_per_increment.push_back(stats.moved_gb);
  return stats;
}

void IncrementalReorgEngine::RecordFaults(const FaultCounts& faults) {
  summary_.faults += faults;
  // Every value below is a plain local (lint rule R3: macro args stay
  // expression-only).
  const int64_t injected = faults.injected();
  const int64_t transients = faults.transient_failures;
  const int64_t slow = faults.slow_copies;
  const int64_t retries = faults.retries;
  const int64_t timeouts = faults.timeouts;
  const int64_t deaths = faults.node_deaths;
  const int64_t replans = faults.replans;
  const int64_t backoff_ms =
      static_cast<int64_t>(std::llround(faults.backoff_ms));
  if (injected > 0) TELEM_COUNTER_ADD("reorg.engine.faults_injected", injected);
  if (transients > 0) {
    TELEM_COUNTER_ADD("reorg.engine.transient_failures", transients);
  }
  if (slow > 0) TELEM_COUNTER_ADD("reorg.engine.slow_copies", slow);
  if (retries > 0) TELEM_COUNTER_ADD("reorg.engine.retries", retries);
  if (timeouts > 0) TELEM_COUNTER_ADD("reorg.engine.timeouts", timeouts);
  if (deaths > 0) TELEM_COUNTER_ADD("reorg.engine.node_deaths", deaths);
  if (replans > 0) TELEM_COUNTER_ADD("reorg.engine.replans", replans);
  if (backoff_ms > 0) TELEM_COUNTER_ADD("reorg.engine.backoff_ms", backoff_ms);
}

util::Status IncrementalReorgEngine::StepAll() {
  while (pending_chunks() > 0) {
    auto stats = Step();
    if (!stats.ok()) return stats.status();
  }
  return util::Status::Ok();
}

util::Status IncrementalReorgEngine::Finish() {
  if (!active()) return util::Status::Ok();  // Empty plan: nothing staged.
  return cluster_->FinishApply();
}

util::Status IncrementalReorgEngine::Drain() {
  if (auto status = StepAll(); !status.ok()) return status;
  return Finish();
}

util::Status IncrementalReorgEngine::Abort() {
  if (!active()) {
    return util::FailedPrecondition("no active reorganization to abort");
  }
  const double rolled_back_gb = summary_.committed_gb;
  if (auto status = cluster_->RollbackReorg(); !status.ok()) {
    return util::Annotate(status, "reorg abort");
  }
  // Committed work is undone in metadata only (copy-then-flip retained the
  // sources), but the copy minutes already spent stay spent: a restarted
  // plan pays for those bytes again, which is the abort's recovery cost.
  summary_.aborted = true;
  summary_.rolled_back_gb += rolled_back_gb;
  summary_.committed_gb = 0.0;
  summary_.committed_chunks = 0;
  TELEM_COUNTER_ADD("reorg.engine.aborts", 1);
  return util::Status::Ok();
}

}  // namespace arraydb::reorg

#include "fault/fault.h"

#include <algorithm>

#include "util/rng.h"

namespace arraydb::fault {

FaultInjector::FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {
  plan_.transient_failure_rate =
      std::clamp(plan_.transient_failure_rate, 0.0, 1.0);
  plan_.slow_copy_rate = std::clamp(plan_.slow_copy_rate, 0.0, 1.0);
  plan_.slow_copy_dilation = std::max(1.0, plan_.slow_copy_dilation);
  std::sort(plan_.node_deaths.begin(), plan_.node_deaths.end(),
            [](const NodeDeath& a, const NodeDeath& b) {
              if (a.at_minutes != b.at_minutes) {
                return a.at_minutes < b.at_minutes;
              }
              return a.node < b.node;
            });
}

FaultKind FaultInjector::TransferFault(const TransferOp& op) const {
  if (plan_.transient_failure_rate <= 0.0 && plan_.slow_copy_rate <= 0.0) {
    return FaultKind::kNone;
  }
  // One SplitMix64 chain over (seed, identity): pure, order-free, and
  // identical on every machine and thread count.
  uint64_t h = util::SplitMix64(plan_.seed);
  h = util::SplitMix64(h ^ static_cast<uint64_t>(op.plan_ordinal));
  h = util::SplitMix64(h ^ static_cast<uint64_t>(op.increment));
  h = util::SplitMix64(h ^ static_cast<uint64_t>(op.attempt));
  h = util::SplitMix64(h ^ op.move_digest);
  // 53 mantissa bits -> uniform in [0, 1).
  const double u =
      static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
  if (u < plan_.transient_failure_rate) return FaultKind::kTransientFailure;
  if (u < plan_.transient_failure_rate + plan_.slow_copy_rate) {
    return FaultKind::kSlowCopy;
  }
  return FaultKind::kNone;
}

bool FaultInjector::NodeAlive(cluster::NodeId node, double at_minutes) const {
  for (const NodeDeath& d : plan_.node_deaths) {
    if (d.at_minutes > at_minutes) break;  // Sorted by time.
    if (d.node == node) return false;
  }
  return true;
}

std::vector<cluster::NodeId> FaultInjector::DeadNodesAt(
    double at_minutes) const {
  std::vector<cluster::NodeId> dead;
  for (const NodeDeath& d : plan_.node_deaths) {
    if (d.at_minutes > at_minutes) break;
    dead.push_back(d.node);
  }
  std::sort(dead.begin(), dead.end());
  dead.erase(std::unique(dead.begin(), dead.end()), dead.end());
  return dead;
}

}  // namespace arraydb::fault

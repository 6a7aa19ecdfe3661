#include "cluster/cluster.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"
#include "util/stats.h"
#include "util/strings.h"
#include "util/units.h"

namespace arraydb::cluster {

Cluster::Cluster(int initial_nodes, double node_capacity_gb)
    : node_capacity_gb_(node_capacity_gb) {
  ARRAYDB_CHECK_GE(initial_nodes, 1);
  ARRAYDB_CHECK_GT(node_capacity_gb, 0.0);
  node_bytes_.assign(static_cast<size_t>(initial_nodes), 0);
  node_chunks_.assign(static_cast<size_t>(initial_nodes), 0);
}

double Cluster::CapacityGb() const {
  return static_cast<double>(num_nodes()) * node_capacity_gb_;
}

NodeId Cluster::AddNodes(int k) {
  ARRAYDB_CHECK_GE(k, 1);
  const NodeId first = num_nodes();
  node_bytes_.resize(node_bytes_.size() + static_cast<size_t>(k), 0);
  node_chunks_.resize(node_chunks_.size() + static_cast<size_t>(k), 0);
  return first;
}

util::Status Cluster::PlaceChunk(const array::Coordinates& coords,
                                 int64_t bytes, NodeId node) {
  if (node < 0 || node >= num_nodes()) {
    return util::InvalidArgument(
        util::StrFormat("placement on unknown node %d", node));
  }
  if (bytes < 0) return util::InvalidArgument("negative chunk size");
  if (chunk_map_.contains(coords)) {
    return util::AlreadyExists("chunk exists (no-overwrite storage): " +
                               array::CoordinatesToString(coords));
  }
  chunk_map_.emplace(coords, ChunkRecord{coords, bytes, node});
  node_bytes_[static_cast<size_t>(node)] += bytes;
  node_chunks_[static_cast<size_t>(node)] += 1;
  total_bytes_ += bytes;
  return util::Status::Ok();
}

util::Status Cluster::ValidatePlan(const MovePlan& plan) const {
  for (const auto& m : plan.moves()) {
    const auto it = chunk_map_.find(m.coords);
    if (it == chunk_map_.end()) {
      return util::NotFound("move of unknown chunk " +
                            array::CoordinatesToString(m.coords));
    }
    if (it->second.node != m.from) {
      return util::FailedPrecondition(util::StrFormat(
          "move of %s claims owner %d but cluster records %d",
          array::CoordinatesToString(m.coords).c_str(), m.from,
          it->second.node));
    }
    if (it->second.bytes != m.bytes) {
      return util::FailedPrecondition("move byte count mismatch for " +
                                      array::CoordinatesToString(m.coords));
    }
    if (m.to < 0 || m.to >= num_nodes()) {
      return util::InvalidArgument(
          util::StrFormat("move to unknown node %d", m.to));
    }
  }
  return util::Status::Ok();
}

void Cluster::FlipOwner(const array::Coordinates& coords, NodeId to) {
  ChunkRecord& rec = chunk_map_.at(coords);
  node_bytes_[static_cast<size_t>(rec.node)] -= rec.bytes;
  node_chunks_[static_cast<size_t>(rec.node)] -= 1;
  rec.node = to;
  node_bytes_[static_cast<size_t>(to)] += rec.bytes;
  node_chunks_[static_cast<size_t>(to)] += 1;
}

void Cluster::ReleaseReorg() {
  pending_moves_.clear();
  pending_cursor_ = 0;
  in_flight_end_ = 0;
  source_replicas_.clear();
  ++reorg_epoch_;
}

util::Status Cluster::Apply(const MovePlan& plan) {
  if (reorg_active()) {
    return util::FailedPrecondition(
        "atomic Apply while an incremental reorganization is active");
  }
  // Validate the whole plan before mutating anything.
  if (auto status = ValidatePlan(plan); !status.ok()) return status;
  for (const auto& m : plan.moves()) {
    FlipOwner(m.coords, m.to);
  }
  return util::Status::Ok();
}

util::Status Cluster::BeginApply(const MovePlan& plan) {
  if (reorg_active()) {
    return util::FailedPrecondition(
        "incremental reorganization already active");
  }
  if (auto status = ValidatePlan(plan); !status.ok()) return status;
  if (plan.empty()) return util::Status::Ok();
  pending_moves_ = plan.moves();
  pending_cursor_ = 0;
  in_flight_end_ = 0;
  source_replicas_.reserve(pending_moves_.size());
  for (const auto& m : pending_moves_) {
    // A plan never names the same chunk twice (validated owners would
    // mismatch); record each source residency.
    source_replicas_.emplace(m.coords, m.from);
  }
  return util::Status::Ok();
}

util::StatusOr<MovePlan> Cluster::AdvanceIncrement(int64_t budget_bytes) {
  if (!reorg_active()) {
    return util::FailedPrecondition("no active reorganization");
  }
  if (increment_in_flight()) {
    return util::FailedPrecondition("an increment is already in flight");
  }
  if (pending_cursor_ >= pending_moves_.size()) {
    return util::FailedPrecondition(
        "all moves committed; call FinishApply to release");
  }
  MovePlan slice;
  int64_t taken = 0;
  size_t j = pending_cursor_;
  while (j < pending_moves_.size()) {
    const auto& m = pending_moves_[j];
    if (j > pending_cursor_ && taken + m.bytes > budget_bytes) break;
    taken += m.bytes;
    slice.Add(m);
    ++j;
  }
  in_flight_end_ = j;
  return slice;
}

util::Status Cluster::CommitIncrement() {
  if (!increment_in_flight()) {
    return util::FailedPrecondition("no increment in flight");
  }
  for (size_t i = pending_cursor_; i < in_flight_end_; ++i) {
    const auto& m = pending_moves_[i];
    FlipOwner(m.coords, m.to);
  }
  pending_cursor_ = in_flight_end_;
  ++reorg_epoch_;
  return util::Status::Ok();
}

util::Status Cluster::FinishApply() {
  if (!reorg_active()) {
    return util::FailedPrecondition("no active reorganization");
  }
  if (increment_in_flight() || pending_cursor_ < pending_moves_.size()) {
    return util::FailedPrecondition(
        "reorganization has uncommitted moves");
  }
  ReleaseReorg();
  return util::Status::Ok();
}

util::Status Cluster::RollbackReorg() {
  if (!reorg_active()) {
    return util::FailedPrecondition("no active reorganization to roll back");
  }
  // The in-flight slice (if any) only copied; nothing to revert there.
  in_flight_end_ = pending_cursor_;
  // Revert every committed flip onto its retained source replica. The
  // replica was never dropped (that happens only at FinishApply), so this
  // is a metadata flip, not a data transfer.
  for (size_t i = 0; i < pending_cursor_; ++i) {
    const auto& m = pending_moves_[i];
    FlipOwner(m.coords, m.from);
  }
  ReleaseReorg();
  return util::Status::Ok();
}

bool Cluster::ReorgTargetsNode(NodeId node) const {
  for (const auto& m : pending_moves_) {
    if (m.to == node) return true;
  }
  return false;
}

bool Cluster::ReorgSourcedFromNode(NodeId node) const {
  for (const auto& m : pending_moves_) {
    if (m.from == node) return true;
  }
  return false;
}

util::StatusOr<Cluster::RerouteStats> Cluster::RerouteDeadDestination(
    NodeId dead,
    const std::function<NodeId(const ChunkMove&)>& new_destination) {
  if (!reorg_active()) {
    return util::FailedPrecondition("no active reorganization to replan");
  }
  if (increment_in_flight()) {
    return util::FailedPrecondition(
        "replan with an increment in flight; CancelIncrement first");
  }
  if (ReorgSourcedFromNode(dead)) {
    return util::Unavailable(util::StrFormat(
        "node %d holds source replicas of the active plan; its loss is "
        "unrecoverable without replication",
        dead));
  }
  // Resolve and validate every redirect before mutating anything, so a bad
  // callback leaves the staging state untouched.
  std::vector<std::pair<size_t, NodeId>> redirects;
  for (size_t i = 0; i < pending_moves_.size(); ++i) {
    const auto& m = pending_moves_[i];
    if (m.to != dead) continue;
    const NodeId target = new_destination(m);
    if (target < 0 || target >= num_nodes() || target == dead) {
      return util::InvalidArgument(util::StrFormat(
          "replan of %s routed to invalid node %d",
          array::CoordinatesToString(m.coords).c_str(), target));
    }
    redirects.emplace_back(i, target);
  }

  RerouteStats stats;
  std::vector<ChunkMove> committed_keep;
  std::vector<ChunkMove> pending_new;
  std::vector<ChunkMove> restaged;
  size_t redirect_i = 0;
  for (size_t i = 0; i < pending_moves_.size(); ++i) {
    ChunkMove m = pending_moves_[i];
    const bool hit =
        redirect_i < redirects.size() && redirects[redirect_i].first == i;
    if (hit) {
      m.to = redirects[redirect_i].second;
      ++redirect_i;
    }
    if (i < pending_cursor_) {
      if (!hit) {
        committed_keep.push_back(m);
        continue;
      }
      // Revert the committed flip onto the retained source replica and
      // re-stage the move (after the surviving pending moves, preserving
      // their order) toward the new destination.
      FlipOwner(m.coords, m.from);
      stats.reverted_committed += 1;
      stats.reverted_bytes += m.bytes;
      restaged.push_back(m);
    } else {
      if (hit) stats.rerouted_pending += 1;
      pending_new.push_back(m);
    }
  }
  pending_moves_ = std::move(committed_keep);
  pending_cursor_ = pending_moves_.size();
  in_flight_end_ = pending_cursor_;
  pending_moves_.insert(pending_moves_.end(), pending_new.begin(),
                        pending_new.end());
  pending_moves_.insert(pending_moves_.end(), restaged.begin(),
                        restaged.end());
  ++reorg_epoch_;
  return stats;
}

NodeId Cluster::SourceReplicaOf(const array::Coordinates& coords) const {
  const auto it = source_replicas_.find(coords);
  return it == source_replicas_.end() ? kInvalidNode : it->second;
}

bool Cluster::Lookup(const array::Coordinates& coords, NodeId* node,
                     int64_t* bytes) const {
  const auto it = chunk_map_.find(coords);
  if (it == chunk_map_.end()) return false;
  *node = it->second.node;
  *bytes = it->second.bytes;
  return true;
}

void Cluster::ForEachChunk(
    const std::function<void(const array::Coordinates&, NodeId, int64_t)>& fn)
    const {
  // Sorted enumeration: iterating chunk_map_ directly would leak hash
  // order into every caller's visit sequence (cost merges, placement
  // planners, tests that record visit order).
  for (const ChunkRecord& rec : AllChunks()) {
    fn(rec.coords, rec.node, rec.bytes);
  }
}

NodeId Cluster::OwnerOf(const array::Coordinates& coords) const {
  const auto it = chunk_map_.find(coords);
  return it == chunk_map_.end() ? kInvalidNode : it->second.node;
}

bool Cluster::Contains(const array::Coordinates& coords) const {
  return chunk_map_.contains(coords);
}

int64_t Cluster::NodeBytes(NodeId node) const {
  ARRAYDB_CHECK_GE(node, 0);
  ARRAYDB_CHECK_LT(node, num_nodes());
  return node_bytes_[static_cast<size_t>(node)];
}

double Cluster::NodeLoadGb(NodeId node) const {
  return util::BytesToGb(static_cast<double>(NodeBytes(node)));
}

std::vector<double> Cluster::NodeLoadsGb() const {
  std::vector<double> out(node_bytes_.size());
  for (size_t i = 0; i < node_bytes_.size(); ++i) {
    out[i] = util::BytesToGb(static_cast<double>(node_bytes_[i]));
  }
  return out;
}

double Cluster::TotalGb() const {
  return util::BytesToGb(static_cast<double>(total_bytes_));
}

double Cluster::LoadRsd() const { return util::RelativeStdev(NodeLoadsGb()); }

int64_t Cluster::NodeChunkCount(NodeId node) const {
  ARRAYDB_CHECK_GE(node, 0);
  ARRAYDB_CHECK_LT(node, num_nodes());
  return node_chunks_[static_cast<size_t>(node)];
}

std::vector<ChunkRecord> Cluster::AllChunks() const {
  std::vector<ChunkRecord> out;
  out.reserve(chunk_map_.size());
  // arraydb-lint: ordered-extract -- copied out, then sorted below.
  for (const auto& [coords, rec] : chunk_map_) out.push_back(rec);
  std::sort(out.begin(), out.end(),
            [](const ChunkRecord& a, const ChunkRecord& b) {
              return array::CoordinatesLess(a.coords, b.coords);
            });
  return out;
}

}  // namespace arraydb::cluster

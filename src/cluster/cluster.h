// Shared-nothing cluster substrate.
//
// The Cluster is the single source of truth for chunk placement: which node
// stores each chunk position and how many bytes it occupies. Partitioners
// are pure policy objects that consult this state and emit MovePlans; the
// Cluster validates and applies them. Nodes are homogeneous with a fixed
// per-node storage capacity (the paper's c), and the node set only ever
// grows — scientific databases are monotonic (§1).
//
// A MovePlan is realized either atomically (Apply) or incrementally
// (BeginApply / AdvanceIncrement / CommitIncrement / FinishApply): the plan
// is staged, sliced into byte-budgeted increments, and each increment is
// copied then flipped while the cluster keeps serving reads. Both paths run
// the same plan validator, so they accept and reject the same plans. Until
// FinishApply releases the reorganization, every chunk covered by the plan
// retains a readable replica at its *source* node (dual residency), recorded
// in the chunk's own ChunkRecord::source; reorg::DualResidencyView routes
// reads to that source so results are independent of how far the migration
// has progressed.

#ifndef ARRAYDB_CLUSTER_CLUSTER_H_
#define ARRAYDB_CLUSTER_CLUSTER_H_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "array/chunk.h"
#include "array/coordinates.h"
#include "cluster/placement_view.h"
#include "cluster/transfer.h"
#include "util/status.h"

namespace arraydb::cluster {

/// Placement record for one chunk position.
struct ChunkRecord {
  array::Coordinates coords;
  int64_t bytes = 0;
  /// Authoritative owner; flips per committed increment mid-reorg.
  NodeId node = kInvalidNode;
  /// Retained source replica while an active reorganization covers the
  /// chunk, else kInvalidNode.
  NodeId source = kInvalidNode;

  /// Node a read of this chunk is routed to: the source replica while one
  /// is retained, else the owner.
  NodeId ReadNode() const { return source != kInvalidNode ? source : node; }
};

class Cluster : public PlacementView {
 public:
  /// Creates `initial_nodes` empty nodes of `node_capacity_gb` each.
  Cluster(int initial_nodes, double node_capacity_gb);

  int num_nodes() const override {
    return static_cast<int>(node_bytes_.size());
  }
  double node_capacity_gb() const { return node_capacity_gb_; }

  /// Total provisioned capacity in GB (N * c).
  double CapacityGb() const;

  /// Adds `k` empty nodes; returns the id of the first new node.
  NodeId AddNodes(int k);

  /// Records a brand-new chunk on `node`. Fails on duplicate coordinates
  /// (no-overwrite storage) or an unknown node.
  util::Status PlaceChunk(const array::Coordinates& coords, int64_t bytes,
                          NodeId node);

  /// Applies a move plan atomically. Every move must name a stored chunk
  /// with its recorded owner and size, and a different destination node in
  /// range; no chunk may appear twice. Structural faults (node range,
  /// self-move, duplicate) return InvalidArgument; placement faults return
  /// NotFound or FailedPrecondition. Nothing changes on failure. Fails while
  /// an incremental reorganization is active.
  util::Status Apply(const MovePlan& plan);

  // -- Incremental application (copy-then-flip) -----------------------------
  //
  // BeginApply validates and stages a whole plan without moving anything.
  // AdvanceIncrement carves the next byte-budgeted slice and marks it in
  // flight (the copy phase: data lands at the destination while the source
  // replica keeps serving reads). CommitIncrement flips authoritative
  // ownership of the in-flight slice — per-node byte/chunk accounting and
  // OwnerOf reflect the flip immediately. FinishApply, callable once every
  // move has committed, releases the reorganization: source replicas are
  // dropped and the query-routing epoch advances. RollbackReorg (below)
  // reverts the whole reorganization instead.

  /// Stages `plan` for incremental application. Runs the same validation as
  /// Apply; fails if a reorganization is already active. An empty plan is a
  /// no-op that leaves the cluster idle.
  util::Status BeginApply(const MovePlan& plan);

  /// Carves the next increment: pending moves are taken in plan order until
  /// the cumulative size would exceed `budget_bytes` (always at least one
  /// move). Returns the slice for pricing/validation. Fails when no
  /// reorganization is active, an increment is already in flight, or all
  /// moves have committed.
  util::StatusOr<MovePlan> AdvanceIncrement(int64_t budget_bytes);

  /// Flips ownership of the in-flight increment.
  util::Status CommitIncrement();

  /// Releases a fully committed reorganization (drops source replicas,
  /// advances the routing epoch). Fails while moves remain uncommitted.
  util::Status FinishApply();

  // -- Failure recovery (src/fault/) ----------------------------------------
  //
  // Copy-then-flip makes these natural: every chunk covered by the active
  // plan retains a readable replica at its source node until FinishApply,
  // so a committed flip can be reverted by flipping back — no data moves.

  /// Drops the in-flight increment (the copy phase failed; nothing was
  /// flipped, so this only rewinds the slice markers). No-op when no
  /// increment is in flight.
  void CancelIncrement() { in_flight_end_ = pending_cursor_; }

  /// Rolls the whole active reorganization back: any in-flight slice is
  /// cancelled, every *committed* flip is reverted onto its retained source
  /// replica, and the staging state is released. The placement is restored
  /// exactly to its pre-reorg state; the routing epoch advances (cached
  /// views must refresh). Fails when no reorganization is active.
  util::Status RollbackReorg();

  /// Accounting for one RerouteDeadDestination call.
  struct RerouteStats {
    /// Pending (uncommitted) moves redirected to a new destination.
    int64_t rerouted_pending = 0;
    /// Committed moves whose flip was reverted onto the source replica and
    /// which were re-staged (at the end of the plan) with a new destination.
    int64_t reverted_committed = 0;
    /// Bytes across the reverted committed moves (they must be re-copied).
    int64_t reverted_bytes = 0;
  };

  /// Replans the active reorganization around the permanent death of
  /// destination node `dead`: every staged move targeting it is redirected
  /// to `new_destination(move)` — pending moves in place, committed moves by
  /// reverting their flip onto the retained source replica and re-staging
  /// them after the surviving moves. Fails when no reorganization is active,
  /// an increment is in flight (CancelIncrement first), a surviving *source*
  /// lives on `dead` (data loss — unrecoverable without replication), or the
  /// callback names an invalid/dead destination. The plan's move order is
  /// preserved for surviving moves, so the slicing schedule stays
  /// deterministic.
  util::StatusOr<RerouteStats> RerouteDeadDestination(
      NodeId dead,
      const std::function<NodeId(const ChunkMove&)>& new_destination);

  /// True when any staged move (pending or committed) targets `node`.
  bool ReorgTargetsNode(NodeId node) const;

  /// True when any staged move's source is `node`.
  bool ReorgSourcedFromNode(NodeId node) const;

  /// True between BeginApply (of a non-empty plan) and FinishApply or
  /// RollbackReorg.
  bool reorg_active() const { return !pending_moves_.empty(); }

  /// True between AdvanceIncrement and CommitIncrement.
  bool increment_in_flight() const { return in_flight_end_ > pending_cursor_; }

  /// Moves staged but not yet committed.
  int64_t pending_reorg_chunks() const {
    return static_cast<int64_t>(pending_moves_.size() - pending_cursor_);
  }

  /// ChunkRecord::source of a stored chunk: the retained read replica while
  /// the active reorganization covers it, else kInvalidNode (also when the
  /// chunk is not stored).
  NodeId SourceReplicaOf(const array::Coordinates& coords) const {
    const ChunkRecord* rec = Find(coords);
    return rec == nullptr ? kInvalidNode : rec->source;
  }

  /// Monotone counter bumped on every commit and on reorg release; lets
  /// cached views detect staleness.
  uint64_t reorg_epoch() const { return reorg_epoch_; }

  /// The placement record of a stored chunk, or nullptr. Chunks are never
  /// erased, so the pointer stays valid for the cluster's lifetime.
  const ChunkRecord* Find(const array::Coordinates& coords) const {
    const auto it = chunk_map_.find(coords);
    return it == chunk_map_.end() ? nullptr : &it->second;
  }

  /// Owner of a chunk, or kInvalidNode if the chunk is not stored. During an
  /// incremental reorganization this is the *authoritative* owner (flipped
  /// per increment); query routing reads ChunkRecord::ReadNode instead.
  NodeId OwnerOf(const array::Coordinates& coords) const {
    const ChunkRecord* rec = Find(coords);
    return rec == nullptr ? kInvalidNode : rec->node;
  }

  // PlacementView: lookups against the authoritative owners.
  bool Lookup(const array::Coordinates& coords, NodeId* node,
              int64_t* bytes) const override;
  void ForEachChunk(
      const std::function<void(const array::Coordinates&, NodeId, int64_t)>&
          fn) const override;

  /// True if a chunk with these coordinates is stored.
  bool Contains(const array::Coordinates& coords) const {
    return Find(coords) != nullptr;
  }

  int64_t num_chunks() const { return static_cast<int64_t>(chunk_map_.size()); }

  /// Stored bytes on one node.
  int64_t NodeBytes(NodeId node) const;
  double NodeLoadGb(NodeId node) const;

  /// Stored bytes per node, indexed by NodeId.
  std::vector<double> NodeLoadsGb() const;

  int64_t TotalBytes() const { return total_bytes_; }
  double TotalGb() const;

  /// Relative standard deviation of per-node loads — the paper's storage
  /// balance metric (Figure 4 labels). Returns a fraction, not a percent.
  double LoadRsd() const;

  /// Number of chunks stored on `node`.
  int64_t NodeChunkCount(NodeId node) const;

  /// All chunk records, sorted by coordinates (CoordinatesLess): the one
  /// placement snapshot each scale-out plan is computed from.
  std::vector<ChunkRecord> AllChunks() const;

  /// Unordered placement map. Planners and query routing read the sorted
  /// AllChunks() / ForEachChunk() instead; the map stays for perfbench's
  /// verification walk, which checks each record on its own and so does
  /// not depend on hash order.
  const std::unordered_map<array::Coordinates, ChunkRecord,
                           array::CoordinatesHash>&
  chunk_map() const {
    return chunk_map_;
  }

 private:
  /// The one plan check Apply and BeginApply run (rules at Apply).
  util::Status ValidatePlan(const MovePlan& plan) const;
  /// Moves a stored chunk's ownership (and its byte and chunk counts) to
  /// `to`. The one place an ownership flip is written.
  void FlipOwner(const array::Coordinates& coords, NodeId to);
  /// Clears the staging state and advances the routing epoch.
  void ReleaseReorg();

  double node_capacity_gb_;
  std::vector<int64_t> node_bytes_;
  std::vector<int64_t> node_chunks_;
  std::unordered_map<array::Coordinates, ChunkRecord, array::CoordinatesHash>
      chunk_map_;
  int64_t total_bytes_ = 0;

  // Incremental-reorg staging: the plan's moves in order (every staged chunk
  // has its ChunkRecord::source set), a cursor to the first uncommitted
  // move, and the in-flight slice [pending_cursor_, in_flight_end_).
  std::vector<ChunkMove> pending_moves_;
  size_t pending_cursor_ = 0;
  size_t in_flight_end_ = 0;
  uint64_t reorg_epoch_ = 0;
};

}  // namespace arraydb::cluster

#endif  // ARRAYDB_CLUSTER_CLUSTER_H_

// DualResidencyView: the query-routing table for a cluster with an
// incremental reorganization in flight.
//
// While a MovePlan is being applied in increments, every chunk it covers is
// dual resident: the authoritative owner flips per committed increment
// (visible in Cluster::OwnerOf and the per-node byte accounting), but the
// source node retains a readable replica until Cluster::FinishApply releases
// the whole reorganization. The chunk's placement record carries that source
// (ChunkRecord::source), and this view routes reads to it
// (ChunkRecord::ReadNode), so queries interleaved with migration observe one
// consistent snapshot — the pre-reorganization placement plus any chunks
// inserted since — regardless of how many increments have committed. That pinning is what
// makes interleaved query results bit-identical to a quiesced cluster and
// independent of increment sizing and thread counts.
//
// With no reorganization active the view is an exact pass-through of the
// cluster. Views are cheap to construct (two pointers); construct one per
// query phase rather than caching across commits.

#ifndef ARRAYDB_REORG_DUAL_RESIDENCY_H_
#define ARRAYDB_REORG_DUAL_RESIDENCY_H_

#include <cstdint>

#include "cluster/cluster.h"
#include "cluster/placement_view.h"

namespace arraydb::reorg {

class DualResidencyView final : public cluster::PlacementView {
 public:
  explicit DualResidencyView(const cluster::Cluster& cluster)
      : cluster_(&cluster) {}

  int num_nodes() const override { return cluster_->num_nodes(); }

  bool Lookup(const array::Coordinates& coords, cluster::NodeId* node,
              int64_t* bytes) const override;

  void ForEachChunk(
      const std::function<void(const array::Coordinates&, cluster::NodeId,
                               int64_t)>& fn) const override;

  const cluster::Cluster& cluster() const { return *cluster_; }

 private:
  const cluster::Cluster* cluster_;
};

}  // namespace arraydb::reorg

#endif  // ARRAYDB_REORG_DUAL_RESIDENCY_H_

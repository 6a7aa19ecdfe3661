// PlacementView: the read-side routing abstraction over chunk placement.
//
// Query execution must not assume placement is a quiesced Cluster: during an
// incremental reorganization (src/reorg/) the routing table a query consults
// is a dual-residency view where migrating chunks remain readable at their
// source node. Everything that *reads* placement (exec::QueryEngine, load
// diagnostics) takes a PlacementView; Cluster implements it directly for the
// quiesced case and reorg::DualResidencyView implements it for clusters with
// a reorganization in flight.

#ifndef ARRAYDB_CLUSTER_PLACEMENT_VIEW_H_
#define ARRAYDB_CLUSTER_PLACEMENT_VIEW_H_

#include <cstdint>
#include <functional>

#include "array/coordinates.h"
#include "cluster/transfer.h"

namespace arraydb::cluster {

class PlacementView {
 public:
  virtual ~PlacementView() = default;

  virtual int num_nodes() const = 0;

  /// Node a read of this chunk is routed to, or kInvalidNode when the chunk
  /// is not stored.
  virtual NodeId OwnerOf(const array::Coordinates& coords) const = 0;

  /// Routed owner and physical size in one lookup; false when absent.
  virtual bool Lookup(const array::Coordinates& coords, NodeId* node,
                      int64_t* bytes) const = 0;

  /// Invokes `fn(coords, node, bytes)` for every stored chunk with its
  /// routed owner, in sorted chunk order (CoordinatesLess), so callers need
  /// not sort. References are valid only during the call.
  virtual void ForEachChunk(
      const std::function<void(const array::Coordinates&, NodeId, int64_t)>&
          fn) const = 0;
};

}  // namespace arraydb::cluster

#endif  // ARRAYDB_CLUSTER_PLACEMENT_VIEW_H_

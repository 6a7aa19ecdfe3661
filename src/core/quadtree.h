// Incremental Quadtree partitioner (§4.2, generalizing Finkel & Bentley
// [20] to 2^d-way subdivision for d dimensions — an octree in 3-D).
//
// The (spatial) chunk grid is recursively subdivided into up to 2^d equal
// "quarters" by midpoint cuts of the actual array extents. Every host owns
// a set of sibling cells at exactly one tree level. When the cluster
// scales out, the most heavily burdened host is split:
//   * if it owns a single cell, the cell is quartered and the quarter or
//     pair of adjacent quarters whose summed size is closest to half of the
//     host's storage becomes the new host's partition;
//   * if it already owns several quarters, the single quarter or adjacent
//     pair closest to halving the storage moves instead.
// This keeps contiguous chunks together (n-dimensional clustering) while
// reacting directly to areas of skew, and ships data only to new nodes.
// A scale-out reads one sorted placement snapshot and projects each chunk
// once (SplitMostLoadedHosts); each split prices its candidate cells in one
// pass over the victim's chunks.

#ifndef ARRAYDB_CORE_QUADTREE_H_
#define ARRAYDB_CORE_QUADTREE_H_

#include <cstdint>
#include <vector>

#include "core/partitioner.h"
#include "core/spatial.h"

namespace arraydb::core {

class QuadtreePartitioner final : public Partitioner {
 public:
  /// `growth_dim` names the unbounded (time) dimension excluded from the
  /// subdivision — the paper's quadtree quarters the 2-D spatial plane;
  /// pass SpatialProjection::kNone to subdivide the full space.
  QuadtreePartitioner(const array::ArraySchema& schema, int initial_nodes,
                      int growth_dim = SpatialProjection::kNone);

  const char* name() const override { return "Incr. Quadtree"; }
  uint32_t features() const override {
    return kIncrementalScaleOut | kSkewAware | kNDimensionalClustering;
  }

  NodeId PlaceChunk(const cluster::Cluster& cluster,
                    const array::ChunkInfo& chunk) override;
  cluster::MovePlan PlanScaleOut(const cluster::Cluster& cluster,
                                 int old_node_count) override;
  NodeId Locate(const array::Coordinates& chunk_coords) const override;

  /// Tree level at which `host`'s cells reside (for tests).
  int HostLevel(NodeId host) const;
  /// Number of cells owned by `host` (for tests).
  int HostCellCount(NodeId host) const;

 private:
  /// A tree cell: an axis-aligned box of the (projected) chunk grid,
  /// produced by `level` rounds of midpoint subdivision.
  struct Cell {
    int level = 0;
    array::Coordinates lo;  // Inclusive.
    array::Coordinates hi;  // Exclusive.

    bool Contains(const array::Coordinates& projected) const;
    int64_t Volume() const;
    bool Splittable() const;  // Some dimension has extent >= 2.
  };

  static bool CellsAdjacent(const Cell& a, const Cell& b);
  /// The up-to-2^d children produced by midpoint cuts of `parent`.
  static std::vector<Cell> Quarter(const Cell& parent);
  /// Host whose cells contain a projected chunk position, or kInvalidNode.
  NodeId LocateProjected(const array::Coordinates& projected) const;
  /// Splits host `victim` (per the class comment), assigning the carved
  /// subset to `new_host`, pricing cells by `chunks` (the victim's current
  /// contents, projected).
  void SplitHost(NodeId victim, NodeId new_host,
                 const std::vector<ProjectedChunk>& chunks);

  SpatialProjection projection_;
  int num_dims_;  // Projected dimensionality.
  // host_cells_[h] = the sibling cells owned by host h (all at one level).
  std::vector<std::vector<Cell>> host_cells_;
};

}  // namespace arraydb::core

#endif  // ARRAYDB_CORE_QUADTREE_H_

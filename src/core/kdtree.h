// K-d Tree partitioner (§4.2, Bentley [9]).
//
// The partitioning table is a binary tree over chunk-grid space: leaves are
// hosts, internal nodes are axis-aligned split planes. When the cluster
// scales out, the most heavily burdened host's region is cut at the
// byte-weighted median of its stored chunks along the dimension selected by
// cycling per tree depth, and the upper half moves to the new host. Lookup
// is a logarithmic tree descent. A scale-out reads one sorted placement
// snapshot and projects each chunk once (SplitMostLoadedHosts); only the
// victim's chunks are gathered for each split.

#ifndef ARRAYDB_CORE_KDTREE_H_
#define ARRAYDB_CORE_KDTREE_H_

#include <memory>
#include <vector>

#include "core/partitioner.h"
#include "core/spatial.h"

namespace arraydb::core {

class KdTreePartitioner final : public Partitioner {
 public:
  /// `growth_dim` names the unbounded (time) dimension excluded from the
  /// binary space partition so daily inserts spread across all hosts; pass
  /// SpatialProjection::kNone to partition the full space.
  KdTreePartitioner(const array::ArraySchema& schema, int initial_nodes,
                    int growth_dim = SpatialProjection::kNone);

  const char* name() const override { return "K-d Tree"; }
  uint32_t features() const override {
    return kIncrementalScaleOut | kSkewAware | kNDimensionalClustering;
  }

  NodeId PlaceChunk(const cluster::Cluster& cluster,
                    const array::ChunkInfo& chunk) override;
  cluster::MovePlan PlanScaleOut(const cluster::Cluster& cluster,
                                 int old_node_count) override;
  NodeId Locate(const array::Coordinates& chunk_coords) const override;

  /// Tree depth of the leaf owned by `host` (exposed for tests).
  int LeafDepth(NodeId host) const;

 private:
  struct TreeNode {
    // Leaf state.
    bool is_leaf = true;
    NodeId host = kInvalidNode;
    // Internal state.
    int split_dim = -1;
    int64_t split_coord = 0;  // Left: coord < split_coord; right: >=.
    std::unique_ptr<TreeNode> left;
    std::unique_ptr<TreeNode> right;
    // Region covered (inclusive lo, exclusive hi per dimension).
    array::Coordinates lo;
    array::Coordinates hi;
    int depth = 0;
  };

  TreeNode* LeafOf(const array::Coordinates& projected) const;
  TreeNode* LeafOfHost(NodeId host) const;
  /// Splits `leaf`, giving the half at or above the split plane to
  /// `new_host`. Chooses the byte-weighted median along the cycled
  /// dimension using `chunks` (the leaf's current contents, projected).
  void SplitLeaf(TreeNode* leaf, NodeId new_host,
                 const std::vector<ProjectedChunk>& chunks);
  void CollectLeaves(TreeNode* node, std::vector<TreeNode*>* out) const;

  SpatialProjection projection_;
  std::unique_ptr<TreeNode> root_;
  std::vector<TreeNode*> host_leaf_;  // Indexed by NodeId.
};

}  // namespace arraydb::core

#endif  // ARRAYDB_CORE_KDTREE_H_

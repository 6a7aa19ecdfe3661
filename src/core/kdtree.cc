#include "core/kdtree.h"

#include <algorithm>

#include "util/logging.h"

namespace arraydb::core {

KdTreePartitioner::KdTreePartitioner(const array::ArraySchema& schema,
                                     int initial_nodes, int growth_dim)
    : projection_(schema, growth_dim) {
  ARRAYDB_CHECK_GE(initial_nodes, 1);
  root_ = std::make_unique<TreeNode>();
  root_->host = 0;
  root_->lo.assign(static_cast<size_t>(projection_.num_dims()), 0);
  root_->hi = projection_.extents();
  host_leaf_.push_back(root_.get());
  // With no data, bootstrap the initial nodes by midpoint splits of the
  // largest-volume leaf (Figure 2 starts with a midpoint cut).
  for (NodeId host = 1; host < initial_nodes; ++host) {
    TreeNode* biggest = nullptr;
    double best_volume = -1.0;
    std::vector<TreeNode*> leaves;
    CollectLeaves(root_.get(), &leaves);
    for (TreeNode* leaf : leaves) {
      double volume = 1.0;
      for (size_t d = 0; d < leaf->lo.size(); ++d) {
        volume *= static_cast<double>(leaf->hi[d] - leaf->lo[d]);
      }
      if (volume > best_volume) {
        best_volume = volume;
        biggest = leaf;
      }
    }
    ARRAYDB_CHECK(biggest != nullptr);
    SplitLeaf(biggest, host, {});
  }
}

void KdTreePartitioner::CollectLeaves(TreeNode* node,
                                      std::vector<TreeNode*>* out) const {
  if (node->is_leaf) {
    out->push_back(node);
    return;
  }
  CollectLeaves(node->left.get(), out);
  CollectLeaves(node->right.get(), out);
}

KdTreePartitioner::TreeNode* KdTreePartitioner::LeafOf(
    const array::Coordinates& projected) const {
  TreeNode* node = root_.get();
  while (!node->is_leaf) {
    node = projected[static_cast<size_t>(node->split_dim)] < node->split_coord
               ? node->left.get()
               : node->right.get();
  }
  return node;
}

KdTreePartitioner::TreeNode* KdTreePartitioner::LeafOfHost(
    NodeId host) const {
  ARRAYDB_CHECK_GE(host, 0);
  ARRAYDB_CHECK_LT(static_cast<size_t>(host), host_leaf_.size());
  return host_leaf_[static_cast<size_t>(host)];
}

void KdTreePartitioner::SplitLeaf(
    TreeNode* leaf, NodeId new_host,
    const std::vector<ProjectedChunk>& chunks) {
  const int ndims = projection_.num_dims();
  // Cycle through dimensions by depth so each plane is split an
  // approximately equal number of times; skip dimensions whose extent in
  // this region is already a single chunk.
  int split_dim = -1;
  int64_t split_coord = 0;
  for (int attempt = 0; attempt < ndims; ++attempt) {
    const int dim = (leaf->depth + attempt) % ndims;
    const size_t ud = static_cast<size_t>(dim);
    if (leaf->hi[ud] - leaf->lo[ud] < 2) continue;

    int64_t candidate;
    if (chunks.empty()) {
      candidate = (leaf->lo[ud] + leaf->hi[ud]) / 2;  // No data: midpoint.
    } else {
      // Byte-weighted median along `dim`: smallest boundary such that the
      // bytes strictly below it reach half of the region's storage.
      std::vector<std::pair<int64_t, int64_t>> by_coord;  // (coord, bytes)
      int64_t total = 0;
      for (const auto& [coords, bytes] : chunks) {
        by_coord.emplace_back(coords[ud], bytes);
        total += bytes;
      }
      std::sort(by_coord.begin(), by_coord.end());
      int64_t below = 0;
      candidate = (leaf->lo[ud] + leaf->hi[ud]) / 2;
      for (const auto& [coord, bytes] : by_coord) {
        below += bytes;
        if (below * 2 >= total) {
          candidate = coord + 1;
          break;
        }
      }
    }
    candidate = std::max(candidate, leaf->lo[ud] + 1);
    candidate = std::min(candidate, leaf->hi[ud] - 1);
    if (candidate > leaf->lo[ud] && candidate < leaf->hi[ud]) {
      split_dim = dim;
      split_coord = candidate;
      break;
    }
  }
  // A 1x1x..x1 region cannot be subdivided; the chunk grid is always far
  // larger than the cluster, so this indicates a configuration error.
  ARRAYDB_CHECK_GE(split_dim, 0);

  const NodeId old_host = leaf->host;
  auto left = std::make_unique<TreeNode>();
  auto right = std::make_unique<TreeNode>();
  left->host = old_host;
  right->host = new_host;
  left->lo = leaf->lo;
  left->hi = leaf->hi;
  left->hi[static_cast<size_t>(split_dim)] = split_coord;
  right->lo = leaf->lo;
  right->lo[static_cast<size_t>(split_dim)] = split_coord;
  right->hi = leaf->hi;
  left->depth = right->depth = leaf->depth + 1;

  leaf->is_leaf = false;
  leaf->host = kInvalidNode;
  leaf->split_dim = split_dim;
  leaf->split_coord = split_coord;
  leaf->left = std::move(left);
  leaf->right = std::move(right);

  if (static_cast<size_t>(new_host) >= host_leaf_.size()) {
    host_leaf_.resize(static_cast<size_t>(new_host) + 1, nullptr);
  }
  host_leaf_[static_cast<size_t>(old_host)] = leaf->left.get();
  host_leaf_[static_cast<size_t>(new_host)] = leaf->right.get();
}

NodeId KdTreePartitioner::PlaceChunk(const cluster::Cluster& cluster,
                                     const array::ChunkInfo& chunk) {
  (void)cluster;
  return LeafOf(projection_.Project(chunk.coords))->host;
}

cluster::MovePlan KdTreePartitioner::PlanScaleOut(
    const cluster::Cluster& cluster, int old_node_count) {
  const std::vector<cluster::ChunkRecord> chunks = cluster.AllChunks();
  SplitMostLoadedHosts(
      projection_, chunks, old_node_count, cluster.num_nodes(),
      [this](const array::Coordinates& projected) {
        return LeafOf(projected)->host;
      },
      // A region that has shrunk to a single chunk column cannot be cut.
      [this](NodeId host) {
        const TreeNode* leaf = LeafOfHost(host);
        for (size_t d = 0; d < leaf->lo.size(); ++d) {
          if (leaf->hi[d] - leaf->lo[d] >= 2) return true;
        }
        return false;
      },
      [this](NodeId victim, NodeId new_node,
             const std::vector<ProjectedChunk>& victim_chunks) {
        SplitLeaf(LeafOfHost(victim), new_node, victim_chunks);
      });
  return MovesToTable(chunks);
}

NodeId KdTreePartitioner::Locate(
    const array::Coordinates& chunk_coords) const {
  return LeafOf(projection_.Project(chunk_coords))->host;
}

int KdTreePartitioner::LeafDepth(NodeId host) const {
  return LeafOfHost(host)->depth;
}

}  // namespace arraydb::core

// Move plans: the unit of data redistribution. A partitioner's scale-out
// decision is expressed as a MovePlan, which the Cluster applies and the
// CostModel prices.

#ifndef ARRAYDB_CLUSTER_TRANSFER_H_
#define ARRAYDB_CLUSTER_TRANSFER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "array/coordinates.h"

namespace arraydb::cluster {

using NodeId = int32_t;
inline constexpr NodeId kInvalidNode = -1;

/// Relocation of one chunk between nodes.
struct ChunkMove {
  array::Coordinates coords;
  int64_t bytes = 0;
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
};

/// An ordered set of chunk relocations produced by one scale-out.
class MovePlan {
 public:
  void Add(ChunkMove move) { moves_.push_back(std::move(move)); }

  const std::vector<ChunkMove>& moves() const { return moves_; }
  bool empty() const { return moves_.empty(); }
  int64_t num_chunks() const { return static_cast<int64_t>(moves_.size()); }

  /// Total bytes relocated.
  int64_t TotalBytes() const;

  /// True if every destination is >= `first_new_node` — the incremental
  /// scale-out property of Table 1 (data flows only to newly added hosts).
  bool OnlyToNodesAtOrAbove(NodeId first_new_node) const;

  std::string Summary() const;

 private:
  std::vector<ChunkMove> moves_;
};

}  // namespace arraydb::cluster

#endif  // ARRAYDB_CLUSTER_TRANSFER_H_

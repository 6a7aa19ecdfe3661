// Hilbert Curve partitioner (§4.2).
//
// Chunks are totally ordered by their Hilbert curve rank, and each node owns
// one contiguous range of the curve. Because neighboring ranks are spatially
// adjacent chunks, per-node ranges preserve n-dimensional locality while
// still splitting at single-chunk granularity — finer than dimension-range
// slicing. On scale-out, the most heavily burdened node's range is cut at
// its byte-weighted median rank and the upper half moves to a new host
// (incremental + skew-aware).

#ifndef ARRAYDB_CORE_HILBERT_PARTITIONER_H_
#define ARRAYDB_CORE_HILBERT_PARTITIONER_H_

#include <cstdint>
#include <vector>

#include "core/partitioner.h"
#include "core/spatial.h"
#include "hilbert/hilbert.h"

namespace arraydb::core {

class HilbertPartitioner final : public Partitioner {
 public:
  /// `growth_dim` names the unbounded (time) dimension excluded from the
  /// curve so that spatial columns stay collocated across inserts; pass
  /// SpatialProjection::kNone to serialize the full space.
  HilbertPartitioner(const array::ArraySchema& schema, int initial_nodes,
                     int growth_dim = SpatialProjection::kNone);

  const char* name() const override { return "Hilbert Curve"; }
  uint32_t features() const override {
    return kIncrementalScaleOut | kSkewAware | kNDimensionalClustering;
  }

  NodeId PlaceChunk(const cluster::Cluster& cluster,
                    const array::ChunkInfo& chunk) override;
  cluster::MovePlan PlanScaleOut(const cluster::Cluster& cluster,
                                 int old_node_count) override;
  NodeId Locate(const array::Coordinates& chunk_coords) const override;

  /// Curve rank of a chunk (exposed for tests and diagnostics): a pure,
  /// table-driven codec call on the projected chunk position.
  uint64_t RankOf(const array::Coordinates& chunk_coords) const;

  /// Number of curve ranges (== number of nodes).
  int num_ranges() const { return static_cast<int>(ranges_.size()); }

 private:
  struct Range {
    uint64_t start;  // Inclusive curve rank.
    uint64_t end;    // Exclusive.
    NodeId node;
  };

  NodeId OwnerOfRank(uint64_t rank) const;
  size_t RangeIndexOf(uint64_t rank) const;

  SpatialProjection projection_;
  array::Coordinates extents_;  // Projected grid extents.
  hilbert::HilbertCodec codec_;  // Sized to extents_ once, reused per rank.
  uint64_t curve_length_;
  std::vector<Range> ranges_;  // Sorted by start; a partition of the curve.
};

}  // namespace arraydb::core

#endif  // ARRAYDB_CORE_HILBERT_PARTITIONER_H_

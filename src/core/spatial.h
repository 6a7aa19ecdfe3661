// Projection of chunk coordinates onto the partitioned subspace.
//
// Scientific arrays have a growth dimension — time, declared unbounded in
// the paper's schemas (time=0,*) — along which the store grows forever.
// A range partitioner that cut this dimension would funnel every future
// insert into the newest region's host, so the spatial schemes (K-d Tree,
// Incremental Quadtree, Hilbert Curve, Uniform Range) partition the
// remaining, bounded dimensions and collocate each spatial column across
// time. SpatialProjection centralizes that coordinate mapping; passing
// growth_dim = kNone partitions the full space (useful for static arrays
// and property tests).

#ifndef ARRAYDB_CORE_SPATIAL_H_
#define ARRAYDB_CORE_SPATIAL_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "array/coordinates.h"
#include "array/schema.h"
#include "cluster/cluster.h"
#include "util/logging.h"

namespace arraydb::core {

/// (projected coordinates, bytes) of one stored chunk.
using ProjectedChunk = std::pair<array::Coordinates, int64_t>;

class SpatialProjection {
 public:
  static constexpr int kNone = -1;

  SpatialProjection(const array::ArraySchema& schema, int growth_dim)
      : growth_dim_(growth_dim) {
    ARRAYDB_CHECK_GE(growth_dim, kNone);
    ARRAYDB_CHECK_LT(growth_dim, schema.num_dims());
    const array::Coordinates full = schema.ChunkGridExtents();
    for (int d = 0; d < schema.num_dims(); ++d) {
      if (d == growth_dim_) continue;
      dims_.push_back(d);
      extents_.push_back(full[static_cast<size_t>(d)]);
    }
    ARRAYDB_CHECK(!dims_.empty());
  }

  int growth_dim() const { return growth_dim_; }
  int num_dims() const { return static_cast<int>(dims_.size()); }

  /// Extents of the projected chunk grid.
  const array::Coordinates& extents() const { return extents_; }

  /// Drops the growth dimension from full chunk coordinates.
  array::Coordinates Project(const array::Coordinates& full) const {
    array::Coordinates out;
    out.reserve(dims_.size());
    for (const int d : dims_) out.push_back(full[static_cast<size_t>(d)]);
    return out;
  }

 private:
  int growth_dim_;
  std::vector<int> dims_;      // Full-space indexes of partitioned dims.
  array::Coordinates extents_;
};

/// The scale-out loop of the region splitters (K-d Tree, Incremental
/// Quadtree). Projects each record of a sorted placement snapshot once;
/// then, for each added node in [old_count, new_count), splits the most
/// loaded preexisting host that `splittable(host)` admits (ties break toward
/// the lower id) by calling `split(victim, new_node, victim_chunks)`, and
/// re-reads the owner of each of the victim's chunks through
/// `locate(projected)` so that later splits see earlier ones.
template <typename Locate, typename Splittable, typename Split>
void SplitMostLoadedHosts(const SpatialProjection& projection,
                          const std::vector<cluster::ChunkRecord>& chunks,
                          int old_count, int new_count, const Locate& locate,
                          const Splittable& splittable, const Split& split) {
  std::vector<ProjectedChunk> projected;
  std::vector<cluster::NodeId> owner;
  std::vector<int64_t> load(static_cast<size_t>(new_count), 0);
  projected.reserve(chunks.size());
  owner.reserve(chunks.size());
  for (const auto& rec : chunks) {
    projected.emplace_back(projection.Project(rec.coords), rec.bytes);
    owner.push_back(locate(projected.back().first));
    if (owner.back() != cluster::kInvalidNode) {
      load[static_cast<size_t>(owner.back())] += rec.bytes;
    }
  }
  for (cluster::NodeId new_node = old_count; new_node < new_count;
       ++new_node) {
    cluster::NodeId victim = cluster::kInvalidNode;
    int64_t victim_bytes = -1;
    for (cluster::NodeId n = 0; n < new_node; ++n) {
      if (splittable(n) && load[static_cast<size_t>(n)] > victim_bytes) {
        victim = n;
        victim_bytes = load[static_cast<size_t>(n)];
      }
    }
    ARRAYDB_CHECK_GE(victim, 0);
    std::vector<ProjectedChunk> victim_chunks;
    for (size_t i = 0; i < chunks.size(); ++i) {
      if (owner[i] == victim) victim_chunks.push_back(projected[i]);
    }
    split(victim, new_node, victim_chunks);
    for (size_t i = 0; i < chunks.size(); ++i) {
      if (owner[i] != victim || locate(projected[i].first) != new_node) {
        continue;
      }
      owner[i] = new_node;
      load[static_cast<size_t>(victim)] -= projected[i].second;
      load[static_cast<size_t>(new_node)] += projected[i].second;
    }
  }
}

}  // namespace arraydb::core

#endif  // ARRAYDB_CORE_SPATIAL_H_

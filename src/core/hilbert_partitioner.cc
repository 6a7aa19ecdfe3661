#include "core/hilbert_partitioner.h"

#include <algorithm>

#include "hilbert/hilbert.h"
#include "util/logging.h"

namespace arraydb::core {

namespace {

// Schema-driven codec construction goes through the checked factory: a
// projected rank above the 6-dim state tables (or an index budget
// overflow) fails loudly with the factory's message. This is deliberate
// policy, not a correctness necessity — the raw constructor's high-dim
// fallback is reference-exact, just table-free and slower — so hot-path
// placement refuses the unbounded-cost path until the ROADMAP item
// extending the state tables lands. Partitioner construction has no
// status channel, so the InvalidArgument surfaces as a CHECK here.
hilbert::HilbertCodec MakeCodecChecked(const array::Coordinates& extents) {
  auto codec = hilbert::HilbertCodec::Create(
      static_cast<int>(extents.size()), hilbert::BitsForExtents(extents));
  if (!codec.ok()) {
    std::fprintf(stderr, "HilbertPartitioner: %s\n",
                 codec.status().ToString().c_str());
  }
  ARRAYDB_CHECK(codec.ok());
  return std::move(codec).value();
}

}  // namespace

HilbertPartitioner::HilbertPartitioner(const array::ArraySchema& schema,
                                       int initial_nodes, int growth_dim)
    : projection_(schema, growth_dim),
      extents_(projection_.extents()),
      codec_(MakeCodecChecked(projection_.extents())) {
  ARRAYDB_CHECK_GE(initial_nodes, 1);
  const int bits = codec_.bits();
  const int n = codec_.num_dims();
  ARRAYDB_CHECK_LE(n * bits, 62);
  curve_length_ = 1ULL << (n * bits);
  // With no data yet, divide the curve evenly among the initial nodes.
  for (NodeId node = 0; node < initial_nodes; ++node) {
    const uint64_t start =
        curve_length_ / initial_nodes * static_cast<uint64_t>(node);
    const uint64_t end =
        node + 1 == initial_nodes
            ? curve_length_
            : curve_length_ / initial_nodes * static_cast<uint64_t>(node + 1);
    ranges_.push_back(Range{start, end, node});
  }
}

uint64_t HilbertPartitioner::RankOf(
    const array::Coordinates& chunk_coords) const {
  return codec_.RankChecked(projection_.Project(chunk_coords), extents_);
}

size_t HilbertPartitioner::RangeIndexOf(uint64_t rank) const {
  // Last range whose start is <= rank: one upper_bound, no linear probing.
  const auto it = std::upper_bound(
      ranges_.begin(), ranges_.end(), rank,
      [](uint64_t value, const Range& r) { return value < r.start; });
  ARRAYDB_CHECK(it != ranges_.begin());
  const size_t index = static_cast<size_t>(it - ranges_.begin()) - 1;
  ARRAYDB_CHECK_LE(ranges_[index].start, rank);
  ARRAYDB_CHECK_LT(rank, ranges_[index].end);
  return index;
}

NodeId HilbertPartitioner::OwnerOfRank(uint64_t rank) const {
  return ranges_[RangeIndexOf(rank)].node;
}

NodeId HilbertPartitioner::PlaceChunk(const cluster::Cluster& cluster,
                                      const array::ChunkInfo& chunk) {
  (void)cluster;
  return OwnerOfRank(RankOf(chunk.coords));
}

cluster::MovePlan HilbertPartitioner::PlanScaleOut(
    const cluster::Cluster& cluster, int old_node_count) {
  const int new_count = cluster.num_nodes();
  ARRAYDB_CHECK_GE(new_count, old_node_count);

  // Working view: (rank, bytes) for every stored chunk, plus per-node loads
  // that are updated as ranges split within this scale-out.
  struct Entry {
    uint64_t rank;
    int64_t bytes;
  };
  const std::vector<cluster::ChunkRecord> chunks = cluster.AllChunks();
  std::vector<Entry> entries;
  entries.reserve(chunks.size());
  std::vector<int64_t> load(static_cast<size_t>(new_count), 0);
  for (const auto& rec : chunks) {
    const uint64_t rank = RankOf(rec.coords);
    entries.push_back(Entry{rank, rec.bytes});
    load[static_cast<size_t>(OwnerOfRank(rank))] += rec.bytes;
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.rank < b.rank; });

  for (NodeId new_node = old_node_count; new_node < new_count; ++new_node) {
    // Pick the most heavily burdened host so far (skew-awareness) whose
    // curve range is still divisible. A width-1 range — one hot curve
    // position, e.g. a single port cell — cannot be cut further, so the
    // next most loaded host is split instead.
    size_t ri = ranges_.size();
    int64_t victim_bytes = -1;
    for (size_t i = 0; i < ranges_.size(); ++i) {
      if (ranges_[i].node >= new_node) continue;  // Not provisioned yet.
      if (ranges_[i].end - ranges_[i].start < 2) continue;
      const int64_t bytes = load[static_cast<size_t>(ranges_[i].node)];
      if (bytes > victim_bytes) {
        victim_bytes = bytes;
        ri = i;
      }
    }
    ARRAYDB_CHECK_LT(ri, ranges_.size());
    Range& r = ranges_[ri];
    const NodeId victim = r.node;

    // Byte-weighted median rank within [r.start, r.end): the smallest rank
    // boundary m such that bytes below m reach half. The split must leave
    // both sides non-empty in curve space.
    const auto first = std::lower_bound(
        entries.begin(), entries.end(), r.start,
        [](const Entry& e, uint64_t v) { return e.rank < v; });
    const auto last = std::lower_bound(
        entries.begin(), entries.end(), r.end,
        [](const Entry& e, uint64_t v) { return e.rank < v; });
    int64_t range_bytes = 0;
    for (auto it = first; it != last; ++it) range_bytes += it->bytes;

    uint64_t split = r.start + (r.end - r.start) / 2;  // Fallback: midpoint.
    if (range_bytes > 0) {
      int64_t below = 0;
      for (auto it = first; it != last; ++it) {
        below += it->bytes;
        if (below * 2 >= range_bytes) {
          split = it->rank + 1;  // Boundary just above the median chunk.
          break;
        }
      }
      if (split >= r.end) split = r.end - 1;
      if (split <= r.start) split = r.start + 1;
    }
    ARRAYDB_CHECK_GT(split, r.start);
    ARRAYDB_CHECK_LT(split, r.end);

    // Upper half of the curve range moves to the new node.
    const Range upper{split, r.end, new_node};
    r.end = split;
    ranges_.insert(ranges_.begin() + static_cast<ptrdiff_t>(ri) + 1, upper);

    int64_t moved = 0;
    for (auto it = first; it != last; ++it) {
      if (it->rank >= split) moved += it->bytes;
    }
    load[static_cast<size_t>(victim)] -= moved;
    load[static_cast<size_t>(new_node)] += moved;
  }

  return MovesToTable(chunks);
}

NodeId HilbertPartitioner::Locate(
    const array::Coordinates& chunk_coords) const {
  return OwnerOfRank(RankOf(chunk_coords));
}

}  // namespace arraydb::core

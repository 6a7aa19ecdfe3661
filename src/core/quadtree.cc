#include "core/quadtree.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace arraydb::core {

bool QuadtreePartitioner::Cell::Contains(
    const array::Coordinates& projected) const {
  for (size_t d = 0; d < lo.size(); ++d) {
    if (projected[d] < lo[d] || projected[d] >= hi[d]) return false;
  }
  return true;
}

int64_t QuadtreePartitioner::Cell::Volume() const {
  int64_t v = 1;
  for (size_t d = 0; d < lo.size(); ++d) v *= hi[d] - lo[d];
  return v;
}

bool QuadtreePartitioner::Cell::Splittable() const {
  for (size_t d = 0; d < lo.size(); ++d) {
    if (hi[d] - lo[d] >= 2) return true;
  }
  return false;
}

std::vector<QuadtreePartitioner::Cell> QuadtreePartitioner::Quarter(
    const Cell& parent) {
  // Midpoint cut of every dimension that still has extent >= 2; cells are
  // boxes of the actual grid, so quarters stay data-proportional even for
  // non-power-of-two arrays.
  const size_t ndims = parent.lo.size();
  std::vector<Cell> children = {Cell{parent.level + 1, parent.lo, parent.hi}};
  for (size_t d = 0; d < ndims; ++d) {
    if (parent.hi[d] - parent.lo[d] < 2) continue;
    const int64_t mid = (parent.lo[d] + parent.hi[d]) / 2;
    std::vector<Cell> next;
    next.reserve(children.size() * 2);
    for (const Cell& c : children) {
      Cell low = c;
      low.hi[d] = mid;
      Cell high = c;
      high.lo[d] = mid;
      next.push_back(std::move(low));
      next.push_back(std::move(high));
    }
    children = std::move(next);
  }
  return children;
}

bool QuadtreePartitioner::CellsAdjacent(const Cell& a, const Cell& b) {
  if (a.level != b.level) return false;
  // Face adjacency of axis-aligned boxes: touching in exactly one
  // dimension, identical ranges in the others (siblings from midpoint
  // cuts always satisfy the latter when adjacent).
  int touching_dims = 0;
  for (size_t d = 0; d < a.lo.size(); ++d) {
    if (a.lo[d] == b.lo[d] && a.hi[d] == b.hi[d]) continue;
    if (a.hi[d] == b.lo[d] || b.hi[d] == a.lo[d]) {
      ++touching_dims;
      continue;
    }
    return false;  // Disjoint or overlapping in this dimension.
  }
  return touching_dims == 1;
}

QuadtreePartitioner::QuadtreePartitioner(const array::ArraySchema& schema,
                                         int initial_nodes, int growth_dim)
    : projection_(schema, growth_dim), num_dims_(projection_.num_dims()) {
  ARRAYDB_CHECK_GE(initial_nodes, 1);
  Cell root;
  root.level = 0;
  root.lo.assign(static_cast<size_t>(num_dims_), 0);
  root.hi = projection_.extents();
  host_cells_.push_back({root});
  // Bootstrap additional initial nodes with volume-driven splits (no data
  // exists yet, so byte-driven selection ties and volume decides).
  for (NodeId host = 1; host < initial_nodes; ++host) {
    NodeId biggest = 0;
    int64_t best_volume = -1;
    for (NodeId h = 0; h < host; ++h) {
      int64_t volume = 0;
      for (const Cell& c : host_cells_[static_cast<size_t>(h)]) {
        volume += c.Volume();
      }
      if (volume > best_volume) {
        best_volume = volume;
        biggest = h;
      }
    }
    host_cells_.emplace_back();
    SplitHost(biggest, host, {});
  }
}

void QuadtreePartitioner::SplitHost(
    NodeId victim, NodeId new_host, const std::vector<ProjectedChunk>& chunks) {
  auto& cells = host_cells_[static_cast<size_t>(victim)];
  ARRAYDB_CHECK(!cells.empty());

  // Candidate pool: the victim's cells, or — when it owns a single cell —
  // that cell's quarters.
  std::vector<Cell> pool;
  if (cells.size() == 1) {
    ARRAYDB_CHECK(cells[0].Splittable());
    pool = Quarter(cells[0]);
  } else {
    pool = cells;
  }

  // Price the pool in one pass: its cells are disjoint and cover exactly
  // the victim's region, so each of the victim's chunks lands in one.
  std::vector<int64_t> pool_bytes(pool.size(), 0);
  int64_t total_bytes = 0;
  for (const auto& [projected, bytes] : chunks) {
    for (size_t i = 0; i < pool.size(); ++i) {
      if (pool[i].Contains(projected)) {
        pool_bytes[i] += bytes;
        total_bytes += bytes;
        break;
      }
    }
  }

  // Candidate subsets: each single cell, each face-adjacent pair, and —
  // when quartering in more than two dimensions — each half-box (the
  // quarters on one side of a cut), generalizing "pair of adjacent
  // quarters" beyond 2-D.
  struct Candidate {
    std::vector<size_t> members;
    int64_t bytes = 0;
    int64_t volume = 0;
  };
  std::vector<Candidate> candidates;
  for (size_t i = 0; i < pool.size(); ++i) {
    candidates.push_back(Candidate{{i}, pool_bytes[i], pool[i].Volume()});
  }
  for (size_t i = 0; i < pool.size(); ++i) {
    for (size_t j = i + 1; j < pool.size(); ++j) {
      if (CellsAdjacent(pool[i], pool[j])) {
        candidates.push_back(Candidate{{i, j},
                                       pool_bytes[i] + pool_bytes[j],
                                       pool[i].Volume() + pool[j].Volume()});
      }
    }
  }
  if (cells.size() == 1 && num_dims_ > 2) {
    const Cell& parent = cells[0];
    for (int d = 0; d < num_dims_; ++d) {
      const size_t ud = static_cast<size_t>(d);
      if (parent.hi[ud] - parent.lo[ud] < 2) continue;
      const int64_t mid = (parent.lo[ud] + parent.hi[ud]) / 2;
      for (int side = 0; side <= 1; ++side) {
        Candidate half;
        for (size_t i = 0; i < pool.size(); ++i) {
          const bool upper = pool[i].lo[ud] >= mid;
          if (upper == (side == 1)) {
            half.members.push_back(i);
            half.bytes += pool_bytes[i];
            half.volume += pool[i].Volume();
          }
        }
        candidates.push_back(std::move(half));
      }
    }
  }

  // Keep the split proper: the new host must receive a non-empty strict
  // subset of the pool.
  int64_t pool_volume = 0;
  for (const Cell& c : pool) pool_volume += c.Volume();
  const auto viable = [&](const Candidate& c) {
    return !c.members.empty() && c.members.size() < pool.size();
  };
  const Candidate* best = nullptr;
  const double byte_target = static_cast<double>(total_bytes) / 2.0;
  const double volume_target = static_cast<double>(pool_volume) / 2.0;
  for (const auto& c : candidates) {
    if (!viable(c)) continue;
    if (best == nullptr) {
      best = &c;
      continue;
    }
    const double c_err = std::abs(static_cast<double>(c.bytes) - byte_target);
    const double b_err =
        std::abs(static_cast<double>(best->bytes) - byte_target);
    if (c_err < b_err) {
      best = &c;
    } else if (c_err == b_err) {
      // Byte tie (e.g. bootstrap with no data): prefer the subset closest
      // to half the volume, then the earliest in candidate order.
      const double c_vol =
          std::abs(static_cast<double>(c.volume) - volume_target);
      const double b_vol =
          std::abs(static_cast<double>(best->volume) - volume_target);
      if (c_vol < b_vol) best = &c;
    }
  }
  ARRAYDB_CHECK(best != nullptr);

  std::vector<Cell> new_cells;
  std::vector<Cell> remaining;
  for (size_t i = 0; i < pool.size(); ++i) {
    const bool taken =
        std::find(best->members.begin(), best->members.end(), i) !=
        best->members.end();
    if (taken) {
      new_cells.push_back(pool[i]);
    } else {
      remaining.push_back(pool[i]);
    }
  }
  host_cells_[static_cast<size_t>(victim)] = std::move(remaining);
  if (static_cast<size_t>(new_host) >= host_cells_.size()) {
    host_cells_.resize(static_cast<size_t>(new_host) + 1);
  }
  host_cells_[static_cast<size_t>(new_host)] = std::move(new_cells);
}

NodeId QuadtreePartitioner::PlaceChunk(const cluster::Cluster& cluster,
                                       const array::ChunkInfo& chunk) {
  (void)cluster;
  return Locate(chunk.coords);
}

cluster::MovePlan QuadtreePartitioner::PlanScaleOut(
    const cluster::Cluster& cluster, int old_node_count) {
  const std::vector<cluster::ChunkRecord> chunks = cluster.AllChunks();
  SplitMostLoadedHosts(
      projection_, chunks, old_node_count, cluster.num_nodes(),
      [this](const array::Coordinates& projected) {
        return LocateProjected(projected);
      },
      // A host can shed cells when it owns several sibling cells, or one
      // cell that is still subdividable.
      [this](NodeId host) {
        const auto& cells = host_cells_[static_cast<size_t>(host)];
        return cells.size() > 1 ||
               (cells.size() == 1 && cells[0].Splittable());
      },
      [this](NodeId victim, NodeId new_node,
             const std::vector<ProjectedChunk>& victim_chunks) {
        SplitHost(victim, new_node, victim_chunks);
      });
  return MovesToTable(chunks);
}

NodeId QuadtreePartitioner::Locate(
    const array::Coordinates& chunk_coords) const {
  return LocateProjected(projection_.Project(chunk_coords));
}

NodeId QuadtreePartitioner::LocateProjected(
    const array::Coordinates& projected) const {
  for (size_t h = 0; h < host_cells_.size(); ++h) {
    for (const Cell& c : host_cells_[h]) {
      if (c.Contains(projected)) return static_cast<NodeId>(h);
    }
  }
  return kInvalidNode;
}

int QuadtreePartitioner::HostLevel(NodeId host) const {
  const auto& cells = host_cells_[static_cast<size_t>(host)];
  ARRAYDB_CHECK(!cells.empty());
  return cells[0].level;
}

int QuadtreePartitioner::HostCellCount(NodeId host) const {
  return static_cast<int>(host_cells_[static_cast<size_t>(host)].size());
}

}  // namespace arraydb::core

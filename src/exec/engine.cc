#include "exec/engine.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>

#include "util/logging.h"
#include "util/rng.h"
#include "util/units.h"

namespace arraydb::exec {
namespace {

// Invokes `fn` for every face-adjacent neighbor coordinate of `coords`.
template <typename Fn>
void ForEachFaceNeighbor(const array::Coordinates& coords, Fn&& fn) {
  array::Coordinates nb = coords;
  for (size_t d = 0; d < coords.size(); ++d) {
    nb[d] = coords[d] - 1;
    fn(nb);
    nb[d] = coords[d] + 1;
    fn(nb);
    nb[d] = coords[d];
  }
}

// Invokes `fn` for every Chebyshev-ring (Moore) neighbor of `coords`.
template <typename Fn>
void ForEachRingNeighbor(const array::Coordinates& coords, Fn&& fn) {
  const size_t ndims = coords.size();
  array::Coordinates nb = coords;
  // Iterate offsets in {-1,0,1}^d via a base-3 counter, skipping zero.
  const int64_t total = static_cast<int64_t>(std::pow(3.0, ndims));
  for (int64_t code = 0; code < total; ++code) {
    int64_t rest = code;
    bool all_zero = true;
    for (size_t d = 0; d < ndims; ++d) {
      const int offset = static_cast<int>(rest % 3) - 1;
      rest /= 3;
      nb[d] = coords[d] + offset;
      if (offset != 0) all_zero = false;
    }
    if (!all_zero) fn(nb);
  }
}

}  // namespace

QueryCost QueryEngine::Simulate(const QuerySpec& spec,
                                const cluster::PlacementView& placement,
                                const array::ArraySchema& schema) const {
  (void)schema;
  QueryCost cost;
  cost.minutes = params_.startup_minutes;

  // Gather the chunks this query touches, with their routed owners, in
  // sorted chunk order (the PlacementView::ForEachChunk contract).
  std::vector<cluster::ChunkRecord> relevant;
  placement.ForEachChunk([&spec, &relevant](const array::Coordinates& coords,
                                            cluster::NodeId node,
                                            int64_t bytes) {
    if (spec.region.Contains(coords)) {
      relevant.push_back(cluster::ChunkRecord{coords, bytes, node});
    }
  });
  if (relevant.empty()) return cost;

  const int num_nodes = placement.num_nodes();
  std::vector<double> node_minutes(static_cast<size_t>(num_nodes), 0.0);

  // Dimension joins read two vertically partitioned inputs at the same
  // positions; everything else reads one.
  const double scan_factor = spec.kind == QueryKind::kDimJoin ? 2.0 : 1.0;
  // Iterative operators re-run their CPU phase each iteration; I/O is paid
  // once (chunks stay cached in the node's memory between iterations).
  const double cpu_iters =
      spec.kind == QueryKind::kKMeans ? static_cast<double>(spec.iterations)
                                      : 1.0;

  // kNN probes only the sampled neighborhoods (below); every other
  // operator scans its whole region.
  if (spec.kind != QueryKind::kKnn) {
    for (const auto& rec : relevant) {
      const double gb = util::BytesToGb(static_cast<double>(rec.bytes));
      // arraydb-lint: fixed-order -- `relevant` is in sorted chunk order.
      cost.scanned_gb += gb * scan_factor;
      node_minutes[static_cast<size_t>(rec.node)] +=
          gb * scan_factor *
          (params_.io_read_min_per_gb + spec.cpu_min_per_gb * cpu_iters);
    }
    cost.chunks_touched = static_cast<int64_t>(relevant.size());
  }

  // Kind-specific distributed costs.
  switch (spec.kind) {
    case QueryKind::kFilter:
    case QueryKind::kDimJoin:
      break;  // Pure makespan; collocation is positional by construction.
    case QueryKind::kSortQuantile: {
      // Each node ships its surviving fraction to the coordinator, which
      // merges serially.
      cost.network_minutes +=
          cost.scanned_gb * spec.selectivity * params_.net_min_per_gb;
      break;
    }
    case QueryKind::kAttrJoin: {
      // The small side is broadcast to every node once.
      cost.network_minutes += spec.small_side_gb * params_.net_min_per_gb;
      break;
    }
    case QueryKind::kGroupBy: {
      // Partial aggregates are exchanged in a short synchronization round.
      cost.network_minutes +=
          params_.sync_minutes * static_cast<double>(num_nodes);
      break;
    }
    case QueryKind::kWindow: {
      // Halo exchange: every face-adjacent neighbor stored on a different
      // node costs a chunk transfer, charged to the reader. Each distinct
      // (reader, neighbor) pair is fetched once per query — nodes cache
      // chunks they already pulled.
      std::set<std::pair<cluster::NodeId, array::Coordinates>> fetched;
      for (const auto& rec : relevant) {
        ForEachFaceNeighbor(rec.coords, [&](const array::Coordinates& nb) {
          cluster::NodeId nb_node = cluster::kInvalidNode;
          int64_t nb_bytes = 0;
          if (!placement.Lookup(nb, &nb_node, &nb_bytes)) return;
          if (nb_node == rec.node) return;
          if (!fetched.emplace(rec.node, nb).second) return;
          const double nb_gb =
              util::BytesToGb(static_cast<double>(nb_bytes));
          // arraydb-lint: fixed-order -- sorted chunks x fixed face order.
          node_minutes[static_cast<size_t>(rec.node)] +=
              spec.halo_fraction * nb_gb * params_.net_min_per_gb +
              params_.remote_fetch_minutes;
          ++cost.remote_neighbor_fetches;
        });
      }
      break;
    }
    case QueryKind::kKnn: {
      // Sample cells with probability proportional to chunk bytes (ships
      // are sampled uniformly, so dense chunks are hit more often); each
      // probe scans its chunk's neighborhood ring.
      std::vector<double> cumulative(relevant.size());
      double acc = 0.0;
      for (size_t i = 0; i < relevant.size(); ++i) {
        // arraydb-lint: fixed-order -- sequential prefix sum.
        acc += static_cast<double>(relevant[i].bytes);
        cumulative[i] = acc;
      }
      util::Rng rng(spec.seed);
      std::set<std::pair<cluster::NodeId, array::Coordinates>> fetched;
      std::set<array::Coordinates> probed;
      for (int s = 0; s < spec.knn_samples; ++s) {
        const double pick = rng.NextDouble() * acc;
        const size_t idx = static_cast<size_t>(
            std::lower_bound(cumulative.begin(), cumulative.end(), pick) -
            cumulative.begin());
        const auto& rec = relevant[std::min(idx, relevant.size() - 1)];
        const double gb = util::BytesToGb(static_cast<double>(rec.bytes));
        // Probe reads its own chunk and scans the candidates; a chunk
        // already probed stays cached on its node.
        if (probed.insert(rec.coords).second) {
          // arraydb-lint: fixed-order -- probes draw from a seeded Rng.
          node_minutes[static_cast<size_t>(rec.node)] +=
              gb * (params_.io_read_min_per_gb + spec.cpu_min_per_gb);
          // arraydb-lint: fixed-order -- probes draw from a seeded Rng.
          cost.scanned_gb += gb;
          ++cost.chunks_touched;
        }
        ForEachRingNeighbor(rec.coords, [&](const array::Coordinates& nb) {
          cluster::NodeId nb_node = cluster::kInvalidNode;
          int64_t nb_bytes = 0;
          if (!placement.Lookup(nb, &nb_node, &nb_bytes)) return;
          if (nb_node == rec.node) return;
          if (!fetched.emplace(rec.node, nb).second) return;
          const double nb_gb =
              util::BytesToGb(static_cast<double>(nb_bytes));
          // arraydb-lint: fixed-order -- seeded probes x fixed ring order.
          node_minutes[static_cast<size_t>(rec.node)] +=
              spec.halo_fraction * nb_gb * params_.net_min_per_gb +
              params_.remote_fetch_minutes;
          ++cost.remote_neighbor_fetches;
        });
      }
      break;
    }
    case QueryKind::kKMeans: {
      // Per-iteration centroid broadcast + barrier.
      cost.network_minutes += static_cast<double>(spec.iterations) *
                              params_.sync_minutes *
                              static_cast<double>(num_nodes);
      break;
    }
  }

  cost.makespan_minutes =
      *std::max_element(node_minutes.begin(), node_minutes.end());
  cost.minutes += cost.makespan_minutes + cost.network_minutes;
  return cost;
}

}  // namespace arraydb::exec

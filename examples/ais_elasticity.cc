// Marine-science pipeline (§3.2): the AIS ship-tracking use case.
//
// Part A runs the marine analytics on a small materialized track array:
// the Houston-style port selection, the distinct-ship join against a
// vessel registry, a coarse track-density map, and the kNN traffic-density
// estimate — demonstrating why ports make the data extremely skewed.
//
// Part B compares two paper-scale elastic runs over the 400 GB AIS
// workload: the Round Robin baseline against the K-d Tree, showing the
// trade between storage balance and spatial clustering under heavy skew.
//
// Build & run:  ./build/examples/ais_elasticity

#include <cstdio>
#include <unordered_set>

#include "exec/operators.h"
#include "workload/ais.h"
#include "workload/runner.h"
#include "workload/sample_data.h"

using namespace arraydb;

int main() {
  std::printf("== Part A: marine analytics on materialized tracks ==\n\n");
  const array::Array tracks =
      workload::MakeSmallAisTracks(/*months=*/8, /*ships=*/300, /*seed=*/29);
  std::printf("Tracks: %s\n", tracks.schema().ToString().c_str());
  std::printf("%lld broadcasts in %lld chunks\n",
              static_cast<long long>(tracks.total_cells()),
              static_cast<long long>(tracks.num_chunks()));

  // Selection around the first synthetic port (a dense, skewed region).
  const int64_t port_cells = exec::FilterBoxCount(
      tracks, exec::CellBox{{0, 3, 3}, {7, 9, 9}});
  std::printf("broadcasts near port 1: %lld of %lld (%.0f%%)\n",
              static_cast<long long>(port_cells),
              static_cast<long long>(tracks.total_cells()),
              100.0 * static_cast<double>(port_cells) /
                  static_cast<double>(tracks.total_cells()));

  // Join with the vessel registry: which broadcasts come from tankers?
  std::unordered_set<int64_t> tanker_ids;
  for (int64_t ship = 0; ship < 300; ship += 7) tanker_ids.insert(ship);
  const int64_t tanker_broadcasts =
      exec::AttrJoinCount(tracks, /*attr=ship_id*/ 1, tanker_ids);
  std::printf("broadcasts from registry-flagged tankers: %lld\n",
              static_cast<long long>(tanker_broadcasts));

  // Statistics: coarse-grained density map of track counts.
  const auto density = exec::GroupBySum(tracks, {8, 8, 8}, /*attr=speed*/ 0);
  std::printf("coarse density map: %zu occupied coarse cells\n",
              density.size());

  // Modeling: kNN distance — small near ports, large in open water.
  const auto knn = exec::KnnAverageDistance(tracks, /*k=*/5, /*samples=*/32,
                                            /*seed=*/3);
  if (knn.ok()) {
    std::printf("mean distance to 5 nearest tracks: %.2f cells\n", *knn);
  }

  std::printf("\n== Part B: paper-scale elasticity under skew ==\n\n");
  workload::AisWorkload ais;
  for (const auto kind : {core::PartitionerKind::kRoundRobin,
                          core::PartitionerKind::kKdTree}) {
    workload::RunnerConfig cfg;
    cfg.partitioner = kind;
    cfg.initial_nodes = 2;
    cfg.nodes_per_scaleout = 2;
    cfg.max_nodes = 8;
    workload::WorkloadRunner runner(cfg);
    const auto r = runner.Run(ais);
    std::printf("%s:\n", core::PartitionerKindName(kind));
    std::printf(
        "  balance RSD %.0f%%, reorg %.1f min (%.0f GB moved), SPJ %.1f "
        "min,\n  science %.1f min, Eq.1 cost %.1f node-hours\n",
        r.mean_rsd() * 100.0, r.Sum(&workload::CycleMetrics::reorg_minutes),
        r.Sum(&workload::CycleMetrics::moved_gb),
        r.Sum(&workload::CycleMetrics::spj_minutes),
        r.Sum(&workload::CycleMetrics::science_minutes), r.cost_node_hours());
  }
  std::printf(
      "\nThe baseline balances storage almost perfectly but scatters every\n"
      "port's neighborhood across the cluster; the K-d Tree accepts skewed\n"
      "loads in exchange for spatial locality, winning the science suite\n"
      "(and the kNN query in particular — see bench_fig7_knn).\n");
  return 0;
}

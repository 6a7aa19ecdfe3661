// Figure 6: join duration for unskewed data — the MODIS vegetation-index
// join over the most recent day of measurements, per workload cycle, for
// every partitioner — plus the real join execution layer: the morsel-
// parallel radix-partitioned rank-key joins (exec/join.h) timed against
// their sequential forms and against the retired unordered_set join.
//
// Emits BENCH_fig6_join.json:
//   * fig6_<partitioner>_join_minutes — mean simulated join minutes per
//     cycle for each partitioner (deterministic model output, gated tight
//     by ci/check_bench_trend.py as a lower-better _minutes metric);
//   * dim_join/attr_join seq/par ns-per-probe-cell entries and the legacy
//     dim_join_set entry (wall-clock, machine-normalized by the checker);
//   * join_parallel_speedup — the gate target for the committed
//     floor_join_parallel_speedup (>= 2x): the best join speedup at full
//     hardware concurrency. Meaningful only where parallelism exists, so
//     on machines with fewer than 4 hardware threads the gate metric is
//     clamped to the floor (flagged by join_gate_vacuous = 1); the raw
//     *_parallel_ratio metrics always carry the honest measurements.
//
// Before any timing counts, every parallel/partitioned join result is
// asserted identical to the sequential set-based specification across
// thread counts and partition-bit settings — the join determinism
// contract at bench scale.
//
// Build & run:  ./build/bench_fig6_join

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench/bench_util.h"
#include "exec/join.h"
#include "util/strings.h"
#include "util/thread_pool.h"
#include "workload/modis.h"
#include "workload/runner.h"
#include "workload/sample_data.h"

using namespace arraydb;

namespace {

// Defeats dead-code elimination across timed runs.
volatile double g_sink = 0.0;

// The CI floor: the best join speedup at full hardware concurrency must
// stay at least this on >= 4-thread machines.
constexpr double kRequiredJoinSpeedup = 2.0;
constexpr int kMinThreadsForGate = 4;

/// Minimum wall time per item over `reps` runs of fn().
template <typename Fn>
double MinNsPerItem(int reps, int64_t items, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    g_sink = g_sink + fn();
    const auto elapsed = std::chrono::steady_clock::now() - start;
    const double ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
            .count());
    best = std::min(best, ns / static_cast<double>(items));
  }
  return best;
}

exec::ExecContext JOpts(int threads,
                        int bits = exec::kDefaultJoinPartitionBits) {
  exec::ExecContext opts;
  opts.data_plane_threads = threads;
  opts.join_partition_bits = bits;
  return opts;
}

/// "Consistent Hash" -> "consistent_hash", "Incr. Quadtree" ->
/// "incr_quadtree": JSON metric names stay shell- and checker-friendly.
std::string MetricName(const std::string& partitioner) {
  std::string out;
  bool pending_sep = false;
  for (const char c : partitioner) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      if (pending_sep && !out.empty()) out += '_';
      pending_sep = false;
      out += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    } else {
      pending_sep = true;
    }
  }
  return out;
}

}  // namespace

int main() {
  std::printf(
      "Figure 6: Join duration for unskewed data (MODIS vegetation index\n"
      "over the most recent day), minutes per workload cycle.\n"
      "(paper reference: SIGMOD'14 Figure 6)\n\n");

  bench::JsonBenchWriter writer;

  workload::ModisWorkload modis;
  std::map<std::string, std::vector<double>> series;
  for (const auto kind : core::AllPartitionerKinds()) {
    workload::WorkloadRunner runner(bench::PartitionerExperimentConfig(kind));
    const auto result = runner.Run(modis);
    auto& row = series[core::PartitionerKindName(kind)];
    for (const auto& cycle : result.cycles) {
      for (const auto& [name, minutes] : cycle.query_minutes) {
        if (name == workload::ModisWorkload::kJoinQueryName) {
          row.push_back(minutes);
        }
      }
    }
  }

  std::vector<size_t> widths = {16};
  std::vector<std::string> header = {"Partitioner"};
  for (int c = 1; c <= modis.num_cycles(); ++c) {
    widths.push_back(5);
    header.push_back(util::StrFormat("c%d", c));
  }
  bench::Row(header, widths);
  bench::Rule(16 + 7 * static_cast<size_t>(modis.num_cycles()));

  double append_mean = 0.0;
  double others_mean = 0.0;
  int others = 0;
  for (const auto kind : core::AllPartitionerKinds()) {
    const std::string name = core::PartitionerKindName(kind);
    const auto& row = series[name];
    std::vector<std::string> cells = {name};
    double sum = 0.0;
    for (const double m : row) {
      cells.push_back(util::StrFormat("%.2f", m));
      sum += m;
    }
    bench::Row(cells, widths);
    const double mean = sum / static_cast<double>(row.size());
    writer.AddMetric("fig6_" + MetricName(name) + "_join_minutes", mean);
    if (kind == core::PartitionerKind::kAppend) {
      append_mean = mean;
    } else {
      others_mean += mean;
      ++others;
    }
  }
  bench::Rule(16 + 7 * static_cast<size_t>(modis.num_cycles()));
  std::printf(
      "Append averages %.1f min per join vs %.1f min for the other schemes\n"
      "— the paper's unstable Append behaviour: the joined (most recent)\n"
      "chunks sit on only one or two hosts, so the join never gains\n"
      "parallelism as nodes are added, while every other scheme's latency\n"
      "falls with cluster growth because the day's chunks spread over all\n"
      "nodes. The non-splitting schemes (Consistent Hash, Uniform Range)\n"
      "show the paper's slight dip once the host count reaches six.\n\n",
      append_mean, others_mean / others);

  // -- The real join execution layer ---------------------------------------

  const int hw_threads = util::ResolveThreadCount(0);
  const bool gate_active = hw_threads >= kMinThreadsForGate;
  std::printf("radix-partitioned rank-key joins vs. sequential (%d hardware "
              "threads)%s\n\n",
              hw_threads,
              gate_active ? ""
                          : " — fewer than 4 threads, speedup gate vacuous");

  // A small build band vs. a much larger probe band: the morsel-parallel
  // probe dominates, the shape the radix join is built for.
  const array::Array build_band =
      workload::MakeModisBand(/*days=*/2, /*lon_cells=*/256,
                              /*lat_cells=*/128, /*seed=*/7);
  const array::Array probe_band =
      workload::MakeModisBand(/*days=*/12, /*lon_cells=*/256,
                              /*lat_cells=*/128, /*seed=*/9);
  const int64_t probe_cells = probe_band.total_cells();
  std::printf("build: %lld cells, probe: %lld cells\n\n",
              static_cast<long long>(build_band.total_cells()),
              static_cast<long long>(probe_cells));

  // Keys for the attribute join: a band of radiance values.
  std::unordered_set<int64_t> attr_keys;
  for (int64_t k = 0; k <= 200; ++k) attr_keys.insert(k);

  // Determinism first: the radix join must reproduce the set-based
  // specification exactly at every thread count and partition setting.
  const int64_t dim_want =
      exec::internal::DimJoinCountBySet(build_band, probe_band);
  for (const int threads : {1, 0}) {
    for (const int bits : {0, 4, 8}) {
      if (exec::DimJoinCount(build_band, probe_band, JOpts(threads, bits)) !=
          dim_want) {
        std::fprintf(stderr,
                     "FAIL: DimJoinCount(threads=%d, bits=%d) != set spec\n",
                     threads, bits);
        return 1;
      }
    }
  }
  const int64_t attr_want =
      exec::AttrJoinCount(probe_band, 1, attr_keys, JOpts(1));
  for (const int threads : {1, 0}) {
    for (const int bits : {0, 4, 8}) {
      if (exec::AttrJoinCount(probe_band, 1, attr_keys,
                              JOpts(threads, bits)) != attr_want) {
        std::fprintf(stderr,
                     "FAIL: AttrJoinCount(threads=%d, bits=%d) not "
                     "invariant\n",
                     threads, bits);
        return 1;
      }
    }
  }
  std::printf("determinism: dim join = %lld, attr join = %lld at every "
              "(threads, partition bits)\n\n",
              static_cast<long long>(dim_want),
              static_cast<long long>(attr_want));

  double best_speedup = 0.0;
  const auto record = [&writer, &best_speedup](const char* name,
                                               double seq_ns, double par_ns) {
    writer.Add({std::string(name) + "/seq", seq_ns,
                seq_ns > 0 ? 1e9 / seq_ns : 0.0});
    writer.Add({std::string(name) + "/par", par_ns,
                par_ns > 0 ? 1e9 / par_ns : 0.0});
    const double speedup = par_ns > 0.0 ? seq_ns / par_ns : 1.0;
    // "_ratio", not "_speedup": per-join values are informational; only
    // the best-of-suite gate metric below is enforced directionally.
    writer.AddMetric(std::string(name) + "_parallel_ratio", speedup);
    best_speedup = std::max(best_speedup, speedup);
    std::printf("%-14s %9.3f ns/cell seq  %9.3f ns/cell par  %5.2fx\n",
                name, seq_ns, par_ns, speedup);
  };

  constexpr int kReps = 7;
  record("dim_join",
         MinNsPerItem(kReps, probe_cells,
                      [&] {
                        return static_cast<double>(exec::DimJoinCount(
                            build_band, probe_band, JOpts(1)));
                      }),
         MinNsPerItem(kReps, probe_cells, [&] {
           return static_cast<double>(
               exec::DimJoinCount(build_band, probe_band, JOpts(0)));
         }));
  record("attr_join",
         MinNsPerItem(kReps, probe_cells,
                      [&] {
                        return static_cast<double>(exec::AttrJoinCount(
                            probe_band, 1, attr_keys, JOpts(1)));
                      }),
         MinNsPerItem(kReps, probe_cells, [&] {
           return static_cast<double>(
               exec::AttrJoinCount(probe_band, 1, attr_keys, JOpts(0)));
         }));

  // The retired set join, timed as the "seed" reference: the radix join's
  // sequential form should already beat it (no per-cell Coordinates
  // allocation, no vector hashing); the ratio is informational.
  const double set_ns = MinNsPerItem(kReps, probe_cells, [&] {
    return static_cast<double>(
        exec::internal::DimJoinCountBySet(build_band, probe_band));
  });
  writer.Add({"dim_join_set/seq", set_ns, set_ns > 0 ? 1e9 / set_ns : 0.0});
  const auto* radix_seq = writer.Find("dim_join/seq");
  const double radix_vs_set =
      radix_seq && radix_seq->ns_per_op > 0.0 ? set_ns / radix_seq->ns_per_op
                                              : 1.0;
  writer.AddMetric("dim_join_radix_vs_set_ratio", radix_vs_set);
  std::printf("%-14s %9.3f ns/cell seq  (radix seq is %.2fx faster)\n",
              "dim_join_set", set_ns, radix_vs_set);

  // The gate metric: best join speedup at full concurrency, clamped to
  // the floor (and flagged vacuous) on machines below the thread floor.
  const double gate_speedup =
      gate_active ? best_speedup
                  : std::max(best_speedup, kRequiredJoinSpeedup);
  writer.AddMetric("join_parallel_speedup", gate_speedup);
  writer.AddMetric("floor_join_parallel_speedup", kRequiredJoinSpeedup);
  writer.AddMetric("join_gate_vacuous", gate_active ? 0.0 : 1.0);
  writer.AddMetric("hardware_threads", static_cast<double>(hw_threads));
  std::printf("\nbest join speedup %.2fx (gate metric %.2fx%s)\n",
              best_speedup, gate_speedup, gate_active ? "" : ", vacuous");

  if (!writer.WriteFile("BENCH_fig6_join.json")) {
    std::fprintf(stderr, "failed to write BENCH_fig6_join.json\n");
    return 1;
  }
  std::printf("Wrote BENCH_fig6_join.json\n");

  // The acceptance property this bench exists to demonstrate.
  if (gate_active && best_speedup < kRequiredJoinSpeedup) {
    std::fprintf(stderr,
                 "FAIL: best join speedup only %.2fx sequential "
                 "(>= %.0fx required on >= %d-thread machines)\n",
                 best_speedup, kRequiredJoinSpeedup, kMinThreadsForGate);
    return 1;
  }
  return 0;
}

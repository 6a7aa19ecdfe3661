// Blocking vs. overlapped reorganization on the AIS workload (§6.2 setup,
// Hilbert Curve partitioner): the incremental reorganization engine slices
// each scale-out's MovePlan into bandwidth-budgeted increments and, under
// the overlapped schedule, folds the cycle's query workload into the
// migration window via dual-residency routing.
//
// Emits BENCH_reorg.json with machine-independent simulated-minute metrics
// (the CI trend check consumes them).

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "bench/bench_util.h"
#include "util/strings.h"
#include "workload/ais.h"
#include "workload/runner.h"

using namespace arraydb;
using workload::CycleMetrics;

namespace {

workload::RunResult RunSchedule(workload::ReorgSchedule schedule,
                                double increment_gb) {
  workload::RunnerConfig cfg = bench::PartitionerExperimentConfig(
      core::PartitionerKind::kHilbertCurve);
  cfg.reorg.schedule = schedule;
  cfg.reorg.increment_gb = increment_gb;
  workload::AisWorkload ais;
  return workload::WorkloadRunner(cfg).Run(ais);
}

// Ingest-heavy staircase setup for the drain-vs-arbitrated comparison: a
// bandwidth-constrained cluster (t = 1 min/GB) ingesting 2.5x the standard
// AIS volume under the leading-staircase policy, so migration traffic
// actually competes with inserts for link time.
workload::RunResult RunStaircase(workload::ReorgSchedule schedule) {
  workload::RunnerConfig cfg = bench::PartitionerExperimentConfig(
      core::PartitionerKind::kHilbertCurve);
  cfg.policy = workload::ScaleOutPolicy::kStaircase;
  cfg.max_nodes = 64;  // The staircase decides on its own.
  cfg.reorg.schedule = schedule;
  cfg.cost_params.net_minutes_per_gb = 1.0;
  workload::AisConfig heavy;
  heavy.gb_per_month = 25.0;  // ~1 TB over the 10 quarterly cycles.
  workload::AisWorkload ais(heavy);
  return workload::WorkloadRunner(cfg).Run(ais);
}

}  // namespace

int main() {
  std::printf(
      "Incremental reorganization: blocking vs. overlapped cycles on AIS\n"
      "(Hilbert Curve partitioner, 2->8 nodes, 8 GB migration "
      "increments).\n\n");

  const double kIncrementGb = 8.0;
  const auto blocking =
      RunSchedule(workload::ReorgSchedule::kBlocking, kIncrementGb);
  const auto overlapped =
      RunSchedule(workload::ReorgSchedule::kOverlapped, kIncrementGb);

  const std::vector<size_t> widths = {13, 11, 10, 11, 11, 10, 9};
  bench::Row({"Mode", "insert", "reorg", "queries", "elapsed", "saved",
              "incr"},
             widths);
  bench::Row({"", "(min)", "(min)", "(min)", "(min)", "(min)", ""}, widths);
  bench::Rule(84);
  const auto row = [&](const char* name, const workload::RunResult& r) {
    bench::Row(
        {name, util::StrFormat("%.1f", r.Sum(&CycleMetrics::insert_minutes)),
         util::StrFormat("%.1f", r.Sum(&CycleMetrics::reorg_minutes)),
         util::StrFormat("%.1f", r.total_benchmark_minutes()),
         util::StrFormat("%.1f", r.Sum(&CycleMetrics::elapsed_minutes)),
         util::StrFormat("%.1f", r.Sum(&CycleMetrics::overlap_saved_minutes)),
         util::StrFormat("%d", r.Sum(&CycleMetrics::reorg_increments))},
        widths);
  };
  row("blocking", blocking);
  row("overlapped", overlapped);
  bench::Rule(84);

  const double overlapped_elapsed =
      overlapped.Sum(&CycleMetrics::elapsed_minutes);
  const double speedup = blocking.total_workload_minutes() / overlapped_elapsed;
  std::printf(
      "Overlapped cycles run %.2fx faster end to end: migration increments\n"
      "execute behind the query workload (dual-residency routing keeps\n"
      "mid-reorg results bit-identical to a quiesced cluster).\n",
      speedup);

  // Per-cycle trajectory of the overlapped run.
  std::printf("\nOverlapped per-cycle trajectory:\n");
  for (const auto& m : overlapped.cycles) {
    if (m.chunks_moved == 0) continue;
    std::printf(
        "  cycle %2d: %5.1f GB in %2d increments, reorg %5.1f min, "
        "saved %5.1f min\n",
        m.cycle, m.moved_gb, m.reorg_increments, m.reorg_minutes,
        m.overlap_saved_minutes);
  }

  // Drained-vs-arbitrated migration under an ingest-heavy staircase: the
  // whole plan drained in its scale-out cycle at fixed 8 GB increments
  // (kOverlapped), and per-cycle grants from CostModel::Arbitrate (kPaced).
  std::printf(
      "\nMigration/ingest bandwidth arbitration (ingest-heavy AIS, "
      "staircase policy):\n");
  const auto fixed_drain = RunStaircase(workload::ReorgSchedule::kOverlapped);
  const auto arbitrated = RunStaircase(workload::ReorgSchedule::kPaced);
  const std::vector<size_t> awidths = {13, 11, 11, 11, 10, 8};
  bench::Row({"Budget", "stall", "elapsed", "moved", "forced", "incr"},
             awidths);
  bench::Row({"", "(min)", "(min)", "(GB)", "drains", ""}, awidths);
  bench::Rule(74);
  const auto arow = [&](const char* name, const workload::RunResult& r) {
    const double stall = r.Sum(&CycleMetrics::ingest_stall_minutes);
    const int forced_drains = r.Sum(
        [](const CycleMetrics& m) { return int{m.reorg_forced_drain}; });
    bench::Row({name, util::StrFormat("%.1f", stall),
                util::StrFormat("%.1f", r.Sum(&CycleMetrics::elapsed_minutes)),
                util::StrFormat("%.1f", r.Sum(&CycleMetrics::moved_gb)),
                util::StrFormat("%d", forced_drains),
                util::StrFormat("%d", r.Sum(&CycleMetrics::reorg_increments))},
               awidths);
  };
  arow("fixed-drain", fixed_drain);
  arow("arbitrated", arbitrated);
  bench::Rule(74);
  std::printf(
      "Arbitrated budgets pace migration just-in-time for the staircase\n"
      "deadline, hiding it behind the query window instead of stalling the\n"
      "ingest path.\n");

  const double fixed_stall =
      fixed_drain.Sum(&CycleMetrics::ingest_stall_minutes);
  const double arbitrated_stall =
      arbitrated.Sum(&CycleMetrics::ingest_stall_minutes);
  bench::JsonBenchWriter writer;
  writer.AddMetric("blocking_total_minutes",
                   blocking.total_workload_minutes());
  // The blocking schedule runs on the incremental engine, so its elapsed
  // total is the incremental total.
  writer.AddMetric("incremental_total_minutes",
                   blocking.Sum(&CycleMetrics::elapsed_minutes));
  writer.AddMetric("overlapped_total_minutes", overlapped_elapsed);
  writer.AddMetric("overlap_saved_minutes",
                   overlapped.Sum(&CycleMetrics::overlap_saved_minutes));
  writer.AddMetric("overlap_speedup_x", speedup);
  writer.AddMetric(
      "reorg_increments",
      static_cast<double>(overlapped.Sum(&CycleMetrics::reorg_increments)));
  writer.AddMetric("moved_gb", overlapped.Sum(&CycleMetrics::moved_gb));
  writer.AddMetric("fixed_ingest_stall_minutes", fixed_stall);
  writer.AddMetric("arbitrated_ingest_stall_minutes", arbitrated_stall);
  writer.AddMetric("arbitration_stall_reduction_x",
                   fixed_stall / std::max(arbitrated_stall, 1.0));
  writer.AddMetric("arbitrated_elapsed_minutes",
                   arbitrated.Sum(&CycleMetrics::elapsed_minutes));
  if (!writer.WriteFile("BENCH_reorg.json")) {
    std::fprintf(stderr, "failed to write BENCH_reorg.json\n");
    return 1;
  }
  std::printf("\nWrote BENCH_reorg.json\n");

  // The acceptance properties this bench exists to demonstrate.
  if (!(overlapped_elapsed < blocking.total_workload_minutes())) {
    std::fprintf(stderr,
                 "FAIL: overlapped elapsed (%.2f) not below blocking "
                 "(%.2f)\n",
                 overlapped_elapsed, blocking.total_workload_minutes());
    return 1;
  }
  if (!(arbitrated_stall < fixed_stall)) {
    std::fprintf(stderr,
                 "FAIL: arbitrated ingest stall (%.2f) not below the fixed "
                 "8 GB budget's (%.2f)\n",
                 arbitrated_stall, fixed_stall);
    return 1;
  }
  return 0;
}

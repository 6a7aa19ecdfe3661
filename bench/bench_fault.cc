// Fault-recovery overhead under chaos: the §6.2 capacity-trigger AIS run
// with a seeded fault schedule — transient transfer failures retrying under
// capped backoff, slow copies dilating increments, and two scheduled
// destination-node deaths forcing replans onto the surviving new nodes —
// compared against the identical fault-free run.
//
// Everything is simulated virtual time from the deterministic cost model,
// so the recovery-overhead ratio is machine-independent and gated as a hard
// ceiling in CI (BENCH_fault.json, ceiling_recovery_overhead_ratio), and
// the replan success rate as a hard floor (floor_replan_success_rate).

#include <cstdio>
#include <cstdlib>

#include "bench/bench_util.h"
#include "util/strings.h"
#include "workload/ais.h"
#include "workload/runner.h"

using namespace arraydb;
using workload::CycleMetrics;

namespace {

workload::RunnerConfig ChaosConfig(bool faults) {
  workload::RunnerConfig cfg = bench::PartitionerExperimentConfig(
      core::PartitionerKind::kConsistentHash);
  cfg.reorg.schedule = workload::ReorgSchedule::kOverlapped;
  if (faults) {
    cfg.fault.enabled = true;
    cfg.fault.plan.seed = 17;
    // Rare checksum failures — a transient fails the *whole* slice attempt,
    // and AIS slices carry ~500 moves, so the per-move rate must sit near
    // 1/moves to model occasional retries rather than certain exhaustion.
    // Frequent slow copies dilate every plan. The node death hits node 7 —
    // the last node any scale-out adds — so the final migration replans
    // onto its surviving sibling while no later plan ever *sources* from
    // the dead node (source loss is out of the fault model's scope:
    // unrecoverable without replication).
    cfg.fault.plan.transient_failure_rate = 0.0005;
    cfg.fault.plan.slow_copy_rate = 0.3;
    cfg.fault.plan.slow_copy_dilation = 2.0;
    cfg.fault.plan.node_deaths.push_back({0.0, 7});
  }
  return cfg;
}

workload::RunResult RunLeg(bool faults) {
  workload::AisWorkload ais;
  return workload::WorkloadRunner(ChaosConfig(faults)).Run(ais);
}

}  // namespace

int main() {
  std::printf(
      "Fault recovery overhead: seeded chaos (transient failures + slow\n"
      "copies + destination-node deaths) vs. the fault-free AIS run.\n\n");

  const auto clean = RunLeg(/*faults=*/false);
  const auto chaos = RunLeg(/*faults=*/true);

  // Determinism: the same seed must replay the identical recovery
  // trajectory, bit for bit.
  const auto replay = RunLeg(/*faults=*/true);
  if (chaos.cycles != replay.cycles) {
    std::fprintf(stderr, "FAIL: chaos run is not deterministic\n");
    return 1;
  }

  // Replan success: every cycle whose migration observed a node death or
  // replanned must have completed (not been abandoned).
  int fault_cycles = 0;
  int recovered_cycles = 0;
  for (const auto& cycle : chaos.cycles) {
    if (cycle.faults.node_deaths > 0 || cycle.faults.replans > 0) {
      fault_cycles += 1;
      if (cycle.reorgs_abandoned == 0) recovered_cycles += 1;
    }
  }
  const reorg::FaultCounts faults = chaos.Sum(&CycleMetrics::faults);
  const int reorgs_abandoned = chaos.Sum(&CycleMetrics::reorgs_abandoned);
  const double replan_success_rate =
      fault_cycles > 0
          ? static_cast<double>(recovered_cycles) / fault_cycles
          : 1.0;
  const double recovery_overhead_ratio =
      chaos.Sum(&CycleMetrics::recovery_overhead_minutes) /
      std::max(clean.Sum(&CycleMetrics::reorg_minutes), 1e-9);

  const std::vector<size_t> widths = {10, 9, 9, 8, 8, 8, 8, 9};
  bench::Row({"Run", "reorg", "recovery", "faults", "retries", "replans",
              "aborts", "elapsed"},
             widths);
  bench::Row({"", "(min)", "(min)", "", "", "", "", "(min)"}, widths);
  bench::Rule(86);
  const auto row = [&](const char* name, const workload::RunResult& r) {
    const reorg::FaultCounts f = r.Sum(&CycleMetrics::faults);
    bench::Row(
        {name, util::StrFormat("%.1f", r.Sum(&CycleMetrics::reorg_minutes)),
         util::StrFormat("%.1f",
                         r.Sum(&CycleMetrics::recovery_overhead_minutes)),
         util::StrFormat("%d", static_cast<int>(f.injected())),
         util::StrFormat("%d", static_cast<int>(f.retries)),
         util::StrFormat("%d", static_cast<int>(f.replans)),
         util::StrFormat("%d", r.Sum(&CycleMetrics::reorg_aborts)),
         util::StrFormat("%.1f", r.Sum(&CycleMetrics::elapsed_minutes))},
        widths);
  };
  row("clean", clean);
  row("chaos", chaos);
  bench::Rule(86);
  std::printf(
      "Recovery overhead is %.1f%% of the fault-free migration bill;\n"
      "%d/%d death-affected migrations replanned onto survivors.\n",
      100.0 * recovery_overhead_ratio, recovered_cycles, fault_cycles);

  bench::JsonBenchWriter writer;
  writer.AddMetric("clean_reorg_minutes",
                   clean.Sum(&CycleMetrics::reorg_minutes));
  writer.AddMetric("chaos_reorg_minutes",
                   chaos.Sum(&CycleMetrics::reorg_minutes));
  writer.AddMetric("recovery_overhead_minutes",
                   chaos.Sum(&CycleMetrics::recovery_overhead_minutes));
  writer.AddMetric("recovery_overhead_ratio", recovery_overhead_ratio);
  writer.AddMetric("replan_success_rate", replan_success_rate);
  writer.AddMetric("faults_injected", static_cast<double>(faults.injected()));
  writer.AddMetric("retries", static_cast<double>(faults.retries));
  writer.AddMetric("replans", static_cast<double>(faults.replans));
  writer.AddMetric("node_deaths", static_cast<double>(faults.node_deaths));
  writer.AddMetric("reorg_aborts",
                   static_cast<double>(chaos.Sum(&CycleMetrics::reorg_aborts)));
  writer.AddMetric("reorgs_abandoned", static_cast<double>(reorgs_abandoned));
  if (!writer.WriteFile("BENCH_fault.json")) {
    std::fprintf(stderr, "failed to write BENCH_fault.json\n");
    return 1;
  }
  std::printf("\nWrote BENCH_fault.json\n");

  // Acceptance: chaos actually happened, every affected migration
  // recovered, and the run still reached the full testbed.
  if (faults.injected() <= 0 || faults.retries <= 0 || faults.replans < 1) {
    std::fprintf(stderr, "FAIL: the chaos schedule injected no faults\n");
    return 1;
  }
  if (reorgs_abandoned != 0 || replan_success_rate < 1.0) {
    std::fprintf(stderr,
                 "FAIL: %d reorganizations abandoned (replan success %.2f)\n",
                 reorgs_abandoned, replan_success_rate);
    return 1;
  }
  if (chaos.final_nodes != clean.final_nodes) {
    std::fprintf(stderr, "FAIL: chaos changed the scale-out trajectory\n");
    return 1;
  }
  return 0;
}

// Multi-tenant serving under mixed heavy traffic: interactive point
// queries share the cluster with concurrent batch analytics while an
// arbitrated migration drains in the background (ingest-heavy AIS
// staircase, §6.2 setup). Compares the serving layer's admission +
// priority tiers + morsel-style time slicing against a single-queue FIFO
// baseline on interactive tail latency.
//
// Latencies are simulated milliseconds from the deterministic virtual-time
// SessionServer, so the numbers are machine-independent and the
// interactive p99 can be gated as a hard ceiling in CI. Emits
// BENCH_serving.json.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "bench/bench_util.h"
#include "serve/serve.h"
#include "util/strings.h"
#include "workload/ais.h"
#include "workload/runner.h"

using namespace arraydb;
using workload::CycleMetrics;

namespace {

// The ingest-heavy staircase configuration from bench_reorg's arbitration
// experiment (bandwidth-constrained cluster, 2.5x AIS volume) with the
// serving scenario enabled — the heaviest sustained mix the runner can
// stage: batch suites + interactive stream + ingest + paced migration.
workload::RunResult RunServing(const serve::SchedulerPolicy& policy,
                               bool bounded_admission) {
  workload::RunnerConfig cfg = bench::PartitionerExperimentConfig(
      core::PartitionerKind::kHilbertCurve);
  cfg.policy = workload::ScaleOutPolicy::kStaircase;
  cfg.max_nodes = 64;
  cfg.reorg.schedule = workload::ReorgSchedule::kPaced;
  cfg.ingest.threads = 0;
  cfg.cost_params.net_minutes_per_gb = 1.0;
  cfg.serving.enabled = true;
  cfg.serving.policy = policy;
  if (!bounded_admission) {
    // The FIFO baseline admits everything: one unbounded queue, so the two
    // arms serve the identical request population and the comparison is
    // purely about scheduling.
    cfg.serving.admission.max_session_queue = 1 << 20;
    cfg.serving.admission.max_tier_queue = 1 << 20;
    cfg.serving.admission.max_inflight_gb = 1e18;
  }
  workload::AisConfig heavy;
  heavy.gb_per_month = 25.0;
  workload::AisWorkload ais(heavy);
  return workload::WorkloadRunner(cfg).Run(ais);
}

int64_t Admitted(const workload::RunResult& r) {
  return r.Sum([](const CycleMetrics& m) { return m.serving.admitted; });
}

int64_t Rejected(const workload::RunResult& r) {
  return r.Sum([](const CycleMetrics& m) { return m.serving.rejected; });
}

}  // namespace

int main() {
  std::printf(
      "Multi-tenant serving: interactive point queries vs. concurrent batch\n"
      "suites + ingest + arbitrated migration (ingest-heavy AIS "
      "staircase).\n\n");

  const auto fifo = RunServing(serve::SchedulerPolicy::Fifo(),
                               /*bounded_admission=*/false);
  const auto served = RunServing(serve::SchedulerPolicy{},
                                 /*bounded_admission=*/true);

  // Determinism: the virtual-time machine is a pure function of the
  // submissions, so a second run must be bit-identical.
  const auto served_again = RunServing(serve::SchedulerPolicy{},
                                       /*bounded_admission=*/true);
  if (served.serving_interactive.p99_ms !=
          served_again.serving_interactive.p99_ms ||
      served.serving_interactive.p50_ms !=
          served_again.serving_interactive.p50_ms ||
      served.serving_batch.p99_ms != served_again.serving_batch.p99_ms ||
      served.cycles != served_again.cycles) {
    std::fprintf(stderr, "FAIL: serving scenario is not deterministic\n");
    return 1;
  }

  const std::vector<size_t> widths = {14, 10, 10, 10, 10, 9, 9};
  bench::Row({"Scheduler", "int p50", "int p99", "bat p50", "bat p99",
              "admit", "shed"},
             widths);
  bench::Row({"", "(ms)", "(ms)", "(ms)", "(ms)", "", ""}, widths);
  bench::Rule(84);
  const auto row = [&](const char* name, const workload::RunResult& r) {
    bench::Row({name, util::StrFormat("%.1f", r.serving_interactive.p50_ms),
                util::StrFormat("%.1f", r.serving_interactive.p99_ms),
                util::StrFormat("%.1f", r.serving_batch.p50_ms),
                util::StrFormat("%.1f", r.serving_batch.p99_ms),
                util::StrFormat("%d", static_cast<int>(Admitted(r))),
                util::StrFormat("%d", static_cast<int>(Rejected(r)))},
               widths);
  };
  row("fifo", fifo);
  row("served", served);
  bench::Rule(84);

  const double improvement =
      fifo.serving_interactive.p99_ms /
      std::max(served.serving_interactive.p99_ms, 1e-9);
  std::printf(
      "Priority tiers + time slicing cut the interactive p99 %.1fx: point\n"
      "queries preempt batch work at slice boundaries (the virtual pickup\n"
      "counter) instead of queueing behind whole suites.\n",
      improvement);

  bench::JsonBenchWriter writer;
  writer.AddMetric("p50_interactive_ms", served.serving_interactive.p50_ms);
  writer.AddMetric("p99_interactive_ms", served.serving_interactive.p99_ms);
  writer.AddMetric("p99_batch_ms", served.serving_batch.p99_ms);
  writer.AddMetric("fifo_p99_interactive_ms",
                   fifo.serving_interactive.p99_ms);
  writer.AddMetric("p99_improvement_x", improvement);
  writer.AddMetric("interactive_served",
                   static_cast<double>(served.serving_interactive.count));
  writer.AddMetric("admitted", static_cast<double>(Admitted(served)));
  writer.AddMetric("rejected", static_cast<double>(Rejected(served)));
  if (!writer.WriteFile("BENCH_serving.json")) {
    std::fprintf(stderr, "failed to write BENCH_serving.json\n");
    return 1;
  }
  std::printf("\nWrote BENCH_serving.json\n");

  // Acceptance: admission + slicing must beat the FIFO single queue on
  // interactive tail latency by at least 3x under this mix.
  if (!(improvement >= 3.0)) {
    std::fprintf(stderr,
                 "FAIL: interactive p99 improvement %.2fx below the 3x "
                 "acceptance bar (fifo %.1f ms vs served %.1f ms)\n",
                 improvement, fifo.serving_interactive.p99_ms,
                 served.serving_interactive.p99_ms);
    return 1;
  }
  if (served.serving_interactive.count <= 0) {
    std::fprintf(stderr, "FAIL: no interactive requests were served\n");
    return 1;
  }
  return 0;
}

// cycbench: wall-clock benchmark of the cyclic workload model.
//
//   cycbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--size full|tiny] [--trace-out <path>]
//
// A run (1) generates the inputs from the seed and warms up, seven times,
// reporting the median as setup_s; (2) runs the verification episode, whose
// checked results are the reference; (3) runs whole episodes for at least
// --seconds, until every reported percentile has enough samples; and
// (4) prints one JSON report line. With --trace 1 every other episode is
// traced (spans plus the telemetry registry) and the report carries the
// per-layer ledger; the untraced episodes between them give the tracing
// overhead. See README.md.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>

#include "episode.h"
#include "exec/exec_context.h"
#include "inputs.h"
#include "report.h"
#include "simd/dispatch.h"
#include "telemetry/telemetry.h"
#include "tracer.h"
#include "util/thread_pool.h"

namespace arraydb::perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  Size size = Size::kFull;
  std::string trace_out;
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "cycbench: %s\nusage: cycbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--size full|tiny] "
               "[--trace-out <path>]\n",
               why);
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) {
      *error = "missing value for " + key;
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') {
        *error = "bad --seed";
        return false;
      }
    } else if (key == "--seconds") {
      const long s = std::strtol(value.c_str(), &end, 10);
      if (*end != '\0' || s < 1 || s > 120) {
        *error = "--seconds must be 1..120";
        return false;
      }
      args->seconds = static_cast<int>(s);
    } else if (key == "--trace") {
      if (value != "0" && value != "1") {
        *error = "--trace must be 0 or 1";
        return false;
      }
      args->trace = value == "1";
    } else if (key == "--size") {
      if (value != "full" && value != "tiny") {
        *error = "--size must be full or tiny";
        return false;
      }
      args->size = value == "tiny" ? Size::kTiny : Size::kFull;
    } else if (key == "--trace-out") {
      args->trace_out = value;
    } else {
      *error = "unknown argument " + key;
      return false;
    }
  }
  if (!have_workload) {
    *error = "--workload is required";
    return false;
  }
  return true;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

int64_t Counter(const char* name) {
  return arraydb::telemetry::Registry::Global().counter(name).Value();
}

// Median of a power-of-two bucket histogram: the upper bound of the bucket
// holding the middle sample.
double HistogramP50(const char* name) {
  const auto& h = arraydb::telemetry::Registry::Global().histogram(name);
  const auto buckets = h.BucketCounts();
  const int64_t total = h.Count();
  int64_t seen = 0;
  for (int b = 0; b < arraydb::telemetry::Histogram::kBuckets; ++b) {
    seen += buckets[static_cast<size_t>(b)];
    if (total > 0 && 2 * seen >= total) {
      return static_cast<double>(
          arraydb::telemetry::Histogram::BucketUpperBound(b));
    }
  }
  return 0.0;
}

// Registry counters of one traced episode (they repeat exactly for the
// deterministic work), and the pool's median queue wait. The wait is only
// reported as context: it is a power-of-two bucket bound, so it reads the
// same on most runs, and it is 0 wherever the pool is idle.
struct RegistryCounts {
  bool captured = false;
  std::vector<std::pair<std::string, double>> values;
  double queue_wait_us_p50 = 0.0;
};

RegistryCounts CaptureRegistry() {
  static constexpr const char* kCounters[] = {
      "reorg.engine.increments",        "reorg.engine.chunks_moved",
      "reorg.engine.over_budget_increments",
      "exec.morsel.morsels_dispatched", "exec.join.build_keys",
      "exec.join.probe_cells",          "exec.join.probe_hits",
      "exec.join.set_fallbacks",        "simd.dispatch.avx2_calls",
      "simd.dispatch.scalar_calls",     "util.thread_pool.tasks_executed",
  };
  RegistryCounts counts;
  counts.captured = true;
  for (const char* name : kCounters) {
    counts.values.emplace_back(name, static_cast<double>(Counter(name)));
  }
  counts.queue_wait_us_p50 = HistogramP50("util.thread_pool.queue_wait_us");
  return counts;
}

// Set-up repetitions; setup_s is their median.
constexpr int kSetupReps = 7;
constexpr int64_t kNsPerS = 1000000000;

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }
double D(int64_t v) { return static_cast<double>(v); }
template <typename V>
int64_t Count(const V& v) {
  return static_cast<int64_t>(v.size());
}
size_t Index(QueryClass c) { return static_cast<size_t>(c); }

int Run(const Args& args) {
  const auto names = WorkloadNames();
  if (std::find(names.begin(), names.end(), args.workload) == names.end()) {
    return Usage(("unknown workload " + args.workload).c_str());
  }
  // What `nproc` reports: the CPUs this process may run on.
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  const int nproc = sched_getaffinity(0, sizeof(allowed), &allowed) == 0
                        ? std::max(1, CPU_COUNT(&allowed))
                        : 1;
  Report report;

  // -- Set-up: input generation plus a two-cycle warm-up, seven times. ------
  arraydb::telemetry::SetEnabled(false);
  Tracer tracer;
  std::vector<double> setup_s;
  std::optional<Inputs> inputs;
  // The shared pool's workers start before any pinning, so they keep the
  // process's whole CPU set; only the coordinator rotates.
  arraydb::util::ThreadPool::Shared();
  std::optional<CpuRotation> rotation(std::in_place);
  for (int rep = 0; rep < kSetupReps; ++rep) {
    rotation->Next();
    inputs.reset();
    const int64_t start = NowNs();
    inputs = MakeInputs(args.workload, args.seed, args.size);
    Samples scratch;
    const auto warm =
        RunEpisode(*inputs, std::min(inputs->spec.threads, nproc), tracer,
                   scratch, nullptr, nullptr, nullptr, /*max_cycles=*/2);
    report.attempted += warm.attempted;
    report.failed += warm.failed;
    setup_s.push_back(D(NowNs() - start) * 1e-9);
  }
  const WorkloadSpec& spec = inputs->spec;
  const int threads = std::min(spec.threads, nproc);
  // The reference runs at a different thread count whenever the machine
  // has one to offer, so the comparison covers the thread invariance.
  const int verify_threads = threads > 1 ? 1 : std::min(2, nproc);

  // -- Verification episode: the reference results. --------------------------
  Reference reference;
  EpisodeOutcome verified;
  {
    Samples scratch;
    verified = RunEpisode(*inputs, verify_threads, tracer, scratch, nullptr,
                          &reference, nullptr);
    report.attempted += verified.attempted;
    report.failed += verified.failed;
  }

  // -- Timed phase. -----------------------------------------------------------
  Samples samples;
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  std::vector<double> ingest_rate;
  std::vector<double> reorg_rate;
  std::vector<Ledger> ledgers;
  RegistryCounts registry;
  EpisodeOutcome last;
  int episodes = 0;
  const bool tiny = args.size == Size::kTiny;
  const int64_t start = NowNs();
  const int64_t deadline = start + args.seconds * kNsPerS;
  const int64_t cap =
      start + std::min(std::max(3 * args.seconds, 10), 120) * kNsPerS;
  // Whole episodes until --seconds have passed and every percentile has 10
  // samples beyond it.
  auto enough = [&] {
    if (episodes < (args.trace ? 2 : 3)) return false;
    if (tiny) return true;
    bool ok = Count(samples.class_ms[Index(QueryClass::kSelect)]) >=
                  SamplesFor(0.9) &&
              Count(samples.midreorg_ms) >= SamplesFor(0.9);
    for (const auto& v : samples.class_ms) {
      ok = ok && Count(v) >= SamplesFor(0.5);
    }
    if (args.trace) {
      ok = ok && Count(samples.plan_ms) >= SamplesFor(0.5) &&
           Count(samples.step_ms) >= SamplesFor(0.9);
    }
    return ok;
  };
  while (true) {
    const int64_t now = NowNs();
    if ((now >= deadline && enough()) || now >= cap) break;
    const bool traced = args.trace && episodes % 2 == 1;
    arraydb::telemetry::SetEnabled(traced);
    if (traced) arraydb::telemetry::Registry::Global().ResetValues();
    tracer.set_recording(traced);
    tracer.set_episode(episodes);
    const Samples before = samples;
    last = RunEpisode(*inputs, threads, tracer, samples, &reference, nullptr,
                      &*rotation);
    tracer.set_recording(false);
    arraydb::telemetry::SetEnabled(false);
    if (traced && !registry.captured) registry = CaptureRegistry();
    report.attempted += last.attempted;
    report.failed += last.failed;
    (traced ? traced_s : untraced_s).push_back(samples.episode_s.back());
    if (traced) ledgers.push_back(BuildLedger(tracer.spans(), episodes));
    ingest_rate.push_back(
        Ratio(D(samples.ingest_cells - before.ingest_cells),
              samples.ingest_s - before.ingest_s));
    reorg_rate.push_back(Ratio(D(samples.reorg_chunks - before.reorg_chunks),
                               samples.reorg_busy_s - before.reorg_busy_s));
    ++episodes;
  }
  const double timed_s = D(NowNs() - start) * 1e-9;
  const int rotated_cpus = rotation->num_cpus();
  rotation.reset();

  // -- Fingerprint. -----------------------------------------------------------
  auto& fp = report.fingerprint;
  const std::string build_type = PERFBENCH_BUILD_TYPE;
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  const auto level = arraydb::simd::ActiveLevel();
  arraydb::exec::ExecContext ctx;
  ctx.data_plane_threads = threads;
  fp.emplace_back("workload", args.workload);
  fp.emplace_back("seed", std::to_string(args.seed));
  fp.emplace_back("size", tiny ? "tiny" : "full");
  fp.emplace_back("nproc", std::to_string(nproc));
  fp.emplace_back("coordinator_cpus_rotated", std::to_string(rotated_cpus));
  fp.emplace_back("simd_active_level", arraydb::simd::ToString(level));
  fp.emplace_back("compiler", __VERSION__);
  fp.emplace_back("build_type", build_type);
  fp.emplace_back("ndebug", ndebug ? "true" : "false");
  fp.emplace_back("telemetry_compiled_in",
                  ARRAYDB_TELEMETRY_ENABLED ? "true" : "false");
  fp.emplace_back("exec_threads", std::to_string(ctx.data_plane_threads));
  fp.emplace_back("exec_morsel_grain", std::to_string(ctx.morsel_grain));
  fp.emplace_back("exec_join_partition_bits",
                  std::to_string(ctx.join_partition_bits));
  fp.emplace_back("verify_threads", std::to_string(verify_threads));
  fp.emplace_back("partitioner",
                  arraydb::core::PartitionerKindName(spec.partitioner));
  fp.emplace_back("cycles", std::to_string(inputs->cycles.size()));
  fp.emplace_back("input_cells", std::to_string(inputs->total_cells));
  fp.emplace_back("input_chunks_placed",
                  std::to_string(inputs->total_chunks_placed));
  fp.emplace_back("final_nodes", std::to_string(verified.nodes));
  fp.emplace_back("scale_outs_per_episode",
                  std::to_string(verified.scale_outs));
  fp.emplace_back("increments_per_s", std::to_string(spec.increments_per_s));
  fp.emplace_back("midreorg_selects_per_s",
                  std::to_string(spec.midreorg_selects_per_s));
  fp.emplace_back("episodes", std::to_string(episodes));
  fp.emplace_back("timed_phase_s", std::to_string(timed_s));
  auto flag_if = [&report](bool cond, const char* flag) {
    if (cond) report.flags.push_back(flag);
  };
  flag_if(build_type != "Release" || !ndebug, "non_release_build");
  flag_if(level == arraydb::simd::DispatchLevel::kScalar, "scalar_dispatch");
  flag_if(!ARRAYDB_TELEMETRY_ENABLED, "telemetry_compiled_out");
  flag_if(threads < spec.threads, "threads_clamped_to_nproc");
  flag_if(verify_threads == threads, "thread_invariance_unchecked");

  // -- End-to-end metrics. ----------------------------------------------------
  auto& e2e = report.end_to_end;
  const auto& selects = samples.class_ms[Index(QueryClass::kSelect)];
  e2e.push_back({"setup_s", Median(setup_s), "s", kSetupReps});
  e2e.push_back({"wall_s", Median(untraced_s), "s", Count(untraced_s)});
  e2e.push_back({"ingest_cells_per_s", Median(ingest_rate), "1/s",
                 Count(ingest_rate)});
  e2e.push_back({"reorg_chunks_per_s", Median(reorg_rate), "1/s",
                 Count(reorg_rate)});
  e2e.push_back(Percentile("select_ms_p50", selects, 0.5, "ms"));
  e2e.push_back(Percentile("select_ms_p90", selects, 0.9, "ms"));
  for (QueryClass c : {QueryClass::kSort, QueryClass::kJoin, QueryClass::kStats,
                       QueryClass::kWindow, QueryClass::kKnn}) {
    e2e.push_back(Percentile(std::string(ClassName(c)) + "_ms_p50",
                             samples.class_ms[Index(c)], 0.5, "ms"));
  }
  e2e.push_back(
      Percentile("midreorg_select_ms_p50", samples.midreorg_ms, 0.5, "ms"));
  e2e.push_back(
      Percentile("midreorg_select_ms_p90", samples.midreorg_ms, 0.9, "ms"));
  e2e.push_back({"peak_rss_mb", PeakRssMb(), "MB"});

  // -- Per-layer metrics. -----------------------------------------------------
  auto& pl = report.per_layer;
  const double eps = std::max(episodes, 1);
  auto add = [&pl](const std::string& name, double value, const char* unit,
                   int64_t n = 1) { pl.push_back({name, value, unit, n}); };
  add("array.insert_ns_per_cell",
      Ratio(D(samples.insert_ns), D(samples.insert_cells)), "ns",
      samples.insert_cells);
  add("array.cells", D(last.cells), "count");
  add("array.chunks", D(last.chunks), "count");
  add("array.cells_per_chunk", Ratio(D(last.cells), D(last.chunks)), "count");
  add("core.prewarm_ns_per_chunk",
      Ratio(D(samples.prewarm_ns), D(samples.placed_chunks)), "ns",
      samples.placed_chunks);
  add("core.route_ns_per_chunk",
      Ratio(D(samples.route_ns), D(samples.placed_chunks)), "ns",
      samples.placed_chunks);
  pl.push_back(Percentile("core.plan_ms_p50", samples.plan_ms, 0.5, "ms"));
  add("core.plan_chunks", D(samples.plan_chunks) / eps, "count");
  add("core.load_rsd", last.load_rsd, "ratio");
  add("cluster.lookup_ns", Ratio(D(samples.lookup_ns), D(samples.lookups)),
      "ns", samples.lookups);
  add("cluster.view_lookup_ns",
      Ratio(D(samples.view_lookup_ns), D(samples.view_lookups)), "ns",
      samples.view_lookups);
  add("cluster.routed_chunks_per_select",
      Ratio(D(samples.routed_found), D(samples.routed_selects)), "count",
      samples.routed_selects);
  pl.push_back(Percentile("reorg.begin_ms_p50", samples.begin_ms, 0.5, "ms"));
  pl.push_back(Percentile("reorg.finish_ms_p50", samples.finish_ms, 0.5, "ms"));
  pl.push_back(Percentile("reorg.step_ms_p50", samples.step_ms, 0.5, "ms"));
  pl.push_back(Percentile("reorg.step_ms_p90", samples.step_ms, 0.9, "ms"));
  add("reorg.step_us_per_chunk",
      Ratio(D(samples.step_ns) * 1e-3, D(samples.step_chunks)), "us",
      samples.step_chunks);
  for (int c = 0; c < kNumClasses; ++c) {
    const auto k = static_cast<size_t>(c);
    add(std::string("exec.") + ClassName(static_cast<QueryClass>(c)) +
            ".ns_per_cell",
        Ratio(D(samples.class_ns[k]), D(samples.class_cells[k])), "ns",
        Count(samples.class_ms[k]));
  }
  add("exec.select.chunk_survival_ratio",
      Ratio(D(samples.survived_chunks), D(samples.scanned_chunks)), "ratio");
  add("exec.select.cell_hit_ratio",
      Ratio(D(samples.hit_cells), D(samples.survivor_cells)), "ratio");
  for (const auto& [name, value] : registry.values) add(name, value, "count");
  // The ledger: medians over the traced episodes.
  auto ledger_median = [&](auto get) {
    std::vector<double> v;
    for (const auto& l : ledgers) v.push_back(get(l));
    return Median(v);
  };
  auto lookup = [](const std::map<std::string, double>& m, const char* key) {
    const auto it = m.find(key);
    return it == m.end() ? 0.0 : it->second;
  };
  const int64_t nl = Count(ledgers);
  for (const char* phase : {"ingest", "place", "reorg", "query", "idle"}) {
    const double value = ledger_median(
        [&](const Ledger& l) { return lookup(l.phase_s, phase); });
    add(std::string("phase.") + phase + "_s", value, "s", nl);
  }
  add("phase.unattributed_share",
      ledger_median([](const Ledger& l) { return l.unattributed_share; }),
      "ratio", nl);
  for (const char* layer : kLayers) {
    add(std::string("self.") + layer + "_share",
        ledger_median([&](const Ledger& l) {
          return lookup(l.self_s_by_layer, layer) / l.busy_s;
        }),
        "ratio", nl);
  }
  add("telemetry.trace_overhead_ratio",
      Ratio(Median(traced_s), Median(untraced_s)), "ratio", Count(traced_s));
  // The cost model's price beside each measured layer: measured wall
  // seconds per priced minute, per episode. An input for calibration; no
  // gain is claimed from it.
  auto& d = report.detail;
  double query_s = 0.0;
  double query_priced = 0.0;
  for (int c = 0; c < kNumClasses; ++c) {
    const auto k = static_cast<size_t>(c);
    query_s += samples.last_cycle_s[k] / eps;
    query_priced += reference.class_priced_minutes[k];
    d.push_back({std::string("costmodel.exec.") +
                     ClassName(static_cast<QueryClass>(c)) +
                     ".measured_per_priced",
                 Ratio(samples.last_cycle_s[k] / eps,
                       reference.class_priced_minutes[k]),
                 "s/min", episodes});
  }
  const double place_s = samples.place_s / eps;
  const double reorg_s = samples.reorg_busy_s / eps;
  add("costmodel.core.measured_per_priced",
      Ratio(place_s, last.insert_priced_minutes), "s/min", episodes);
  add("costmodel.reorg.measured_per_priced",
      Ratio(reorg_s, last.reorg_priced_minutes), "s/min", episodes);
  add("costmodel.exec.measured_per_priced", Ratio(query_s, query_priced),
      "s/min", episodes);
  d.push_back({"priced.insert_minutes", last.insert_priced_minutes, "min"});
  d.push_back({"priced.reorg_work_minutes", last.reorg_priced_minutes, "min"});
  d.push_back({"priced.last_cycle_query_minutes", query_priced, "min"});
  d.push_back({"measured.place_s", place_s, "s", episodes});
  d.push_back({"measured.reorg_busy_s", reorg_s, "s", episodes});
  d.push_back({"measured.reorg_paced_s", samples.reorg_s / eps, "s", episodes});
  d.push_back({"measured.last_cycle_query_s", query_s, "s", episodes});
  double worst = 0.0;
  for (const auto& l : ledgers) worst = std::max(worst, l.unattributed_share);
  d.push_back({"phase.unattributed_share_max", worst, "ratio", nl});
  d.push_back({"util.thread_pool.queue_wait_us_p50",
               registry.queue_wait_us_p50, "us"});

  if (args.trace && !args.trace_out.empty() &&
      !tracer.WriteChromeTrace(args.trace_out)) {
    std::fprintf(stderr, "cycbench: cannot write %s\n", args.trace_out.c_str());
    return 1;
  }
  for (const auto& flag : report.flags) {
    std::fprintf(stderr, "cycbench: WARNING %s\n", flag.c_str());
  }
  WriteReport(std::cout, report);
  return 0;
}

}  // namespace
}  // namespace arraydb::perfbench

int main(int argc, char** argv) {
  arraydb::perfbench::Args args;
  std::string error;
  if (!arraydb::perfbench::ParseArgs(argc, argv, &args, &error)) {
    return arraydb::perfbench::Usage(error.c_str());
  }
  return arraydb::perfbench::Run(args);
}

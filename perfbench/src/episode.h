// One episode: the whole cyclic workload run once on a fresh database.
//
// Each cycle (1) scales out first if the incoming batch would overflow the
// provisioned capacity, migrating incrementally through
// reorg::IncrementalReorgEngine while an open-loop stream of interactive
// selects keeps arriving, (2) inserts the cycle's cells, (3) places the new
// chunks, and (4) runs the cycle's query suite. Every call into the
// library is timed from outside through Timed guards; nothing goes through
// workload::WorkloadRunner or the cost-model simulator.
//
// The verification episode runs the same operations at another thread
// count and also checks each result against an independent reference; its
// results become the reference every timed episode is compared with.

#ifndef PERFBENCH_EPISODE_H_
#define PERFBENCH_EPISODE_H_

#include <sched.h>

#include <array>
#include <cstdint>
#include <map>
#include <vector>

#include "inputs.h"
#include "tracer.h"

namespace arraydb::perfbench {

/// Timings accumulated over the episodes of one run.
struct Samples {
  std::array<std::vector<double>, kNumClasses> class_ms;
  std::vector<double> midreorg_ms;
  std::vector<double> episode_s;
  // Ingest phase (insert + place) and migrations (Begin -> Finish).
  double ingest_s = 0.0;
  int64_t ingest_cells = 0;
  double reorg_s = 0.0;       // Begin -> Finish, paced.
  double reorg_busy_s = 0.0;  // Begin, Step and Finish calls only.
  int64_t reorg_chunks = 0;
  // Time that is not the system's work: waits of the paced migration (no
  // work due) and moves of the coordinator to its next CPU.
  int64_t idle_ns = 0;
  // Layer calls.
  int64_t insert_ns = 0;
  int64_t insert_cells = 0;
  int64_t prewarm_ns = 0;
  int64_t route_ns = 0;
  int64_t placed_chunks = 0;
  std::vector<double> plan_ms;
  int64_t plan_chunks = 0;
  std::vector<double> begin_ms;
  std::vector<double> finish_ms;
  std::vector<double> step_ms;
  int64_t step_ns = 0;
  int64_t step_chunks = 0;
  int64_t lookup_ns = 0;
  int64_t lookups = 0;
  int64_t view_lookup_ns = 0;
  int64_t view_lookups = 0;
  int64_t routed_found = 0;
  int64_t routed_selects = 0;
  std::array<int64_t, kNumClasses> class_ns{};
  std::array<int64_t, kNumClasses> class_cells{};
  // Useful work of span selects.
  int64_t survived_chunks = 0;
  int64_t scanned_chunks = 0;
  int64_t hit_cells = 0;
  int64_t survivor_cells = 0;
  // Wall seconds spent per phase, for the cost-model comparison.
  double place_s = 0.0;
  std::array<double, kNumClasses> last_cycle_s{};  // Queries of the last cycle.
};

/// Results of the verification episode: the reference every timed episode
/// must reproduce, and the cost model's price of the same work.
struct Reference {
  std::vector<uint64_t> results;
  std::map<int, uint64_t> midreorg;  // Key: cycle * 1000 + box.
  /// Cost-model minutes of the last cycle's queries, per class.
  std::array<double, kNumClasses> class_priced_minutes{};
};

struct EpisodeOutcome {
  int64_t attempted = 0;
  int64_t failed = 0;
  int scale_outs = 0;
  int nodes = 0;
  double load_rsd = 0.0;
  int64_t cells = 0;   // Primary array at the end.
  int64_t chunks = 0;
  double insert_priced_minutes = 0.0;
  double reorg_priced_minutes = 0.0;
};

/// Moves the calling thread (the coordinator) to the next allowed CPU on
/// each Next(), round-robin, and restores its affinity on destruction. The
/// vCPUs of a shared machine run at different speeds that drift as their
/// neighbours' load changes; rotating one workload cycle per CPU makes every
/// run sample each CPU alike instead of whichever CPU it started on.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void Next();
  int num_cpus() const { return static_cast<int>(cpus_.size()); }

 private:
  cpu_set_t original_;
  std::vector<int> cpus_;
  size_t next_ = 0;
};

/// Runs one episode over `inputs` with `threads` data-plane threads. When
/// `reference` is null this is the verification episode and `verify_out`
/// receives the reference; otherwise results are compared with it.
/// `max_cycles` < 0 runs every cycle (the warm-up runs a prefix). A
/// non-null `rotation` advances once per cycle.
EpisodeOutcome RunEpisode(const Inputs& inputs, int threads, Tracer& tracer,
                          Samples& samples, const Reference* reference,
                          Reference* verify_out, CpuRotation* rotation,
                          int max_cycles = -1);

}  // namespace arraydb::perfbench

#endif  // PERFBENCH_EPISODE_H_

// Morsel-driven parallel operator execution (§6.2.2's per-node parallel
// scan work, brought to the real data-plane operators).
//
// A MorselScheduler carves a work domain — an array's sorted chunk list, a
// FilterBoxView's span set, a CellSpanView's global cell range — into
// cache-sized morsels and dispatches them on util::ThreadPool. Workers pick
// morsels off a shared atomic counter in ascending index order, so a worker
// that finishes early immediately steals the next morsel (dynamic load
// balancing) while pickup stays chunk-major: consecutive morsels cover
// consecutive runs of the columnar storage, so each worker streams
// contiguous memory.
//
// Determinism contract (the same one the reorg copy and the SIMD
// lane-accumulation honor):
//   * The morsel decomposition is a pure function of the work domain and
//     the grain size — never of the thread count or the schedule.
//   * Each morsel computes a partial state into its own slot; no shared
//     mutable state.
//   * Partials combine through a fixed-order reduction: ascending morsel
//     index on the calling thread, after all morsels complete. The combine
//     schedule depends only on the morsel count.
// Consequently every operator built on the scheduler is bit-identical to
// its sequential form (threads = 1 executes the same morsels in the same
// order inline) and invariant across thread counts. See src/exec/README.md.

#ifndef ARRAYDB_EXEC_MORSEL_H_
#define ARRAYDB_EXEC_MORSEL_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "array/array.h"
#include "exec/exec_context.h"
#include "telemetry/telemetry.h"
#include "util/thread_pool.h"

namespace arraydb::exec {

/// Half-open [begin, end) range of work units (cells, chunks, positions).
using MorselRange = std::pair<int64_t, int64_t>;

/// The chunks of `array` that hold cells, in directory (lexicographic)
/// order: the work domain of the whole-array operators. Synthetic
/// metadata-only chunks carry no cells and are skipped.
std::vector<const array::Chunk*> NonEmptyChunks(const array::Array& array);

class MorselScheduler {
 public:
  /// Runs on context.data_plane_threads workers (resolved by
  /// util::ResolveThreadCount; 1 is exactly the sequential path). Callers
  /// carve their work domain with context.morsel_grain (checked positive
  /// here).
  explicit MorselScheduler(const ExecContext& context);

  /// Resolved worker count (>= 1).
  int threads() const { return threads_; }

  /// Carves [0, n) into contiguous morsels of ~`grain` units (the last
  /// morsel absorbs the remainder; n <= grain yields one morsel). Pure in
  /// (n, grain): identical at every thread count.
  static std::vector<MorselRange> Carve(int64_t n, int64_t grain);

  /// Carves item indices [0, weights.size()) into contiguous runs whose
  /// weight sums reach ~`grain` (for chunk lists: weights = cells per
  /// chunk, so a morsel is a cache-sized run of whole chunks). Pure in
  /// (weights, grain).
  static std::vector<MorselRange> CarveByWeight(
      const std::vector<int64_t>& weights, int64_t grain);

  /// CarveByWeight over a chunk list weighted by cells per chunk: every
  /// morsel scans ~grain cells of contiguous columnar storage.
  static std::vector<MorselRange> CarveChunks(
      const std::vector<const array::Chunk*>& chunks, int64_t grain);

  /// Runs fn(morsel_index, begin, end) for every morsel; workers pick
  /// morsels in ascending index order; blocks until all complete. fn must
  /// only write state owned by its morsel index.
  void Run(const std::vector<MorselRange>& morsels,
           const std::function<void(size_t, int64_t, int64_t)>& fn) const;

  /// Parallel reduction with the fixed-order combine: every morsel m
  /// produces a State via morsel_fn(m, begin, end); partials combine as
  /// combine(acc, std::move(partial)) in ascending morsel order on the
  /// calling thread. Bit-identical at every thread count, including 1.
  template <typename State, typename MorselFn, typename CombineFn>
  State Reduce(const std::vector<MorselRange>& morsels, State init,
               MorselFn&& morsel_fn, CombineFn&& combine) const {
    State acc = std::move(init);
    if (morsels.size() <= 1 || threads_ <= 1) {
      // Inline path: same morsels, same combine order — the parallel
      // result is defined as exactly this computation. The morsel counters
      // mirror Run()'s exactly, so exec.morsel.* totals are invariant
      // across thread counts (the telemetry face of the determinism
      // contract).
      if (!morsels.empty()) {
        TELEM_COUNTER_ADD("exec.morsel.runs", 1);
        TELEM_COUNTER_ADD("exec.morsel.morsels_dispatched",
                          static_cast<int64_t>(morsels.size()));
      }
      for (size_t m = 0; m < morsels.size(); ++m) {
        combine(acc, morsel_fn(m, morsels[m].first, morsels[m].second));
      }
      return acc;
    }
    std::vector<State> partials(morsels.size());
    Run(morsels, [&partials, &morsel_fn](size_t m, int64_t begin,
                                         int64_t end) {
      partials[m] = morsel_fn(m, begin, end);
    });
    for (auto& partial : partials) combine(acc, std::move(partial));
    return acc;
  }

 private:
  int threads_;
};

}  // namespace arraydb::exec

#endif  // ARRAYDB_EXEC_MORSEL_H_

// Reference implementations of the benchmark operators over materialized
// arrays (§3.3). These execute the actual algorithms — filtering, quantile,
// joins, group-by aggregation, windowed aggregates, k-means, kNN, regrid —
// on in-memory cell data. Tests and examples verify real answers here;
// exec::QueryEngine prices the same access patterns at paper scale.

#ifndef ARRAYDB_EXEC_OPERATORS_H_
#define ARRAYDB_EXEC_OPERATORS_H_

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "array/array.h"
#include "exec/exec_context.h"
#include "exec/join.h"
#include "util/status.h"

namespace arraydb::exec {

/// Axis-aligned box in logical cell space, inclusive on both ends.
struct CellBox {
  array::Coordinates lo;
  array::Coordinates hi;

  bool Contains(const array::Coordinates& pos) const;
};

/// Span-based selection result: for each surviving chunk, the maximal runs
/// of consecutive matching cell indices. Large selections stay
/// allocation-free at the API boundary — no Cell values are materialized;
/// consumers iterate the spans against the chunks' columnar storage.
/// Holds pointers into `array`: valid only while the array outlives the
/// view unmodified.
class FilterBoxView {
 public:
  struct ChunkSpans {
    const array::Chunk* chunk = nullptr;
    /// Half-open [begin, end) runs of matching cell indices, ascending.
    std::vector<std::pair<uint32_t, uint32_t>> spans;
  };

  /// Surviving chunks in lexicographic coordinate order.
  const std::vector<ChunkSpans>& chunks() const { return chunks_; }
  int64_t num_cells() const { return num_cells_; }
  bool empty() const { return num_cells_ == 0; }

  /// Invokes fn(chunk, cell_index) for every selected cell — chunks in
  /// lexicographic order, cells in insertion order within a chunk.
  template <typename Fn>
  void ForEachCell(Fn&& fn) const {
    for (const auto& cs : chunks_) {
      for (const auto& [begin, end] : cs.spans) {
        for (uint32_t i = begin; i < end; ++i) {
          fn(*cs.chunk, static_cast<size_t>(i));
        }
      }
    }
  }

  /// Cell adapter for callers that need materialized values; sorted by
  /// position (duplicate positions keep their chunk order).
  std::vector<array::Cell> Materialize() const;

 private:
  friend FilterBoxView FilterBoxSpans(const array::Array& array,
                                      const CellBox& box,
                                      const ExecContext& context);
  std::vector<ChunkSpans> chunks_;
  int64_t num_cells_ = 0;
};

// The scan/aggregate operators below execute morsel-parallel on
// exec::MorselScheduler under `context` (the `{}` default is sequential).
// Results are bit-identical at every thread count: morsel boundaries
// depend only on the data and the grain, and partial states combine in
// fixed morsel order (see src/exec/README.md).

/// Selection without materialization: spans of matching cells per chunk.
/// Whole chunks are pruned first (the morsel pre-filter): a skip-scan of
/// the array's sorted chunk directory over the box's chunk-coordinate
/// range finds the candidates, and one SIMD bbox test over them keeps the
/// survivors. Surviving chunks are carved into cache-sized morsels and
/// scanned linearly in columnar order with the SIMD predicate kernel.
FilterBoxView FilterBoxSpans(const array::Array& array, const CellBox& box,
                             const ExecContext& context = {});

/// Selection cardinality (COUNT(*) over the box): same pruning and
/// predicate kernel as FilterBoxSpans, with the mask reduced straight to a
/// per-morsel count (no span construction).
int64_t FilterBoxCount(const array::Array& array, const CellBox& box,
                       const ExecContext& context = {});

/// Sort benchmark: the q-quantile (0 <= q <= 1) of attribute `attr` over
/// all non-empty cells; any other q, NaN included, is InvalidArgument.
/// Extreme quantiles are min/max kernel reductions; interior quantiles
/// gather morsel-parallel and select the two order statistics with
/// nth_element instead of a full sort.
util::StatusOr<double> AttrQuantile(const array::Array& array, int attr,
                                    double q, const ExecContext& context = {});

// The join benchmarks (DimJoinCount / AttrJoinCount) moved to exec/join.h,
// included above so existing callers keep compiling.

/// Statistics benchmark: sums attribute `attr` grouped by coarse bins of
/// size `bin[d]` cells along each dimension. Returns bin-origin -> sum,
/// where a cell's bin origin is the multiple of bin[d] at or below it. An
/// origin that would lie below INT64_MIN saturates to INT64_MIN, so the
/// lowest bin of a dimension reaching down there starts at INT64_MIN.
/// Per-bin accumulation order is fixed by the morsel decomposition (chunks
/// in lexicographic order, morsel partials combined in order), so sums are
/// deterministic and thread-count invariant.
std::map<array::Coordinates, double> GroupBySum(
    const array::Array& array, const std::vector<int64_t>& bin, int attr,
    const ExecContext& context = {});

/// Complex projection benchmark: windowed average of `attr` over the
/// occupied cells within Chebyshev `radius` of `pos` (partially overlapping
/// windows yield smooth images); 0 when the window holds no cell. A
/// position stored more than once counts once, with the value of its first
/// occurrence in sorted-chunk, then storage, order. The window's cells add
/// in odd-base counter order over the offsets (dimension 0 the fastest
/// digit), so the sum is a pure function of the data. `pos` need not be
/// occupied. InvalidArgument for a bad attribute, a negative radius, a
/// position of the wrong rank, or a window volume (2r+1)^ndims that
/// overflows int64. Runs the same sort-and-sweep as WindowAverageAll,
/// sequentially: O(N log N) for N stored cells.
util::StatusOr<double> WindowAverageAt(const array::Array& array, int attr,
                                       const array::Coordinates& pos,
                                       int64_t radius);

/// Windowed average at every occupied position, sorted by position: one
/// entry per distinct position, with WindowAverageAt's duplicate rule and
/// sum order, so every entry equals WindowAverageAt at that position bit
/// for bit. No hashing: the cells are gathered, sorted by (position,
/// global index) and deduplicated, then each row (positions sharing all
/// but the last coordinate) sweeps its occupied neighbour rows with one
/// monotone cursor each. Cost: O(N log N) for the sort; per row, one
/// binary search per neighbour row prefix; per position, the window's
/// extent along the last coordinate (clipped to the data) times its
/// occupied neighbour rows. Every step is morsel-parallel and each output
/// slot is written by exactly one morsel, so the field is bit-identical
/// at every thread count and grain. The window volume must fit in int64
/// (CHECKed).
std::vector<std::pair<array::Coordinates, double>> WindowAverageAll(
    const array::Array& array, int attr, int64_t radius,
    const ExecContext& context = {});

/// Modeling benchmark (MODIS): Lloyd's k-means over arbitrary points.
struct KMeansResult {
  std::vector<std::vector<double>> centroids;
  std::vector<int> assignment;  // Cluster index per input point.
  int iterations = 0;
  double inertia = 0.0;  // Sum of squared distances to assigned centroid.
};
/// InvalidArgument for k < 1, no points, k > points.size(), or points of
/// unequal length.
util::StatusOr<KMeansResult> KMeans(
    const std::vector<std::vector<double>>& points, int k, int max_iterations,
    uint64_t seed);

/// Modeling benchmark (AIS): average Euclidean distance (in cell space) to
/// the k nearest other cells, over `samples` cells drawn uniformly from one
/// RNG stream. Each sample is an exact growing-box search over the chunk
/// directory: it scans the chunks that a Chebyshev box around the probe
/// meets, doubling the box until the k-th best distance lies inside it, so
/// it reads the chunks near the probe instead of every cell. Each sample
/// sums its k distances in ascending order. The samples run in parallel,
/// one per morsel, and their means add in sample order, so the result is
/// bit-identical at every thread count and grain.
util::StatusOr<double> KnnAverageDistance(const array::Array& array, int k,
                                          int samples, uint64_t seed,
                                          const ExecContext& context = {});

/// Regridding: coarsens the array by integer `factors` per dimension,
/// producing an array with attributes (sum of `attr`, cell count).
util::StatusOr<array::Array> Regrid(const array::Array& array,
                                    const std::vector<int64_t>& factors,
                                    int attr);

}  // namespace arraydb::exec

#endif  // ARRAYDB_EXEC_OPERATORS_H_

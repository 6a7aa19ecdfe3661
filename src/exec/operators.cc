#include "exec/operators.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <unordered_map>

#include "array/cell_span.h"
#include "exec/morsel.h"
#include "simd/scan_kernels.h"
#include "util/logging.h"
#include "util/rng.h"

namespace arraydb::exec {

bool CellBox::Contains(const array::Coordinates& pos) const {
  ARRAYDB_CHECK_EQ(pos.size(), lo.size());
  for (size_t d = 0; d < lo.size(); ++d) {
    if (pos[d] < lo[d] || pos[d] > hi[d]) return false;
  }
  return true;
}

bool CellBox::Intersects(const array::Coordinates& box_lo,
                         const array::Coordinates& box_hi) const {
  ARRAYDB_CHECK_EQ(box_lo.size(), lo.size());
  for (size_t d = 0; d < lo.size(); ++d) {
    if (box_hi[d] < lo[d] || box_lo[d] > hi[d]) return false;
  }
  return true;
}

namespace {

// The morsel pre-filter shared by the box operators: sorted non-empty
// chunks whose maintained bounding boxes (at least as tight as the schema
// extents) intersect the query box, batch-checked in one SIMD kernel call
// over a dim-major SoA.
std::vector<const array::Chunk*> BBoxSurvivors(const array::Array& array,
                                               const CellBox& box) {
  const size_t ndims = box.lo.size();
  ARRAYDB_CHECK_EQ(box.hi.size(), ndims);
  std::vector<const array::Chunk*> chunks;
  for (const array::Chunk* chunk : array.SortedChunks()) {
    if (chunk->num_cells() == 0) continue;
    ARRAYDB_CHECK_EQ(chunk->bbox_lo().size(), ndims);
    chunks.push_back(chunk);
  }
  if (chunks.empty()) return chunks;
  simd::BBoxSoA boxes;
  boxes.Resize(chunks.size(), ndims);
  for (size_t c = 0; c < chunks.size(); ++c) {
    for (size_t d = 0; d < ndims; ++d) {
      boxes.lo[d * chunks.size() + c] = chunks[c]->bbox_lo()[d];
      boxes.hi[d * chunks.size() + c] = chunks[c]->bbox_hi()[d];
    }
  }
  std::vector<uint8_t> survived(chunks.size());
  simd::BBoxIntersectMask(boxes, box.lo.data(), box.hi.data(),
                          survived.data());
  std::vector<const array::Chunk*> out;
  out.reserve(chunks.size());
  for (size_t c = 0; c < chunks.size(); ++c) {
    if (survived[c] != 0) out.push_back(chunks[c]);
  }
  return out;
}

// Cache-sized runs of whole chunks: the per-chunk cell counts weight the
// carve so every morsel scans ~grain cells of contiguous columnar storage.
std::vector<MorselRange> CarveChunks(
    const std::vector<const array::Chunk*>& chunks, int64_t grain) {
  std::vector<int64_t> weights;
  weights.reserve(chunks.size());
  for (const array::Chunk* chunk : chunks) {
    weights.push_back(static_cast<int64_t>(chunk->num_cells()));
  }
  return MorselScheduler::CarveByWeight(weights, grain);
}

}  // namespace

FilterBoxView FilterBoxSpans(const array::Array& array, const CellBox& box,
                             const ExecContext& context) {
  FilterBoxView view;
  const size_t ndims = box.lo.size();
  const std::vector<const array::Chunk*> chunks = BBoxSurvivors(array, box);
  if (chunks.empty()) return view;

  // One morsel is a run of surviving chunks; its partial is the span list
  // of those chunks, concatenated back in morsel order — the same spans,
  // in the same order, as the sequential chunk loop.
  struct Partial {
    std::vector<FilterBoxView::ChunkSpans> chunks;
    int64_t cells = 0;
  };
  const MorselScheduler scheduler(context);
  Partial merged = scheduler.Reduce(
      CarveChunks(chunks, context.morsel_grain), Partial{},
      [&](size_t, int64_t begin, int64_t end) {
        Partial partial;
        std::vector<uint8_t> mask;
        for (int64_t c = begin; c < end; ++c) {
          const array::Chunk& chunk = *chunks[static_cast<size_t>(c)];
          const size_t count = chunk.num_cells();
          mask.resize(count);
          simd::RangeMask(chunk.packed_coords().data(), count, ndims,
                          box.lo.data(), box.hi.data(), mask.data());
          FilterBoxView::ChunkSpans cs;
          cs.chunk = &chunk;
          simd::MaskToSpans(mask.data(), count, &cs.spans);
          if (cs.spans.empty()) continue;
          for (const auto& [sb, se] : cs.spans) partial.cells += se - sb;
          partial.chunks.push_back(std::move(cs));
        }
        return partial;
      },
      [](Partial& acc, Partial&& partial) {
        acc.cells += partial.cells;
        std::move(partial.chunks.begin(), partial.chunks.end(),
                  std::back_inserter(acc.chunks));
      });
  view.chunks_ = std::move(merged.chunks);
  view.num_cells_ = merged.cells;
  return view;
}

int64_t FilterBoxCount(const array::Array& array, const CellBox& box,
                       const ExecContext& context) {
  // Cardinality-only selection: same pruning and predicate kernel as
  // FilterBoxSpans, but each morsel reduces its mask straight to a count —
  // no span construction — and counts sum exactly in any order.
  const size_t ndims = box.lo.size();
  const std::vector<const array::Chunk*> chunks = BBoxSurvivors(array, box);
  if (chunks.empty()) return 0;
  const MorselScheduler scheduler(context);
  return scheduler.Reduce(
      CarveChunks(chunks, context.morsel_grain), int64_t{0},
      [&](size_t, int64_t begin, int64_t end) {
        int64_t count = 0;
        std::vector<uint8_t> mask;
        for (int64_t c = begin; c < end; ++c) {
          const array::Chunk& chunk = *chunks[static_cast<size_t>(c)];
          const size_t cells = chunk.num_cells();
          mask.resize(cells);
          simd::RangeMask(chunk.packed_coords().data(), cells, ndims,
                          box.lo.data(), box.hi.data(), mask.data());
          count += simd::MaskCount(mask.data(), cells);
        }
        return count;
      },
      [](int64_t& acc, int64_t partial) { acc += partial; });
}

std::vector<array::Cell> FilterBoxView::Materialize() const {
  std::vector<array::Cell> out;
  out.reserve(static_cast<size_t>(num_cells_));
  // Sorted chunk order (by construction) + stable sort keeps duplicate
  // positions in a deterministic relative order.
  ForEachCell([&out](const array::Chunk& chunk, size_t i) {
    out.push_back(chunk.MaterializeCell(i));
  });
  std::stable_sort(out.begin(), out.end(),
                   [](const array::Cell& a, const array::Cell& b) {
                     return array::CoordinatesLess(a.pos, b.pos);
                   });
  return out;
}

util::StatusOr<double> AttrQuantile(const array::Array& array, int attr,
                                    double q, const ExecContext& context) {
  if (attr < 0 || attr >= array.schema().num_attrs()) {
    return util::InvalidArgument("attribute index out of range");
  }
  if (!(q >= 0.0 && q <= 1.0)) {  // NaN fails too.
    return util::InvalidArgument("quantile must be in [0,1]");
  }
  const array::CellSpanView view(array);
  if (view.empty()) return util::FailedPrecondition("array is empty");
  const MorselScheduler scheduler(context);
  // The extreme quantiles are plain min/max reductions: one kernel pass per
  // chunk column, no gather, no selection. Morsel partials combine in fixed
  // order (min/max is value-exact for finite inputs; the fixed order pins
  // the one ±0.0 tie caveat the kernels document).
  if (q == 0.0 || q == 1.0) {
    struct Extreme {
      double value = 0.0;
      bool any = false;
    };
    const Extreme merged = scheduler.Reduce(
        CarveChunks(view.chunks(), context.morsel_grain), Extreme{},
        [&](size_t, int64_t begin, int64_t end) {
          Extreme partial;
          for (int64_t c = begin; c < end; ++c) {
            const auto& column =
                view.chunks()[static_cast<size_t>(c)]->attr_column(
                    static_cast<size_t>(attr));
            const double extreme =
                q == 0.0 ? simd::Min(column.data(), column.size())
                         : simd::Max(column.data(), column.size());
            partial.value = partial.any
                                ? (q == 0.0 ? std::min(partial.value, extreme)
                                            : std::max(partial.value, extreme))
                                : extreme;
            partial.any = true;
          }
          return partial;
        },
        [&](Extreme& acc, Extreme&& partial) {
          if (!partial.any) return;
          acc.value = acc.any ? (q == 0.0 ? std::min(acc.value, partial.value)
                                          : std::max(acc.value, partial.value))
                              : partial.value;
          acc.any = true;
        });
    return merged.value;
  }
  // Interior quantiles: gather the attribute column morsel-parallel (each
  // morsel copies its own slice of the global cell order, so the gathered
  // buffer is identical to the sequential GatherAttr), then select the two
  // bracketing order statistics with nth_element instead of a full sort.
  // An order statistic is a value property of the multiset, so the result
  // is bit-identical to the retired sort path. Uninitialized storage: every
  // slot is written exactly once by its morsel, so the old reserve+insert
  // path's single pass over the data is preserved.
  const size_t n = static_cast<size_t>(view.num_cells());
  const auto values = std::make_unique_for_overwrite<double[]>(n);
  scheduler.Run(
      MorselScheduler::Carve(view.num_cells(), context.morsel_grain),
      [&](size_t, int64_t begin, int64_t end) {
        view.ForEachSlice(
            begin, end,
            [&values, &begin, attr](const array::Chunk& chunk,
                                    size_t local_begin, size_t local_end) {
              const auto& column =
                  chunk.attr_column(static_cast<size_t>(attr));
              std::copy(column.begin() + static_cast<int64_t>(local_begin),
                        column.begin() + static_cast<int64_t>(local_end),
                        values.get() + begin);
              begin += static_cast<int64_t>(local_end - local_begin);
            });
      });
  const double pos = q * static_cast<double>(n - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, n - 1);
  const double frac = pos - static_cast<double>(lo);
  double* const lo_ptr = values.get() + lo;
  std::nth_element(values.get(), lo_ptr, values.get() + n);
  const double lo_value = *lo_ptr;
  // After partitioning at lo, the suffix holds exactly the elements that
  // would sort above position lo, so the next order statistic is its min.
  const double hi_value =
      hi > lo ? *std::min_element(lo_ptr + 1, values.get() + n) : lo_value;
  return lo_value * (1.0 - frac) + hi_value * frac;
}

namespace {

// Copies the i-th packed position of `chunk` into `scratch`.
inline void LoadPos(const array::Chunk& chunk, size_t i,
                    array::Coordinates& scratch) {
  const int64_t* pos = chunk.cell_pos(i);
  scratch.assign(pos, pos + chunk.num_dims());
}

}  // namespace

namespace {

// Bin origin (floor division handles negative coordinates).
inline int64_t BinOrigin(int64_t v, int64_t bin) {
  int64_t q = v / bin;
  if (v % bin != 0 && v < 0) --q;
  return q * bin;
}

}  // namespace

std::map<array::Coordinates, double> GroupBySum(
    const array::Array& array, const std::vector<int64_t>& bin, int attr,
    const ExecContext& context) {
  ARRAYDB_CHECK_EQ(bin.size(),
                   static_cast<size_t>(array.schema().num_dims()));
  ARRAYDB_CHECK_GE(attr, 0);
  ARRAYDB_CHECK_LT(attr, array.schema().num_attrs());
  for (const int64_t b : bin) ARRAYDB_CHECK_GT(b, 0);
  const size_t ndims = bin.size();
  std::vector<const array::Chunk*> chunks;
  for (const array::Chunk* chunk : array.SortedChunks()) {
    if (chunk->num_cells() != 0) chunks.push_back(chunk);
  }
  using BinMap =
      std::unordered_map<array::Coordinates, double, array::CoordinatesHash>;
  // Each morsel accumulates a private bin map over its run of sorted
  // chunks; partials merge per key in morsel order, so every bin's
  // floating-point accumulation order is a pure function of the chunk list
  // and the grain — deterministic, thread-count invariant, and (with the
  // kernels dispatch-stable) identical across scalar and AVX2 dispatch.
  const MorselScheduler scheduler(context);
  BinMap acc = scheduler.Reduce(
      CarveChunks(chunks, context.morsel_grain), BinMap{},
      [&](size_t, int64_t begin, int64_t end) {
        BinMap partial;
        array::Coordinates key(ndims);
        for (int64_t c = begin; c < end; ++c) {
          const array::Chunk& chunk = *chunks[static_cast<size_t>(c)];
          const auto& column = chunk.attr_column(static_cast<size_t>(attr));
          // Chunk-per-bin fast path: when the chunk's bounding box maps
          // into a single bin (the common case for bins at least as coarse
          // as chunks), the whole column collapses to one Sum-kernel
          // reduction.
          bool single_bin = true;
          for (size_t d = 0; d < ndims; ++d) {
            key[d] = BinOrigin(chunk.bbox_lo()[d], bin[d]);
            single_bin &= key[d] == BinOrigin(chunk.bbox_hi()[d], bin[d]);
          }
          if (single_bin) {
            // arraydb-lint: fixed-order -- one Sum-kernel call per chunk;
            // chunks visit in the scheduler's fixed morsel order.
            partial[key] += simd::Sum(column.data(), column.size());
            continue;
          }
          const int64_t* pos = chunk.packed_coords().data();
          for (size_t i = 0; i < chunk.num_cells(); ++i, pos += ndims) {
            for (size_t d = 0; d < ndims; ++d) {
              key[d] = BinOrigin(pos[d], bin[d]);
            }
            // arraydb-lint: fixed-order -- cells accumulate in columnar
            // storage order within one morsel.
            partial[key] += column[i];
          }
        }
        return partial;
      },
      [](BinMap& acc_map, BinMap&& partial) {
        // arraydb-lint: order-insensitive fixed-order -- keys are distinct
        // within one partial, and partials merge in the scheduler's fixed
        // order, so each bin's addition sequence is pinned regardless of
        // the hash iteration order here.
        for (auto& [key, sum] : partial) acc_map[key] += sum;
      });
  // arraydb-lint: ordered-extract -- std::map construction sorts by key.
  return std::map<array::Coordinates, double>(acc.begin(), acc.end());
}

namespace {

// Position -> attribute value index for window queries.
std::unordered_map<array::Coordinates, double, array::CoordinatesHash>
BuildValueIndex(const array::Array& array, int attr) {
  std::unordered_map<array::Coordinates, double, array::CoordinatesHash> index;
  index.reserve(static_cast<size_t>(array.total_cells()));
  array::Coordinates scratch;
  // Sorted chunk order: with duplicate positions (e.g. a chunk staged twice
  // mid-reorg) emplace keeps the first occurrence, so hash-order iteration
  // would make the index contents history-dependent.
  for (const array::Chunk* chunk_ptr : array.SortedChunks()) {
    const array::Chunk& chunk = *chunk_ptr;
    if (chunk.num_cells() == 0) continue;
    const auto& column = chunk.attr_column(static_cast<size_t>(attr));
    for (size_t i = 0; i < chunk.num_cells(); ++i) {
      LoadPos(chunk, i, scratch);
      index.emplace(scratch, column[i]);
    }
  }
  return index;
}

// Average of occupied cells within Chebyshev `radius` of `pos`.
double WindowAverageFromIndex(
    const std::unordered_map<array::Coordinates, double,
                             array::CoordinatesHash>& index,
    const array::Coordinates& pos, int64_t radius) {
  // Enumerate the window via an odd-base counter per dimension.
  const size_t ndims = pos.size();
  const int64_t span = 2 * radius + 1;
  int64_t total = 1;
  for (size_t d = 0; d < ndims; ++d) total *= span;
  double sum = 0.0;
  int64_t count = 0;
  array::Coordinates probe(ndims);
  for (int64_t code = 0; code < total; ++code) {
    int64_t rest = code;
    for (size_t d = 0; d < ndims; ++d) {
      probe[d] = pos[d] + (rest % span) - radius;
      rest /= span;
    }
    const auto it = index.find(probe);
    if (it != index.end()) {
      // arraydb-lint: fixed-order -- window cells visit in the odd-base
      // counter's enumeration order, identical for every configuration.
      sum += it->second;
      ++count;
    }
  }
  return count > 0 ? sum / static_cast<double>(count) : 0.0;
}

}  // namespace

util::StatusOr<double> WindowAverageAt(const array::Array& array, int attr,
                                       const array::Coordinates& pos,
                                       int64_t radius) {
  if (attr < 0 || attr >= array.schema().num_attrs()) {
    return util::InvalidArgument("attribute index out of range");
  }
  if (radius < 0) return util::InvalidArgument("negative radius");
  const auto index = BuildValueIndex(array, attr);
  return WindowAverageFromIndex(index, pos, radius);
}

std::vector<std::pair<array::Coordinates, double>> WindowAverageAll(
    const array::Array& array, int attr, int64_t radius,
    const ExecContext& context) {
  ARRAYDB_CHECK_GE(attr, 0);
  ARRAYDB_CHECK_LT(attr, array.schema().num_attrs());
  ARRAYDB_CHECK_GE(radius, 0);
  const auto index = BuildValueIndex(array, attr);
  // Deterministic work list: the occupied positions, sorted. Each position
  // probes the shared read-only index and writes exactly its own output
  // slot, so the field needs no combine step and the output is already in
  // its final order.
  std::vector<array::Coordinates> positions;
  positions.reserve(index.size());
  // arraydb-lint: ordered-extract -- sorted on the next line.
  for (const auto& [pos, value] : index) positions.push_back(pos);
  std::sort(positions.begin(), positions.end(), array::CoordinatesLess);
  std::vector<std::pair<array::Coordinates, double>> out(positions.size());
  // A window probe costs (2r+1)^ndims index lookups per position, so the
  // per-morsel position grain shrinks by the window volume (floored so tiny
  // fields still form one morsel). Pure in (data, context): the carve — and
  // with it the schedule-independent output — never depends on threads.
  int64_t window = 1;
  const int64_t span = 2 * radius + 1;
  for (int d = 0; d < array.schema().num_dims(); ++d) window *= span;
  const int64_t grain = std::max<int64_t>(
      64, context.morsel_grain / std::max<int64_t>(1, window));
  const MorselScheduler scheduler(context);
  scheduler.Run(
      MorselScheduler::Carve(static_cast<int64_t>(positions.size()), grain),
      [&](size_t, int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) {
          const auto& pos = positions[static_cast<size_t>(i)];
          out[static_cast<size_t>(i)] = {
              pos, WindowAverageFromIndex(index, pos, radius)};
        }
      });
  return out;
}

util::StatusOr<KMeansResult> KMeans(
    const std::vector<std::vector<double>>& points, int k, int max_iterations,
    uint64_t seed) {
  if (k < 1) return util::InvalidArgument("k must be positive");
  if (points.empty()) return util::InvalidArgument("no points");
  if (static_cast<size_t>(k) > points.size()) {
    return util::InvalidArgument("k exceeds the number of points");
  }
  const size_t dims = points[0].size();
  for (const auto& point : points) {
    if (point.size() != dims) {
      return util::InvalidArgument("points of unequal length");
    }
  }
  KMeansResult result;

  // Deterministic init: k distinct points chosen by seeded reservoir.
  util::Rng rng(seed);
  result.centroids.clear();
  std::vector<size_t> chosen;
  while (result.centroids.size() < static_cast<size_t>(k)) {
    const size_t idx = static_cast<size_t>(rng.NextBounded(points.size()));
    if (std::find(chosen.begin(), chosen.end(), idx) != chosen.end()) {
      continue;
    }
    chosen.push_back(idx);
    result.centroids.push_back(points[idx]);
  }

  result.assignment.assign(points.size(), 0);
  for (int iter = 0; iter < max_iterations; ++iter) {
    bool changed = false;
    // Assignment step.
    for (size_t i = 0; i < points.size(); ++i) {
      double best = std::numeric_limits<double>::infinity();
      int best_c = 0;
      for (int c = 0; c < k; ++c) {
        double dist = 0.0;
        for (size_t d = 0; d < dims; ++d) {
          const double diff =
              points[i][d] - result.centroids[static_cast<size_t>(c)][d];
          // arraydb-lint: fixed-order -- sequential over dimensions.
          dist += diff * diff;
        }
        if (dist < best) {
          best = dist;
          best_c = c;
        }
      }
      if (result.assignment[i] != best_c) {
        result.assignment[i] = best_c;
        changed = true;
      }
    }
    result.iterations = iter + 1;
    // Update step.
    std::vector<std::vector<double>> sums(
        static_cast<size_t>(k), std::vector<double>(dims, 0.0));
    std::vector<int64_t> counts(static_cast<size_t>(k), 0);
    for (size_t i = 0; i < points.size(); ++i) {
      const auto c = static_cast<size_t>(result.assignment[i]);
      // arraydb-lint: fixed-order -- sequential over points in index order.
      for (size_t d = 0; d < dims; ++d) sums[c][d] += points[i][d];
      ++counts[c];
    }
    for (size_t c = 0; c < static_cast<size_t>(k); ++c) {
      if (counts[c] == 0) continue;  // Empty cluster keeps its centroid.
      for (size_t d = 0; d < dims; ++d) {
        result.centroids[c][d] = sums[c][d] / static_cast<double>(counts[c]);
      }
    }
    if (!changed && iter > 0) break;
  }

  result.inertia = 0.0;
  for (size_t i = 0; i < points.size(); ++i) {
    const auto c = static_cast<size_t>(result.assignment[i]);
    for (size_t d = 0; d < dims; ++d) {
      const double diff = points[i][d] - result.centroids[c][d];
      // arraydb-lint: fixed-order -- sequential over points and dimensions.
      result.inertia += diff * diff;
    }
  }
  return result;
}

util::StatusOr<double> KnnAverageDistance(const array::Array& array, int k,
                                          int samples, uint64_t seed,
                                          const ExecContext& context) {
  if (k < 1) return util::InvalidArgument("k must be positive");
  if (samples < 1) return util::InvalidArgument("samples must be positive");
  // Sample and scan through the span view: positions are read straight from
  // the chunks' packed coordinate columns, no Cell materialization.
  const array::CellSpanView view(array);
  const int64_t num_cells = view.num_cells();
  if (num_cells <= static_cast<int64_t>(k)) {
    return util::FailedPrecondition("not enough cells for kNN");
  }
  const size_t ndims = static_cast<size_t>(array.schema().num_dims());
  util::Rng rng(seed);
  double total = 0.0;
  array::Coordinates origin(ndims);
  // The sample draw stays a single RNG stream; each sample's brute-force
  // distance scan runs morsel-parallel, every cell writing its fixed slot
  // (cells after the probe shift down one), so the selection input is the
  // same vector, in the same order, as the sequential scan produced.
  std::vector<double> dists(static_cast<size_t>(num_cells) - 1);
  const MorselScheduler scheduler(context);
  const auto morsels =
      MorselScheduler::Carve(num_cells, context.morsel_grain);
  for (int s = 0; s < samples; ++s) {
    const auto idx = static_cast<int64_t>(
        rng.NextBounded(static_cast<uint64_t>(num_cells)));
    const auto loc = view.Locate(idx);
    const int64_t* origin_pos = loc.chunk->cell_pos(loc.index);
    origin.assign(origin_pos, origin_pos + ndims);
    scheduler.Run(morsels, [&](size_t, int64_t begin, int64_t end) {
      int64_t global = begin;
      view.ForEachSlice(
          begin, end,
          [&](const array::Chunk& chunk, size_t local_begin,
              size_t local_end) {
            for (size_t i = local_begin; i < local_end; ++i, ++global) {
              if (global == idx) continue;
              const int64_t* pos = chunk.cell_pos(i);
              double dist = 0.0;
              for (size_t d = 0; d < ndims; ++d) {
                const double diff = static_cast<double>(pos[d] - origin[d]);
                // arraydb-lint: fixed-order -- sequential over dimensions.
                dist += diff * diff;
              }
              dists[static_cast<size_t>(global < idx ? global : global - 1)] =
                  std::sqrt(dist);
            }
          });
    });
    std::nth_element(dists.begin(), dists.begin() + (k - 1), dists.end());
    double sum = 0.0;
    // arraydb-lint: fixed-order -- dists is built deterministically and
    // nth_element permutes deterministically for a fixed input, so the
    // first-k addition order is pinned for a given binary.
    for (int i = 0; i < k; ++i) sum += dists[static_cast<size_t>(i)];
    // nth_element leaves the first k elements as the k smallest (unordered);
    // their mean is the probe's kNN distance.
    // arraydb-lint: fixed-order -- sequential over sample probes.
    total += sum / static_cast<double>(k);
  }
  return total / static_cast<double>(samples);
}

util::StatusOr<array::Array> Regrid(const array::Array& array,
                                    const std::vector<int64_t>& factors,
                                    int attr) {
  const auto& schema = array.schema();
  if (factors.size() != static_cast<size_t>(schema.num_dims())) {
    return util::InvalidArgument("factor rank mismatch");
  }
  if (attr < 0 || attr >= schema.num_attrs()) {
    return util::InvalidArgument("attribute index out of range");
  }
  for (const int64_t f : factors) {
    if (f <= 0) return util::InvalidArgument("non-positive regrid factor");
  }
  // Coarse schema: extents divided by the factors, one chunk per dim block.
  std::vector<array::DimensionDesc> dims;
  for (int d = 0; d < schema.num_dims(); ++d) {
    const auto& src = schema.dims()[static_cast<size_t>(d)];
    array::DimensionDesc dim;
    dim.name = src.name;
    dim.lo = 0;
    dim.hi = (src.Extent() + factors[static_cast<size_t>(d)] - 1) /
                 factors[static_cast<size_t>(d)] -
             1;
    dim.chunk_interval = dim.hi - dim.lo + 1;
    dims.push_back(dim);
  }
  array::Array coarse(array::ArraySchema(
      schema.name() + "_regrid", dims,
      {array::AttributeDesc{"sum", array::AttrType::kDouble},
       array::AttributeDesc{"count", array::AttrType::kDouble}}));

  // Accumulate, then materialize one cell per occupied coarse position.
  std::map<array::Coordinates, std::pair<double, int64_t>> acc;
  const size_t ndims = factors.size();
  array::Coordinates key(ndims);
  // Sorted chunk order keeps floating-point accumulation deterministic.
  for (const array::Chunk* chunk_ptr : array.SortedChunks()) {
    const array::Chunk& chunk = *chunk_ptr;
    if (chunk.num_cells() == 0) continue;
    const auto& column = chunk.attr_column(static_cast<size_t>(attr));
    const int64_t* pos = chunk.packed_coords().data();
    for (size_t i = 0; i < chunk.num_cells(); ++i, pos += ndims) {
      for (size_t d = 0; d < ndims; ++d) {
        key[d] = (pos[d] - schema.dims()[d].lo) / factors[d];
      }
      auto& slot = acc[key];
      // arraydb-lint: fixed-order -- cells accumulate in storage order.
      slot.first += column[i];
      slot.second += 1;
    }
  }
  for (const auto& [coarse_key, slot] : acc) {
    const auto status = coarse.InsertCell(
        coarse_key, {slot.first, static_cast<double>(slot.second)});
    ARRAYDB_CHECK(status.ok());
  }
  return coarse;
}

}  // namespace arraydb::exec

#include "exec/operators.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
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

namespace {

// Chunk-grid index of `cell` on `dim`, for a cell inside the dimension's
// stored range ([lo, hi], or [lo, int64 max] when unbounded). The offset
// is taken in uint64, so no int64 extreme overflows; it equals
// DimensionDesc::ChunkIndexOf wherever that is defined.
int64_t StoredChunkIndex(const array::DimensionDesc& dim, int64_t cell) {
  const uint64_t offset =
      static_cast<uint64_t>(cell) - static_cast<uint64_t>(dim.lo);
  return static_cast<int64_t>(
      std::min<uint64_t>(offset / static_cast<uint64_t>(dim.chunk_interval),
                         std::numeric_limits<int64_t>::max()));
}

// First directory index at or after `from` whose coordinates are not less
// than `key`, by galloping from `from`: O(log distance), so a run of jumps
// never costs more than one linear pass.
size_t GallopLowerBound(const std::vector<const array::Chunk*>& dir,
                        size_t from, const array::Coordinates& key) {
  const auto before_key = [&key](const array::Chunk* chunk) {
    return array::CoordinatesLess(chunk->coords(), key);
  };
  if (from >= dir.size() || !before_key(dir[from])) return from;
  size_t below = from;  // dir[below] is before the key.
  size_t step = 1;
  while (below + step < dir.size() && before_key(dir[below + step])) {
    below += step;
    step *= 2;
  }
  const auto first = dir.begin() + static_cast<std::ptrdiff_t>(below + 1);
  const auto last = dir.begin() + static_cast<std::ptrdiff_t>(
                                      std::min(below + step, dir.size()));
  return static_cast<size_t>(
      std::partition_point(first, last, before_key) - dir.begin());
}

// The morsel pre-filter shared by the box operators: the non-empty chunks,
// in directory order, whose bounding boxes intersect the query box.
//
// Broad phase: every stored cell is routed by ChunkOf, so a chunk's cells
// lie inside its grid cell, and only chunks whose coordinates fall in the
// box's chunk-coordinate range [clo, chi] can intersect it. A skip-scan
// walks the sorted directory from lower_bound(clo); at a chunk outside the
// range on dimension d it jumps to the least key after it that can be
// inside — raise d to clo[d], or, past chi[d], advance the deepest earlier
// dimension with room and reset the rest to clo. Cost: O(runs · log C +
// candidates). The candidates then take the exact bbox test in one SIMD
// kernel call over a dim-major SoA; they are a superset of the survivors,
// so the survivor list and its order are those of a full bbox sweep.
std::vector<const array::Chunk*> BBoxSurvivors(const array::Array& array,
                                               const CellBox& box) {
  const size_t ndims = box.lo.size();
  ARRAYDB_CHECK_EQ(box.hi.size(), ndims);
  const std::vector<const array::Chunk*>& dir = array.SortedChunks();
  const std::vector<array::DimensionDesc>& dims = array.schema().dims();
  if (ndims != dims.size()) {
    // A box of the wrong rank is a caller bug once there is data to test.
    for (const array::Chunk* chunk : dir) {
      if (chunk->num_cells() != 0) {
        ARRAYDB_CHECK_EQ(chunk->bbox_lo().size(), ndims);
      }
    }
    return {};
  }
  // Clamping the box into the stored range loses no cell; an inverted box,
  // or one outside the grid on some dimension, holds none.
  array::Coordinates clo(ndims);
  array::Coordinates chi(ndims);
  for (size_t d = 0; d < ndims; ++d) {
    const array::DimensionDesc& dim = dims[d];
    const int64_t lo = std::max(box.lo[d], dim.lo);
    const int64_t hi = std::min(
        box.hi[d],
        dim.unbounded ? std::numeric_limits<int64_t>::max() : dim.hi);
    if (lo > hi) return {};
    clo[d] = StoredChunkIndex(dim, lo);
    chi[d] = StoredChunkIndex(dim, hi);
  }

  std::vector<const array::Chunk*> chunks;
  array::Coordinates next = clo;
  size_t i = GallopLowerBound(dir, 0, next);
  while (i < dir.size()) {
    const array::Coordinates& c = dir[i]->coords();
    size_t d = 0;
    while (d < ndims && c[d] >= clo[d] && c[d] <= chi[d]) ++d;
    if (d == ndims) {
      if (dir[i]->num_cells() != 0) chunks.push_back(dir[i]);
      ++i;
      continue;
    }
    // Keep the prefix c[0, e) and raise dimension e: to clo[d] when e == d
    // (c is below the range there), else by one past c[e].
    size_t e = d;
    if (c[d] > chi[d]) {
      while (e > 0 && c[e - 1] >= chi[e - 1]) --e;
      if (e == 0) break;
      --e;
    }
    std::copy(c.begin(), c.begin() + static_cast<std::ptrdiff_t>(e),
              next.begin());
    next[e] = e == d ? clo[d] : c[e] + 1;
    std::copy(clo.begin() + static_cast<std::ptrdiff_t>(e + 1), clo.end(),
              next.begin() + static_cast<std::ptrdiff_t>(e + 1));
    i = GallopLowerBound(dir, i + 1, next);
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
      MorselScheduler::CarveChunks(chunks, context.morsel_grain), Partial{},
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
      MorselScheduler::CarveChunks(chunks, context.morsel_grain), int64_t{0},
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
        MorselScheduler::CarveChunks(view.chunks(), context.morsel_grain),
        Extreme{},
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

// Bin origin: the multiple of `bin` at or below `v`, saturated to
// INT64_MIN when that multiple lies below it. The distance down to the
// origin is taken as a remainder, so nothing overflows.
inline int64_t BinOrigin(int64_t v, int64_t bin) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  const int64_t rem = v % bin;
  const uint64_t below = static_cast<uint64_t>(rem < 0 ? rem + bin : rem);
  const uint64_t above_min =
      static_cast<uint64_t>(v) - static_cast<uint64_t>(kMin);
  return above_min < below ? kMin : v - static_cast<int64_t>(below);
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
  const std::vector<const array::Chunk*> chunks = NonEmptyChunks(array);
  using BinMap =
      std::unordered_map<array::Coordinates, double, array::CoordinatesHash>;
  // Each morsel accumulates a private bin map over its run of sorted
  // chunks; partials merge per key in morsel order, so every bin's
  // floating-point accumulation order is a pure function of the chunk list
  // and the grain — deterministic, thread-count invariant, and (with the
  // kernels dispatch-stable) identical across scalar and AVX2 dispatch.
  const MorselScheduler scheduler(context);
  BinMap acc = scheduler.Reduce(
      MorselScheduler::CarveChunks(chunks, context.morsel_grain), BinMap{},
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

// (2r+1)^ndims, the cells a window of Chebyshev `radius` spans; -1 when
// that count does not fit in int64.
int64_t WindowVolume(int64_t radius, int ndims) {
  if (radius > (std::numeric_limits<int64_t>::max() - 1) / 2) return -1;
  const int64_t span = 2 * radius + 1;
  int64_t volume = 1;
  for (int d = 0; d < ndims; ++d) {
    if (__builtin_mul_overflow(volume, span, &volume)) return -1;
  }
  return volume;
}

// v - r and v + r clamped to the int64 range, so a window at the edge of
// the coordinate space never overflows.
inline int64_t SaturatingSub(int64_t v, int64_t r) {
  int64_t out = 0;
  return __builtin_sub_overflow(v, r, &out)
             ? std::numeric_limits<int64_t>::min()
             : out;
}
inline int64_t SaturatingAdd(int64_t v, int64_t r) {
  int64_t out = 0;
  return __builtin_add_overflow(v, r, &out)
             ? std::numeric_limits<int64_t>::max()
             : out;
}

// pos - origin as a double. The difference is taken in uint64 and converted
// with its sign, so cells up to 2^64 - 1 apart do not overflow; wherever the
// int64 difference is defined this is its conversion, bit for bit.
inline double SignedDiff(int64_t pos, int64_t origin) {
  const uint64_t up =
      static_cast<uint64_t>(pos) - static_cast<uint64_t>(origin);
  return pos >= origin ? static_cast<double>(up)
                       : -static_cast<double>(uint64_t{0} - up);
}

// Lexicographic three-way comparison of two packed positions of `n` dims.
inline int ComparePos(const int64_t* a, const int64_t* b, size_t n) {
  for (size_t d = 0; d < n; ++d) {
    if (a[d] != b[d]) return a[d] < b[d] ? -1 : 1;
  }
  return 0;
}

// Ascending indices i in [0, n) with pred(i), compacted morsel-parallel:
// each morsel counts its hits, a scan over the per-morsel counts fixes
// where each morsel writes, and a second pass writes them. The result is a
// pure function of (n, pred).
template <typename Pred>
std::vector<int64_t> SelectIndices(int64_t n, const Pred& pred,
                                   const MorselScheduler& scheduler,
                                   int64_t grain) {
  const std::vector<MorselRange> morsels = MorselScheduler::Carve(n, grain);
  std::vector<int64_t> offsets(morsels.size() + 1, 0);
  scheduler.Run(morsels, [&](size_t m, int64_t begin, int64_t end) {
    int64_t hits = 0;
    for (int64_t i = begin; i < end; ++i) hits += pred(i) ? 1 : 0;
    offsets[m + 1] = hits;
  });
  std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
  std::vector<int64_t> out(static_cast<size_t>(offsets.back()));
  scheduler.Run(morsels, [&](size_t m, int64_t begin, int64_t end) {
    int64_t* dst = out.data() + offsets[m];
    for (int64_t i = begin; i < end; ++i) {
      if (pred(i)) *dst++ = i;
    }
  });
  return out;
}

// Of the first k outputs of merge(a, b) under a strict total order, how
// many come from a (merge-path co-rank).
template <typename Less>
int64_t CoRank(int64_t k, const int64_t* a, int64_t na, const int64_t* b,
               int64_t nb, const Less& less) {
  int64_t lo = std::max<int64_t>(0, k - nb);
  int64_t hi = std::min(k, na);
  while (lo < hi) {
    const int64_t i = lo + (hi - lo) / 2;
    if (less(a[i], b[k - i - 1])) {
      lo = i + 1;
    } else {
      hi = i;
    }
  }
  return lo;
}

// Sorts [0, n) by `less`, a strict total order, morsel-parallel: each
// morsel sorts its own run, then adjacent runs merge pairwise in a fixed
// tree. Each merge level is cut by co-rank into ~grain outputs per morsel,
// so the last levels, one or two big merges, still use every worker. A
// strict total order admits exactly one sorted permutation, so the result
// never depends on the grain or the schedule.
template <typename Less>
std::unique_ptr<int64_t[]> ParallelSort(int64_t n, const Less& less,
                                        const MorselScheduler& scheduler,
                                        int64_t grain) {
  auto order = std::make_unique_for_overwrite<int64_t[]>(
      static_cast<size_t>(n));
  std::vector<MorselRange> runs = MorselScheduler::Carve(n, grain);
  scheduler.Run(runs, [&](size_t, int64_t begin, int64_t end) {
    std::iota(order.get() + begin, order.get() + end, begin);
    std::sort(order.get() + begin, order.get() + end, less);
  });
  if (runs.size() <= 1) return order;
  auto merged = std::make_unique_for_overwrite<int64_t[]>(
      static_cast<size_t>(n));
  // One merge morsel: outputs [out, out_end) of merging the run pair
  // [lo, mid) + [mid, hi); an unpaired last run has mid == hi.
  struct Piece {
    int64_t lo, mid, hi, out, out_end;
  };
  while (runs.size() > 1) {
    std::vector<Piece> pieces;
    std::vector<MorselRange> next;
    for (size_t r = 0; r < runs.size(); r += 2) {
      const int64_t lo = runs[r].first;
      const int64_t mid = runs[r].second;
      const int64_t hi = r + 1 < runs.size() ? runs[r + 1].second : mid;
      for (int64_t out = lo; out < hi; out += grain) {
        pieces.push_back({lo, mid, hi, out, std::min(hi, out + grain)});
      }
      next.emplace_back(lo, hi);
    }
    scheduler.Run(
        MorselScheduler::Carve(static_cast<int64_t>(pieces.size()), 1),
        [&](size_t, int64_t begin, int64_t end) {
          for (int64_t p = begin; p < end; ++p) {
            const Piece& piece = pieces[static_cast<size_t>(p)];
            const int64_t* a = order.get() + piece.lo;
            const int64_t* b = order.get() + piece.mid;
            const int64_t na = piece.mid - piece.lo;
            const int64_t nb = piece.hi - piece.mid;
            const int64_t i0 =
                CoRank(piece.out - piece.lo, a, na, b, nb, less);
            const int64_t i1 =
                CoRank(piece.out_end - piece.lo, a, na, b, nb, less);
            std::merge(a + i0, a + i1, b + (piece.out - piece.lo - i0),
                       b + (piece.out_end - piece.lo - i1),
                       merged.get() + piece.out, less);
          }
        });
    std::swap(order, merged);
    runs = std::move(next);
  }
  return order;
}

// One attribute's occupied positions, sorted lexicographically with
// duplicates removed, in flat arrays: the input both window entry points
// sweep. A row is a maximal run of positions sharing their first
// ndims - 1 coordinates.
struct SortedField {
  size_t ndims = 0;
  int64_t size = 0;
  std::unique_ptr<int64_t[]> pos;    // size * ndims, packed.
  std::unique_ptr<double[]> values;  // One value per position.
  std::vector<int64_t> row_starts;   // Each row's first position, then size.
  array::Coordinates lo, hi;         // Bounds on every coordinate, per dim.

  const int64_t* at(int64_t i) const {
    return pos.get() + static_cast<size_t>(i) * ndims;
  }
  int64_t last(int64_t i) const { return at(i)[ndims - 1]; }
};

// Gathers, sorts and deduplicates `attr` over the array's occupied cells,
// morsel-parallel at every step. The global index of a cell is its rank in
// sorted-chunk order, then storage order; cells order by (position, global
// index), and the first cell of each equal-position run keeps its value —
// the occurrence a sequential first-wins insert in that order would keep.
SortedField BuildSortedField(const array::Array& array, int attr,
                             const ExecContext& context) {
  SortedField field;
  field.ndims = static_cast<size_t>(array.schema().num_dims());
  const size_t ndims = field.ndims;
  const int64_t grain = context.morsel_grain;
  const MorselScheduler scheduler(context);
  field.lo.assign(ndims, std::numeric_limits<int64_t>::max());
  field.hi.assign(ndims, std::numeric_limits<int64_t>::min());

  // Gather: every chunk copies into its fixed slice of flat arrays.
  const std::vector<const array::Chunk*> chunks = NonEmptyChunks(array);
  std::vector<int64_t> offsets{0};
  for (const array::Chunk* chunk : chunks) {
    offsets.push_back(offsets.back() +
                      static_cast<int64_t>(chunk->num_cells()));
    for (size_t d = 0; d < ndims; ++d) {
      field.lo[d] = std::min(field.lo[d], chunk->bbox_lo()[d]);
      field.hi[d] = std::max(field.hi[d], chunk->bbox_hi()[d]);
    }
  }
  const int64_t n = offsets.back();
  const auto coords = std::make_unique_for_overwrite<int64_t[]>(
      static_cast<size_t>(n) * ndims);
  const auto values =
      std::make_unique_for_overwrite<double[]>(static_cast<size_t>(n));
  const auto cell = [&coords, ndims](int64_t i) {
    return coords.get() + static_cast<size_t>(i) * ndims;
  };
  scheduler.Run(
      MorselScheduler::CarveChunks(chunks, grain),
      [&](size_t, int64_t begin, int64_t end) {
        for (int64_t c = begin; c < end; ++c) {
          const array::Chunk& chunk = *chunks[static_cast<size_t>(c)];
          const int64_t at = offsets[static_cast<size_t>(c)];
          const auto& column = chunk.attr_column(static_cast<size_t>(attr));
          std::copy(chunk.packed_coords().begin(),
                    chunk.packed_coords().end(), cell(at));
          std::copy(column.begin(), column.end(), values.get() + at);
        }
      });

  // Order: (position, global index) is a strict total order.
  const auto order = ParallelSort(
      n,
      [&cell, ndims](int64_t a, int64_t b) {
        const int cmp = ComparePos(cell(a), cell(b), ndims);
        return cmp != 0 ? cmp < 0 : a < b;
      },
      scheduler, grain);

  // Dedup: keep the first index of each equal-position run.
  const std::vector<int64_t> firsts = SelectIndices(
      n,
      [&](int64_t i) {
        return i == 0 ||
               ComparePos(cell(order[static_cast<size_t>(i - 1)]),
                          cell(order[static_cast<size_t>(i)]), ndims) != 0;
      },
      scheduler, grain);
  field.size = static_cast<int64_t>(firsts.size());
  field.pos = std::make_unique_for_overwrite<int64_t[]>(
      static_cast<size_t>(field.size) * ndims);
  field.values = std::make_unique_for_overwrite<double[]>(
      static_cast<size_t>(field.size));
  scheduler.Run(
      MorselScheduler::Carve(field.size, grain),
      [&](size_t, int64_t begin, int64_t end) {
        for (int64_t u = begin; u < end; ++u) {
          const int64_t first = firsts[static_cast<size_t>(u)];
          const int64_t src = order[static_cast<size_t>(first)];
          std::copy(cell(src), cell(src) + ndims,
                    field.pos.get() + static_cast<size_t>(u) * ndims);
          field.values[static_cast<size_t>(u)] =
              values[static_cast<size_t>(src)];
        }
      });

  // Rows: where the first ndims - 1 coordinates change.
  field.row_starts = SelectIndices(
      field.size,
      [&field, ndims](int64_t u) {
        return u == 0 ||
               ComparePos(field.at(u - 1), field.at(u), ndims - 1) != 0;
      },
      scheduler, grain);
  field.row_starts.push_back(field.size);
  return field;
}

// The window of Chebyshev `radius` around the cells of one row of a
// SortedField. Start() finds the occupied neighbour rows — those whose
// first ndims - 1 coordinates lie within the radius — by binary search
// over the row starts, in ascending odd-base code order (dimension 0 the
// fastest digit). Average() then advances one monotone cursor per
// neighbour row along the last coordinate and sums the hits by ascending
// last-coordinate offset, then neighbour order: exactly the ascending
// odd-base code order of a probe per window cell, so every sum adds the
// same values in the same order as such a probe loop would.
class RowWindow {
 public:
  RowWindow(const SortedField& field, int64_t radius)
      : field_(field),
        radius_(radius),
        probe_(field.ndims),
        lo_(field.ndims),
        hi_(field.ndims) {}

  // Finds the neighbour rows of `pos`'s row and seeks each cursor to the
  // first cell within the radius of pos's last coordinate.
  void Start(const int64_t* pos) {
    const size_t prefix = field_.ndims - 1;
    rows_.clear();
    for (size_t d = 0; d < prefix; ++d) {
      // Rows outside the data's bounds cannot exist: clip the odometer.
      lo_[d] = std::max(SaturatingSub(pos[d], radius_), field_.lo[d]);
      hi_[d] = std::min(SaturatingAdd(pos[d], radius_), field_.hi[d]);
      if (lo_[d] > hi_[d]) return;
      probe_[d] = lo_[d];
    }
    const int64_t from = SaturatingSub(pos[prefix], radius_);
    for (;;) {
      const auto row = std::lower_bound(
          field_.row_starts.begin(), field_.row_starts.end() - 1, 0,
          [this, prefix](int64_t start, int) {
            return ComparePos(field_.at(start), probe_.data(), prefix) < 0;
          });
      if (row != field_.row_starts.end() - 1 &&
          ComparePos(field_.at(*row), probe_.data(), prefix) == 0) {
        int64_t begin = *row;
        int64_t end = *(row + 1);
        while (begin < end) {  // First cell with last coordinate >= from.
          const int64_t mid = begin + (end - begin) / 2;
          if (field_.last(mid) < from) {
            begin = mid + 1;
          } else {
            end = mid;
          }
        }
        rows_.push_back({begin, *(row + 1)});
      }
      size_t d = 0;
      for (; d < prefix && probe_[d] == hi_[d]; ++d) probe_[d] = lo_[d];
      if (d == prefix) break;
      ++probe_[d];
    }
  }

  // Average over the occupied cells within the radius of (the row of the
  // last Start, last coordinate x); 0 when there are none. Successive
  // calls after one Start must pass non-decreasing x.
  double Average(int64_t x) {
    // Offsets along the last coordinate, clipped to the data's bounds: the
    // span never exceeds 2 * radius + 1.
    const size_t last_dim = field_.ndims - 1;
    const int64_t from =
        std::max(SaturatingSub(x, radius_), field_.lo[last_dim]);
    const int64_t to = std::min(SaturatingAdd(x, radius_), field_.hi[last_dim]);
    if (from > to || rows_.empty()) return 0.0;
    const size_t num_rows = rows_.size();
    const size_t slots = static_cast<size_t>(to - from + 1) * num_rows;
    if (present_.size() < slots) {
      present_.resize(slots, 0);
      values_.resize(slots);
    }
    // Drop each neighbour row's hits into slot (offset, row): ascending
    // slot order is then ascending odd-base code order.
    const size_t stride = field_.ndims;
    const int64_t* lasts = field_.pos.get() + last_dim;
    for (size_t k = 0; k < num_rows; ++k) {
      Row& row = rows_[k];
      while (row.begin < row.end &&
             lasts[static_cast<size_t>(row.begin) * stride] < from) {
        ++row.begin;
      }
      for (int64_t c = row.begin; c < row.end; ++c) {
        const int64_t v = lasts[static_cast<size_t>(c) * stride];
        if (v > to) break;
        const size_t slot = static_cast<size_t>(v - from) * num_rows + k;
        present_[slot] = 1;
        values_[slot] = field_.values[static_cast<size_t>(c)];
      }
    }
    double sum = 0.0;
    int64_t count = 0;
    for (size_t slot = 0; slot < slots; ++slot) {
      if (present_[slot] == 0) continue;
      present_[slot] = 0;
      // arraydb-lint: fixed-order -- hits add in ascending odd-base code
      // order, the same for every grain and thread count.
      sum += values_[slot];
      ++count;
    }
    return count > 0 ? sum / static_cast<double>(count) : 0.0;
  }

 private:
  struct Row {
    int64_t begin;  // Monotone cursor: first cell not below the window.
    int64_t end;
  };
  const SortedField& field_;
  const int64_t radius_;
  array::Coordinates probe_;  // Odometer over the clipped row prefixes.
  array::Coordinates lo_, hi_;
  std::vector<Row> rows_;
  // Slot buffer, (offset along the last coordinate, neighbour row); every
  // slot is cleared again as the sum consumes it.
  std::vector<uint8_t> present_;
  std::vector<double> values_;
};

}  // namespace

util::StatusOr<double> WindowAverageAt(const array::Array& array, int attr,
                                       const array::Coordinates& pos,
                                       int64_t radius) {
  if (attr < 0 || attr >= array.schema().num_attrs()) {
    return util::InvalidArgument("attribute index out of range");
  }
  if (radius < 0) return util::InvalidArgument("negative radius");
  const int ndims = array.schema().num_dims();
  if (pos.size() != static_cast<size_t>(ndims)) {
    return util::InvalidArgument("position rank does not match schema");
  }
  if (WindowVolume(radius, ndims) < 0) {
    return util::InvalidArgument("window volume overflows int64");
  }
  const SortedField field = BuildSortedField(array, attr, ExecContext{});
  RowWindow window(field, radius);
  window.Start(pos.data());
  return window.Average(pos.back());
}

std::vector<std::pair<array::Coordinates, double>> WindowAverageAll(
    const array::Array& array, int attr, int64_t radius,
    const ExecContext& context) {
  ARRAYDB_CHECK_GE(attr, 0);
  ARRAYDB_CHECK_LT(attr, array.schema().num_attrs());
  ARRAYDB_CHECK_GE(radius, 0);
  const int64_t volume = WindowVolume(radius, array.schema().num_dims());
  ARRAYDB_CHECK_GT(volume, 0);
  const SortedField field = BuildSortedField(array, attr, context);
  std::vector<std::pair<array::Coordinates, double>> out(
      static_cast<size_t>(field.size));
  // A cell's sweep visits up to the window volume of neighbours, so the
  // per-morsel cell grain shrinks by it (floored so tiny fields still form
  // one morsel). Each morsel writes exactly its own output slots, already
  // in sorted order; a morsel that starts mid-row seeks its cursors there.
  const int64_t grain = std::max<int64_t>(64, context.morsel_grain / volume);
  const MorselScheduler scheduler(context);
  scheduler.Run(
      MorselScheduler::Carve(field.size, grain),
      [&](size_t, int64_t begin, int64_t end) {
        RowWindow window(field, radius);
        auto row = std::upper_bound(field.row_starts.begin(),
                                    field.row_starts.end(), begin) - 1;
        for (int64_t i = begin; i < end; ++row) {
          const int64_t row_end = std::min(end, *(row + 1));
          window.Start(field.at(i));
          for (; i < row_end; ++i) {
            const int64_t* pos = field.at(i);
            out[static_cast<size_t>(i)] = {
                array::Coordinates(pos, pos + field.ndims),
                window.Average(field.last(i))};
          }
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
  const array::CellSpanView view(array);
  const int64_t num_cells = view.num_cells();
  if (num_cells <= static_cast<int64_t>(k)) {
    return util::FailedPrecondition("not enough cells for kNN");
  }
  const size_t ndims = static_cast<size_t>(array.schema().num_dims());
  const auto kk = static_cast<size_t>(k);
  // The probes are one RNG stream, drawn up front in sample order.
  util::Rng rng(seed);
  std::vector<array::CellSpanView::Location> probes;
  for (int s = 0; s < samples; ++s) {
    probes.push_back(view.Locate(static_cast<int64_t>(
        rng.NextBounded(static_cast<uint64_t>(num_cells)))));
  }
  // Each sample grows a Chebyshev box [o - R, o + R] around its probe o and
  // scans every cell of the chunks the box meets, keeping the k smallest
  // distances in a max-heap. A cell outside the box is more than R away, so
  // once the k-th best is <= R the k smallest are final; otherwise R
  // doubles. Once the box meets every chunk, or past R = 2^26 (below it
  // every squared distance the stop rule compares is exact in a double),
  // the scan is the whole array: an exact brute force.
  constexpr int64_t kMaxRadius = int64_t{1} << 26;
  std::vector<double> means(probes.size());
  const MorselScheduler scheduler(context);
  scheduler.Run(MorselScheduler::Carve(samples, 1), [&](size_t, int64_t s,
                                                        int64_t) {
    const array::CellSpanView::Location& probe =
        probes[static_cast<size_t>(s)];
    const int64_t* origin = probe.chunk->cell_pos(probe.index);
    std::vector<double> best;
    best.reserve(kk);
    CellBox box{array::Coordinates(ndims), array::Coordinates(ndims)};
    std::vector<const array::Chunk*> survivors;
    for (int64_t radius = 1;; radius *= 2) {
      const bool whole = radius > kMaxRadius;
      for (size_t d = 0; d < ndims && !whole; ++d) {
        box.lo[d] = SaturatingSub(origin[d], radius);
        box.hi[d] = SaturatingAdd(origin[d], radius);
      }
      if (!whole) survivors = BBoxSurvivors(array, box);
      best.clear();
      for (const array::Chunk* chunk : whole ? view.chunks() : survivors) {
        const int64_t* pos = chunk->packed_coords().data();
        for (size_t i = 0; i < chunk->num_cells(); ++i, pos += ndims) {
          if (chunk == probe.chunk && i == probe.index) continue;
          double dist = 0.0;
          for (size_t d = 0; d < ndims; ++d) {
            const double diff = SignedDiff(pos[d], origin[d]);
            // arraydb-lint: fixed-order -- sequential over dimensions.
            dist += diff * diff;
          }
          dist = std::sqrt(dist);
          if (best.size() == kk) {
            if (dist >= best.front()) continue;
            std::pop_heap(best.begin(), best.end());
            best.pop_back();
          }
          best.push_back(dist);
          std::push_heap(best.begin(), best.end());
        }
      }
      if (whole || survivors.size() == view.chunks().size() ||
          (best.size() == kk && best.front() <= static_cast<double>(radius))) {
        break;
      }
    }
    std::sort_heap(best.begin(), best.end());
    double sum = 0.0;
    // arraydb-lint: fixed-order -- the k smallest distances, ascending.
    for (const double dist : best) sum += dist;
    means[static_cast<size_t>(s)] = sum / static_cast<double>(k);
  });
  double total = 0.0;
  // arraydb-lint: fixed-order -- per-sample means in sample order.
  for (const double mean : means) total += mean;
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

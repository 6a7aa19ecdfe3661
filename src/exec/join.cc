#include "exec/join.h"

#include <algorithm>
#include <cmath>
#include <compare>
#include <utility>

#include "exec/morsel.h"
#include "telemetry/trace.h"
#include "util/logging.h"

namespace arraydb::exec {

namespace {

// True when both schemas cut every dimension at the same places: the same
// origin and chunk interval. Every cell is stored in the chunk ChunkOf
// assigns it, so on one grid a position can only occur in the chunk with
// the same coordinates on both sides.
bool SameChunkGrid(const array::ArraySchema& a, const array::ArraySchema& b) {
  return std::ranges::equal(
      a.dims(), b.dims(),
      [](const array::DimensionDesc& x, const array::DimensionDesc& y) {
        return x.lo == y.lo && x.chunk_interval == y.chunk_interval;
      });
}

bool HasCells(const array::Array& array) {
  return std::ranges::any_of(array.SortedChunks(),
                             [](const array::Chunk* chunk) {
                               return chunk->num_cells() != 0;
                             });
}

// Lexicographic order of two positions of rank `ndims`.
std::strong_ordering ComparePositions(const int64_t* x, const int64_t* y,
                                      size_t ndims) {
  return std::lexicographical_compare_three_way(x, x + ndims, y, y + ndims);
}

// Points `out` at every cell position of `chunk`, in position order.
void SortPositions(const array::Chunk& chunk,
                   std::vector<const int64_t*>& out) {
  const size_t ndims = chunk.num_dims();
  out.clear();
  for (size_t i = 0; i < chunk.num_cells(); ++i) {
    out.push_back(chunk.cell_pos(i));
  }
  std::sort(out.begin(), out.end(),
            [ndims](const int64_t* x, const int64_t* y) {
              return ComparePositions(x, y, ndims) < 0;
            });
}

// Probe positions present among the build positions, both sorted: every
// probe cell counts once, however often the build side holds its position.
int64_t CountMatches(const std::vector<const int64_t*>& build,
                     const std::vector<const int64_t*>& probe, size_t ndims) {
  int64_t matches = 0;
  size_t b = 0;
  size_t p = 0;
  while (b < build.size() && p < probe.size()) {
    const std::strong_ordering order =
        ComparePositions(build[b], probe[p], ndims);
    if (order < 0) {
      ++b;
    } else {
      matches += order == 0 ? 1 : 0;
      ++p;
    }
  }
  return matches;
}

// splitmix64 finalizer: full-avalanche mix so keys that share their high
// bits still spread over the slots.
inline uint64_t MixKey(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

}  // namespace

// -- FlatKeySet ---------------------------------------------------------------

void FlatKeySet::Reserve(size_t n) {
  size_t capacity = 16;
  while (capacity < 2 * n) capacity <<= 1;
  if (capacity <= slots_.size()) return;
  std::vector<uint64_t> old = std::move(slots_);
  slots_.assign(capacity, 0);
  mask_ = capacity - 1;
  for (const uint64_t key : old) {
    if (key == 0) continue;
    size_t i = static_cast<size_t>(MixKey(key)) & mask_;
    while (slots_[i] != 0) i = (i + 1) & mask_;
    slots_[i] = key;
  }
}

void FlatKeySet::Grow() { Reserve(slots_.empty() ? 8 : slots_.size()); }

void FlatKeySet::Insert(uint64_t key) {
  if (key == 0) {
    size_ += has_zero_ ? 0 : 1;
    has_zero_ = true;
    return;
  }
  if (2 * (size_ + 1) > slots_.size()) Grow();
  size_t i = static_cast<size_t>(MixKey(key)) & mask_;
  while (slots_[i] != 0) {
    if (slots_[i] == key) return;
    i = (i + 1) & mask_;
  }
  slots_[i] = key;
  ++size_;
}

bool FlatKeySet::Contains(uint64_t key) const {
  if (key == 0) return has_zero_;
  if (slots_.empty()) return false;
  size_t i = static_cast<size_t>(MixKey(key)) & mask_;
  while (slots_[i] != 0) {
    if (slots_[i] == key) return true;
    i = (i + 1) & mask_;
  }
  return false;
}

// -- Dimension join -----------------------------------------------------------

namespace internal {

int64_t DimJoinCountBySet(const array::Array& a, const array::Array& b) {
  const array::Array& build = a.total_cells() <= b.total_cells() ? a : b;
  const array::Array& probe = a.total_cells() <= b.total_cells() ? b : a;
  std::unordered_set<array::Coordinates, array::CoordinatesHash> positions;
  positions.reserve(static_cast<size_t>(build.total_cells()));
  array::Coordinates scratch;
  const auto load_pos = [&scratch](const array::Chunk& chunk, size_t i) {
    const int64_t* pos = chunk.cell_pos(i);
    scratch.assign(pos, pos + chunk.num_dims());
  };
  for (const array::Chunk* chunk : build.SortedChunks()) {
    for (size_t i = 0; i < chunk->num_cells(); ++i) {
      load_pos(*chunk, i);
      positions.insert(scratch);
    }
  }
  int64_t matches = 0;
  for (const array::Chunk* chunk : probe.SortedChunks()) {
    for (size_t i = 0; i < chunk->num_cells(); ++i) {
      load_pos(*chunk, i);
      if (positions.contains(scratch)) ++matches;
    }
  }
  return matches;
}

}  // namespace internal

int64_t DimJoinCount(const array::Array& a, const array::Array& b,
                     const ExecContext& context) {
  TELEM_COUNTER_ADD("exec.join.dim_joins", 1);
  // Positions of different rank never compare equal: the join is empty.
  if (a.schema().num_dims() != b.schema().num_dims()) return 0;
  // The smaller side builds (ties: `a` builds): its duplicates count once.
  const array::Array& build = a.total_cells() <= b.total_cells() ? a : b;
  const array::Array& probe = a.total_cells() <= b.total_cells() ? b : a;
  if (!HasCells(build) || !HasCells(probe)) return 0;
  if (!SameChunkGrid(a.schema(), b.schema())) {
    // Matching positions may sit in chunks at different coordinates:
    // same semantics, set-keyed.
    TELEM_COUNTER_ADD("exec.join.set_fallbacks", 1);
    return internal::DimJoinCountBySet(a, b);
  }

  // Pair the non-empty chunks at equal coordinates: one linear merge of
  // the two sorted directories. A pair weighs its probe cells.
  std::vector<std::pair<const array::Chunk*, const array::Chunk*>> pairs;
  std::vector<int64_t> weights;
  {
    TELEM_SPAN("exec.join.build");
    TELEM_COUNTER_ADD("exec.join.build_keys", build.total_cells());
    const std::vector<const array::Chunk*>& build_dir = build.SortedChunks();
    const std::vector<const array::Chunk*>& probe_dir = probe.SortedChunks();
    size_t i = 0;
    size_t j = 0;
    while (i < build_dir.size() && j < probe_dir.size()) {
      const array::Chunk* build_chunk = build_dir[i];
      const array::Chunk* probe_chunk = probe_dir[j];
      const std::strong_ordering order =
          build_chunk->coords() <=> probe_chunk->coords();
      if (order <= 0) ++i;
      if (order >= 0) ++j;
      if (order == 0 && build_chunk->num_cells() != 0 &&
          probe_chunk->num_cells() != 0) {
        pairs.emplace_back(build_chunk, probe_chunk);
        weights.push_back(static_cast<int64_t>(probe_chunk->num_cells()));
      }
    }
  }

  // Count: each morsel sorts both sides of its pairs by position and
  // merge-counts them; integer partials sum in fixed morsel order.
  TELEM_SPAN("exec.join.probe");
  TELEM_COUNTER_ADD("exec.join.probe_cells", probe.total_cells());
  const size_t ndims = static_cast<size_t>(build.schema().num_dims());
  const MorselScheduler scheduler(context);
  const int64_t matches = scheduler.Reduce(
      MorselScheduler::CarveByWeight(weights, context.morsel_grain),
      int64_t{0},
      [&](size_t, int64_t begin, int64_t end) {
        int64_t local = 0;
        std::vector<const int64_t*> build_pos;
        std::vector<const int64_t*> probe_pos;
        for (int64_t i = begin; i < end; ++i) {
          const auto& [build_chunk, probe_chunk] =
              pairs[static_cast<size_t>(i)];
          SortPositions(*build_chunk, build_pos);
          SortPositions(*probe_chunk, probe_pos);
          local += CountMatches(build_pos, probe_pos, ndims);
        }
        return local;
      },
      [](int64_t& acc, int64_t partial) { acc += partial; });
  TELEM_COUNTER_ADD("exec.join.probe_hits", matches);
  return matches;
}

// -- Attribute join -----------------------------------------------------------

bool AttrJoinKey(double value, int64_t* key) {
  // Conservative int64-representable window: values at or beyond ±2^62
  // cannot be real join keys and keep llround inside its domain.
  constexpr double kLimit = 4.611686018427388e18;  // 2^62.
  if (!(value > -kLimit && value < kLimit)) return false;  // NaN fails too.
  *key = std::llround(value);
  return true;
}

int64_t AttrJoinCount(const array::Array& array, int attr,
                      const std::unordered_set<int64_t>& keys,
                      const ExecContext& context) {
  ARRAYDB_CHECK_GE(attr, 0);
  ARRAYDB_CHECK_LT(attr, array.schema().num_attrs());
  TELEM_COUNTER_ADD("exec.join.attr_joins", 1);
  const std::vector<const array::Chunk*> chunks = NonEmptyChunks(array);
  if (chunks.empty() || keys.empty()) return 0;
  // One flat table replaces the node-based set for the whole probe: the
  // key count is the (small) replicated side; parallelism comes from the
  // morsel-parallel probe.
  FlatKeySet table;
  table.Reserve(keys.size());
  // arraydb-lint: order-insensitive -- FlatKeySet membership is identical
  // for any insertion order; only contains() results are consumed.
  for (const int64_t key : keys) table.Insert(static_cast<uint64_t>(key));
  const MorselScheduler scheduler(context);
  TELEM_SPAN("exec.join.attr_probe");
  const int64_t matches = scheduler.Reduce(
      MorselScheduler::CarveChunks(chunks, context.morsel_grain),
      int64_t{0},
      [&](size_t, int64_t begin, int64_t end) {
        int64_t local = 0;
        for (int64_t c = begin; c < end; ++c) {
          const array::Chunk& chunk = *chunks[static_cast<size_t>(c)];
          for (const double value :
               chunk.attr_column(static_cast<size_t>(attr))) {
            int64_t key;
            if (AttrJoinKey(value, &key) &&
                table.Contains(static_cast<uint64_t>(key))) {
              ++local;
            }
          }
        }
        return local;
      },
      [](int64_t& acc, int64_t partial) { acc += partial; });
  TELEM_COUNTER_ADD("exec.join.attr_probe_hits", matches);
  return matches;
}

}  // namespace arraydb::exec

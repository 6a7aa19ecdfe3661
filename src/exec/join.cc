#include "exec/join.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <optional>
#include <utility>

#include "exec/morsel.h"
#include "hilbert/hilbert.h"
#include "telemetry/trace.h"
#include "util/logging.h"

namespace arraydb::exec {

namespace {

// Non-empty chunks in deterministic (lexicographic) order — the join work
// domain on both sides. Synthetic metadata-only chunks carry no cells.
std::vector<const array::Chunk*> NonEmptyChunks(const array::Array& array) {
  std::vector<const array::Chunk*> chunks;
  for (const array::Chunk* chunk : array.SortedChunks()) {
    if (chunk->num_cells() != 0) chunks.push_back(chunk);
  }
  return chunks;
}

// Cache-sized runs of whole chunks (the same carve the scan operators use).
std::vector<MorselRange> CarveChunks(
    const std::vector<const array::Chunk*>& chunks, int64_t grain) {
  std::vector<int64_t> weights;
  weights.reserve(chunks.size());
  for (const array::Chunk* chunk : chunks) {
    weights.push_back(static_cast<int64_t>(chunk->num_cells()));
  }
  return MorselScheduler::CarveByWeight(weights, grain);
}

// The common key space of a dimension join: per-dimension offsets and a
// codec ranking every cell of both sides into one 64-bit Hilbert key.
// Derived from the union of the sides' chunk bounding boxes — a pure
// function of the data, so keys (and with them partitions and results)
// never depend on schedule or configuration.
struct RankKeySpace {
  array::Coordinates lo;
  int rank_bits = 0;  // num_dims * bits: the occupied key width.
  std::optional<hilbert::HilbertCodec> codec;
};

std::optional<RankKeySpace> MakeRankKeySpace(
    const std::vector<const array::Chunk*>& build,
    const std::vector<const array::Chunk*>& probe) {
  RankKeySpace space;
  space.lo = build.front()->bbox_lo();
  array::Coordinates hi = build.front()->bbox_hi();
  const size_t ndims = space.lo.size();
  for (const auto* chunks : {&build, &probe}) {
    for (const array::Chunk* chunk : *chunks) {
      if (chunk->bbox_lo().size() != ndims) return std::nullopt;
      for (size_t d = 0; d < ndims; ++d) {
        space.lo[d] = std::min(space.lo[d], chunk->bbox_lo()[d]);
        hi[d] = std::max(hi[d], chunk->bbox_hi()[d]);
      }
    }
  }
  array::Coordinates extents(ndims);
  for (size_t d = 0; d < ndims; ++d) extents[d] = hi[d] - space.lo[d] + 1;
  const int bits = hilbert::BitsForExtents(extents);
  auto codec = hilbert::HilbertCodec::Create(static_cast<int>(ndims), bits);
  if (!codec.ok()) return std::nullopt;  // Rank or bit budget exceeded.
  space.rank_bits = static_cast<int>(ndims) * bits;
  space.codec.emplace(*codec);
  return space;
}

// splitmix64 finalizer: full-avalanche mix so radix-partitioned keys (which
// share their high bits within a partition) still spread over the slots.
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
  // Probe the larger side into the smaller side's key table (ties: `a`
  // builds) — the same side selection at every partition-bit setting.
  const array::Array& build = a.total_cells() <= b.total_cells() ? a : b;
  const array::Array& probe = a.total_cells() <= b.total_cells() ? b : a;
  const std::vector<const array::Chunk*> build_chunks = NonEmptyChunks(build);
  const std::vector<const array::Chunk*> probe_chunks = NonEmptyChunks(probe);
  if (build_chunks.empty() || probe_chunks.empty()) return 0;

  const auto space = MakeRankKeySpace(build_chunks, probe_chunks);
  if (!space.has_value()) {
    // No common rank key space (rank above the codec's state tables or
    // joint extents past the 64-bit budget): same semantics, set-keyed.
    TELEM_COUNTER_ADD("exec.join.set_fallbacks", 1);
    return internal::DimJoinCountBySet(a, b);
  }
  const hilbert::HilbertCodec& codec = *space->codec;
  const int64_t* key_lo = space->lo.data();

  // Radix geometry: a partition is the top `pbits` of the occupied rank
  // width. pbits = 0 degenerates to one table; the clamp keeps the shift
  // in range for narrow key spaces.
  const int pbits = std::clamp(context.join_partition_bits, 0,
                               std::min(space->rank_bits, 16));
  const size_t num_partitions = size_t{1} << pbits;
  const int shift = space->rank_bits - pbits;
  const auto partition_of = [pbits, shift](uint64_t key) {
    return pbits == 0 ? size_t{0} : static_cast<size_t>(key >> shift);
  };

  const MorselScheduler scheduler(context);
  const int64_t grain = context.morsel_grain;

  // Build stage 1 — morsel-parallel key scatter: each build morsel ranks
  // its chunks' packed coordinate columns in one codec batch and scatters
  // the keys into per-partition lists; lists concatenate in fixed morsel
  // order (set semantics make even that ordering immaterial, but the
  // merge contract is kept uniform with every other operator).
  std::vector<FlatKeySet> tables(num_partitions);
  {
    TELEM_SPAN("exec.join.build");
    TELEM_COUNTER_ADD("exec.join.build_keys", build.total_cells());
    using KeyLists = std::vector<std::vector<uint64_t>>;
    KeyLists partitioned = scheduler.Reduce(
        CarveChunks(build_chunks, grain), KeyLists(num_partitions),
        [&](size_t, int64_t begin, int64_t end) {
          KeyLists local(num_partitions);
          std::vector<uint64_t> ranks;
          for (int64_t c = begin; c < end; ++c) {
            const array::Chunk& chunk = *build_chunks[static_cast<size_t>(c)];
            ranks.resize(chunk.num_cells());
            codec.RankPacked(chunk.packed_coords().data(), chunk.num_cells(),
                             key_lo, ranks.data());
            for (const uint64_t key : ranks) {
              local[partition_of(key)].push_back(key);
            }
          }
          return local;
        },
        [](KeyLists& acc, KeyLists&& partial) {
          for (size_t p = 0; p < acc.size(); ++p) {
            std::move(partial[p].begin(), partial[p].end(),
                      std::back_inserter(acc[p]));
          }
        });

    // The partition-size histogram reads the merged (schedule-independent)
    // lists, so its contents are thread-count invariant too.
    for (const auto& keys : partitioned) {
      TELEM_HISTOGRAM_RECORD("exec.join.partition_cells",
                             static_cast<int64_t>(keys.size()));
    }

    // Build stage 2 — partition-parallel table construction: each
    // partition's flat table is built by exactly one morsel (its own slot;
    // insertion order cannot affect set membership).
    scheduler.Run(
        MorselScheduler::Carve(static_cast<int64_t>(num_partitions), 1),
        [&](size_t, int64_t begin, int64_t end) {
          for (int64_t p = begin; p < end; ++p) {
            auto& keys = partitioned[static_cast<size_t>(p)];
            auto& table = tables[static_cast<size_t>(p)];
            table.Reserve(keys.size());
            for (const uint64_t key : keys) table.Insert(key);
            keys.clear();
            keys.shrink_to_fit();
          }
        });
  }

  // Probe — morsel-parallel with per-morsel match counters, merged in
  // fixed morsel order (integer sums: bit-identical in any order, the
  // fixed order keeps the uniform contract).
  TELEM_SPAN("exec.join.probe");
  TELEM_COUNTER_ADD("exec.join.probe_cells", probe.total_cells());
  const int64_t matches = scheduler.Reduce(
      CarveChunks(probe_chunks, grain), int64_t{0},
      [&](size_t, int64_t begin, int64_t end) {
        int64_t local = 0;
        std::vector<uint64_t> ranks;
        for (int64_t c = begin; c < end; ++c) {
          const array::Chunk& chunk = *probe_chunks[static_cast<size_t>(c)];
          ranks.resize(chunk.num_cells());
          codec.RankPacked(chunk.packed_coords().data(), chunk.num_cells(),
                           key_lo, ranks.data());
          for (const uint64_t key : ranks) {
            if (tables[partition_of(key)].Contains(key)) ++local;
          }
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
  // key count is the (small) replicated side, so radix partitioning buys
  // nothing — parallelism comes from the morsel-parallel probe.
  FlatKeySet table;
  table.Reserve(keys.size());
  // arraydb-lint: order-insensitive -- FlatKeySet membership is identical
  // for any insertion order; only contains() results are consumed.
  for (const int64_t key : keys) table.Insert(static_cast<uint64_t>(key));
  const MorselScheduler scheduler(context);
  TELEM_SPAN("exec.join.attr_probe");
  const int64_t matches = scheduler.Reduce(
      CarveChunks(chunks, context.morsel_grain), int64_t{0},
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

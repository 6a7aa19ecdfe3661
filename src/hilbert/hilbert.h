// n-dimensional Hilbert space-filling curve.
//
// Implements the Butz/Hamilton bit-manipulation algorithm ("Compact Hilbert
// Indices", Hamilton CS-2006-07) for arbitrary dimensionality, with both the
// forward map (point -> index) and its inverse. The curve serializes the
// chunk grid such that successive indices are face-adjacent cells, which the
// Hilbert partitioner (§4.2) uses to keep spatially close chunks on the same
// node.
//
// For non-square ("rectangular") grids, HilbertRank embeds the grid in the
// smallest enclosing hypercube and orders cells by the restriction of the
// cube's curve to the grid — the ordering-equivalent of the pseudo-Hilbert
// scan for arbitrarily-sized rectangles cited by the paper [32]: it is a
// total order over the rectangle preserving the curve's locality.
//
// Two implementations produce identical indices:
//   - HilbertIndexReference: the per-bit Hamilton recurrence, kept as the
//     executable specification (and as the "seed" side of the perf
//     comparison in bench_micro_hilbert).
//   - HilbertCodec: the fast path. Coordinates are bit-interleaved in one
//     pass through per-byte spread lookup tables, then each n-bit level is
//     mapped through a precomputed (entry-point, direction) state-transition
//     table, so the per-level rotate/gray/entry/direction arithmetic
//     disappears from the hot loop. HilbertRankBatch amortizes codec setup
//     over whole chunk batches — the shape PlanScaleOut and parallel ingest
//     need.

#ifndef ARRAYDB_HILBERT_HILBERT_H_
#define ARRAYDB_HILBERT_HILBERT_H_

#include <cstdint>
#include <vector>

#include "array/coordinates.h"
#include "util/status.h"

namespace arraydb::hilbert {

namespace internal {

/// Precomputed per-dimensionality tables: byte-spread LUT for interleaving
/// plus the (entry-point, direction) state machine over n-bit level words.
/// State tables are built for n <= kMaxStateDims; higher dimensionalities
/// fall back to branchless per-level arithmetic on the interleaved word.
struct CurveTables {
  static constexpr int kMaxStateDims = 6;

  int n = 0;
  uint64_t spread[256] = {};     // byte b -> bits of b spread with stride n.
  int num_states = 0;            // n * 2^n when the state machine is built.
  std::vector<uint8_t> w;        // [state << n | l] -> level output word.
  std::vector<uint16_t> next;    // [state << n | l] -> next state.

  bool has_state_machine() const { return num_states > 0; }
};

/// Shared, lazily built, thread-safe table cache (one entry per n).
const CurveTables* GetCurveTables(int num_dims);

}  // namespace internal

/// Reusable encoder for a fixed (num_dims, bits) hypercube. Construction
/// resolves the shared lookup tables once; Rank() is then allocation-free.
/// Requires num_dims >= 1, bits >= 1, num_dims * bits <= 64.
class HilbertCodec {
 public:
  /// Checked factory for schema-facing callers. Returns InvalidArgument —
  /// instead of a CHECK-abort or a silent fall-through to the slower
  /// non-table path — when the geometry is invalid (num_dims < 1, bits < 1,
  /// num_dims * bits > 64) or the schema rank exceeds the precomputed
  /// state tables (num_dims > internal::CurveTables::kMaxStateDims = 6,
  /// the current fast-path limit; ROADMAP tracks extending the tables with
  /// a compressed two-level scheme if higher-rank schemas appear).
  static util::StatusOr<HilbertCodec> Create(int num_dims, int bits);

  /// Unchecked constructor: aborts on invalid geometry and accepts any
  /// rank <= 64, transparently using branchless per-level arithmetic above
  /// the state-table limit (reference-exact, just slower). Schema-driven
  /// callers should prefer Create.
  HilbertCodec(int num_dims, int bits);

  int num_dims() const { return n_; }
  int bits() const { return bits_; }

  /// Hilbert index of `point` (num_dims coordinates, each < 2^bits).
  uint64_t Rank(const uint32_t* point) const;

  /// Bounds-checked rank of grid coordinates against `extents` (the grid
  /// this codec was sized for): 0 <= coords[i] < extents[i].
  uint64_t RankChecked(const array::Coordinates& coords,
                       const array::Coordinates& extents) const;

 private:
  int n_;
  int bits_;
  int coord_bytes_;  // Bytes per coordinate actually carrying bits.
  const internal::CurveTables* tables_;
};

/// Maps a point in the n-D hypercube [0, 2^bits)^n to its Hilbert index in
/// [0, 2^(n*bits)). Requires n * bits <= 64 and n >= 1.
uint64_t HilbertIndex(const std::vector<uint32_t>& point, int bits);

/// The original per-bit Hamilton recurrence. Identical results to
/// HilbertIndex; kept as the executable specification for property tests
/// and as the seed baseline in bench_micro_hilbert.
uint64_t HilbertIndexReference(const std::vector<uint32_t>& point, int bits);

/// Inverse of HilbertIndex.
std::vector<uint32_t> HilbertPoint(uint64_t index, int num_dims, int bits);

/// Number of bits needed so a hypercube of side 2^bits covers `extents`:
/// ceil(log2(max extent)), at least 1. Defined for every positive int64
/// extent (63 bits past 2^62).
int BitsForExtents(const array::Coordinates& extents);

/// Total order over a rectangular grid with per-dimension `extents`:
/// the Hilbert index of `coords` within the smallest enclosing hypercube.
/// Coordinates must satisfy 0 <= coords[i] < extents[i].
uint64_t HilbertRank(const array::Coordinates& coords,
                     const array::Coordinates& extents);

/// Seed-path equivalent of HilbertRank (per-call setup + per-bit loops).
uint64_t HilbertRankReference(const array::Coordinates& coords,
                              const array::Coordinates& extents);

/// Batched HilbertRank: one codec setup amortized over all `points`.
/// Equivalent to calling HilbertRank on each element.
std::vector<uint64_t> HilbertRankBatch(
    const std::vector<array::Coordinates>& points,
    const array::Coordinates& extents);

}  // namespace arraydb::hilbert

#endif  // ARRAYDB_HILBERT_HILBERT_H_

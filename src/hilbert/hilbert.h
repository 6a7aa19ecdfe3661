// n-dimensional Hilbert space-filling curve.
//
// Implements the Butz/Hamilton bit-manipulation algorithm ("Compact Hilbert
// Indices", Hamilton CS-2006-07) for arbitrary dimensionality, with both the
// forward map (point -> index) and its inverse. The curve serializes the
// chunk grid such that successive indices are face-adjacent cells, which the
// Hilbert partitioner (§4.2) uses to keep spatially close chunks on the same
// node.
//
// For non-square ("rectangular") grids, RankChecked embeds the grid in the
// smallest enclosing hypercube (BitsForExtents) and orders cells by the
// restriction of the cube's curve to the grid — the ordering-equivalent of
// the pseudo-Hilbert scan for arbitrarily-sized rectangles cited by the
// paper [32]: it is a total order over the rectangle preserving the curve's
// locality.
//
// HilbertCodec is the one rank path. Coordinates are bit-interleaved in one
// pass through per-byte spread lookup tables, then each n-bit level is
// mapped through a precomputed (entry-point, direction) state-transition
// table, so the per-level rotate/gray/entry/direction arithmetic is out of
// the hot loop. The tables exist for ranks up to 6; Create rejects higher
// ranks. One codec sized to a grid ranks any number of its cells
// (HilbertPartitioner::RankOf).
//
// HilbertIndexReference, HilbertRankReference and HilbertPoint are the
// executable specification: the per-bit Hamilton recurrence and its
// inverse, which the codec must match exactly (and the "seed" side of the
// perf comparison in bench_micro_hilbert).

#ifndef ARRAYDB_HILBERT_HILBERT_H_
#define ARRAYDB_HILBERT_HILBERT_H_

#include <cstdint>
#include <vector>

#include "array/coordinates.h"
#include "util/status.h"

namespace arraydb::hilbert {

namespace internal {
struct CurveTables;  // Per-rank lookup tables, shared by every codec.
}  // namespace internal

/// Reusable encoder for a fixed (num_dims, bits) hypercube. Construction
/// resolves the shared lookup tables once; Rank() is then allocation-free.
class HilbertCodec {
 public:
  /// Returns InvalidArgument when the geometry is invalid (num_dims < 1,
  /// bits < 1, num_dims * bits > 64) or the rank exceeds the precomputed
  /// state tables (num_dims > 6).
  static util::StatusOr<HilbertCodec> Create(int num_dims, int bits);

  int num_dims() const { return n_; }
  int bits() const { return bits_; }

  /// Hilbert index of `point` (num_dims coordinates, each < 2^bits).
  uint64_t Rank(const uint32_t* point) const;

  /// Bounds-checked rank of grid coordinates against `extents` (the grid
  /// this codec was sized for): 0 <= coords[i] < extents[i].
  uint64_t RankChecked(const array::Coordinates& coords,
                       const array::Coordinates& extents) const;

 private:
  HilbertCodec(int num_dims, int bits);

  int n_;
  int bits_;
  int coord_bytes_;  // Bytes per coordinate actually carrying bits.
  const internal::CurveTables* tables_;
};

/// The per-bit Hamilton recurrence: maps a point in the n-D hypercube
/// [0, 2^bits)^n to its Hilbert index in [0, 2^(n*bits)). Requires n >= 1
/// and n * bits <= 64. HilbertCodec::Rank must return the same index.
uint64_t HilbertIndexReference(const std::vector<uint32_t>& point, int bits);

/// Inverse of HilbertIndexReference.
std::vector<uint32_t> HilbertPoint(uint64_t index, int num_dims, int bits);

/// Number of bits needed so a hypercube of side 2^bits covers `extents`:
/// ceil(log2(max extent)), at least 1. Defined for every positive int64
/// extent (63 bits past 2^62).
int BitsForExtents(const array::Coordinates& extents);

/// Total order over a rectangular grid with per-dimension `extents`: the
/// reference Hilbert index of `coords` within the smallest enclosing
/// hypercube. Coordinates must satisfy 0 <= coords[i] < extents[i].
/// HilbertCodec::RankChecked, on a codec sized by BitsForExtents, must
/// return the same rank.
uint64_t HilbertRankReference(const array::Coordinates& coords,
                              const array::Coordinates& extents);

}  // namespace arraydb::hilbert

#endif  // ARRAYDB_HILBERT_HILBERT_H_

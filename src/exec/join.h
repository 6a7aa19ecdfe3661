// Morsel-parallel joins: the paper's Fig. 6 MODIS vegetation-index join
// and the AIS vessel join, executed on materialized arrays.
//
// A dimension join of two arrays on one chunk grid is a merge join. A
// position can only match inside the chunk with the same coordinates on
// both sides, so one linear merge of the two sorted chunk directories
// pairs the chunks; morsels of pairs, weighted by probe cells, sort each
// pair's positions and merge-count them. Arrays on different grids take
// the set-keyed reference join.
//
// Determinism contract (same as the scan/aggregate operators, see
// src/exec/README.md "Merge-join contract"): the pairs and their morsels
// are a pure function of the data and the grain; per-morsel integer
// counts sum in fixed morsel order, so results are bit-identical across
// thread counts and morsel grains.

#ifndef ARRAYDB_EXEC_JOIN_H_
#define ARRAYDB_EXEC_JOIN_H_

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "array/array.h"
#include "exec/exec_context.h"

namespace arraydb::exec {

/// Flat open-addressing set of uint64 keys: power-of-two slot array, linear
/// probing, splitmix64-mixed hashing. Empty slots hold 0; a present zero
/// key is tracked out of band. No node allocation, no per-key indirection:
/// the attribute join's key set.
class FlatKeySet {
 public:
  /// Sizes the slot array for `n` distinct keys at <= 50% load.
  void Reserve(size_t n);

  void Insert(uint64_t key);
  bool Contains(uint64_t key) const;

  /// Distinct keys inserted.
  size_t size() const { return size_; }

 private:
  void Grow();

  std::vector<uint64_t> slots_;  // 0 = empty; power-of-two length.
  size_t mask_ = 0;
  size_t size_ = 0;
  bool has_zero_ = false;
};

/// Join benchmark (MODIS): number of positions occupied in both arrays —
/// the size of the position join used for the vegetation index.
///
/// Multiplicity semantics (pinned by the invariance suite): the side with
/// fewer total cells builds (ties: `a` builds), the other side probes.
/// Duplicate build-side positions collapse and count once; every
/// probe-side cell whose position is present counts, so duplicate
/// probe-side positions each contribute a match. Arrays of different rank
/// never share a position: the join is empty.
///
/// When both schemas put chunk boundaries in the same places (the same
/// `lo` and `chunk_interval` in every dimension), runs the merge join over
/// the two chunk directories; otherwise falls back to
/// internal::DimJoinCountBySet with identical semantics.
int64_t DimJoinCount(const array::Array& a, const array::Array& b,
                     const ExecContext& context = {});

/// Join benchmark (AIS): cells of `array` whose attribute `attr` value
/// rounds (llround: nearest integer, ties away from zero) to a key in
/// `keys` — a hash join against the replicated vessel array. Non-finite
/// values and values outside the int64 range never match.
int64_t AttrJoinCount(const array::Array& array, int attr,
                      const std::unordered_set<int64_t>& keys,
                      const ExecContext& context = {});

/// Integer join key of an attribute value: nearest integer, ties away from
/// zero (std::llround). Returns false — the value can never match — for
/// non-finite values and values outside the int64 range.
bool AttrJoinKey(double value, int64_t* key);

namespace internal {

/// The unordered_set<Coordinates> dimension join: the executable
/// multiplicity-semantics specification, DimJoinCount's fallback for
/// arrays on different chunk grids, and the "seed" side of the
/// merge-vs-set comparison in bench_fig6_join.
int64_t DimJoinCountBySet(const array::Array& a, const array::Array& b);

}  // namespace internal

}  // namespace arraydb::exec

#endif  // ARRAYDB_EXEC_JOIN_H_

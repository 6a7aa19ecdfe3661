// ExecContext: the explicit per-call execution settings of the data-plane
// operators and joins — worker threads, morsel grain and join partition
// bits.
//
// It is the only way settings reach the operators (exec/operators.h), the
// joins (exec/join.h) and exec::MorselScheduler: every entry point takes a
// `const ExecContext&`, and the operators' `{}` default runs sequentially
// with the default grain and partition bits. There is no process-global
// state, so concurrent sessions with different settings are fully
// independent. Results never depend on the context (the determinism
// contract, see src/exec/README.md); a call's settings change only its
// timing.

#ifndef ARRAYDB_EXEC_EXEC_CONTEXT_H_
#define ARRAYDB_EXEC_EXEC_CONTEXT_H_

#include <cstdint>

namespace arraydb::exec {

/// Default target cells per morsel. ~16k cells keeps a morsel's touched
/// columns (coords + one attribute + mask, ~33 B/cell at rank 3) inside a
/// core's L2 slice while still amortizing dispatch overhead.
inline constexpr int64_t kDefaultMorselGrainCells = 16384;

/// Default number of high rank bits selecting a join build partition (16
/// partitions): enough that every hardware thread owns private tables at
/// testbed scale while each partition's key list stays cache-friendly.
inline constexpr int kDefaultJoinPartitionBits = 4;

struct ExecContext {
  /// Worker threads for morsel-parallel operator execution (1 = sequential,
  /// 0 = auto via util::ResolveThreadCount). Results are bit-identical at
  /// every setting (morsel determinism contract).
  int data_plane_threads = 1;
  /// Radix partition bits for the rank-keyed hash joins; 0 = a single
  /// partition. Clamped to the key space's available rank bits. Results
  /// are bit-identical at every setting.
  int join_partition_bits = kDefaultJoinPartitionBits;
  /// Target cells per morsel (> 0). Fixes reduction boundaries: value-exact
  /// operators are grain-invariant, floating-point sums may differ in the
  /// last ULPs between grains (deterministically; see src/exec/README.md).
  int64_t morsel_grain = kDefaultMorselGrainCells;
};

}  // namespace arraydb::exec

#endif  // ARRAYDB_EXEC_EXEC_CONTEXT_H_

// ExecContext: the explicit per-call execution settings of the data-plane
// operators and joins — worker threads and morsel grain.
//
// It is the only way settings reach the operators (exec/operators.h), the
// joins (exec/join.h) and exec::MorselScheduler: every entry point takes a
// `const ExecContext&`, and the operators' `{}` default runs sequentially
// with the default grain. There is no process-global state, so concurrent
// sessions with different settings are fully independent. Results never
// depend on the context (the determinism contract, see src/exec/README.md);
// a call's settings change only its timing.

#ifndef ARRAYDB_EXEC_EXEC_CONTEXT_H_
#define ARRAYDB_EXEC_EXEC_CONTEXT_H_

#include <cstdint>

namespace arraydb::exec {

/// Default target cells per morsel. ~16k cells keeps a morsel's touched
/// columns (coords + one attribute + mask, ~33 B/cell at rank 3) inside a
/// core's L2 slice while still amortizing dispatch overhead.
inline constexpr int64_t kDefaultMorselGrainCells = 16384;

/// Default of ExecContext::join_partition_bits, which no operator reads.
/// Kept, with the field, only for perfbench's run fingerprint.
inline constexpr int kDefaultJoinPartitionBits = 4;

struct ExecContext {
  /// Worker threads for morsel-parallel operator execution (1 = sequential,
  /// 0 = auto via util::ResolveThreadCount). Results are bit-identical at
  /// every setting (morsel determinism contract).
  int data_plane_threads = 1;
  /// Has no effect: no operator or join reads it. It stays only because
  /// perfbench prints it in its run fingerprint (ROADMAP lists it for
  /// removal with that row).
  int join_partition_bits = kDefaultJoinPartitionBits;
  /// Target cells per morsel (> 0). Fixes reduction boundaries: value-exact
  /// operators are grain-invariant, floating-point sums may differ in the
  /// last ULPs between grains (deterministically; see src/exec/README.md).
  int64_t morsel_grain = kDefaultMorselGrainCells;
};

}  // namespace arraydb::exec

#endif  // ARRAYDB_EXEC_EXEC_CONTEXT_H_

// Runtime kernel dispatch for the SIMD scan layer.
//
// Every kernel in scan_kernels.h has a portable scalar implementation and,
// when the build enables it, an AVX2 implementation. The variant is chosen
// per call from ActiveLevel():
//
//   1. a process-wide override installed by a ScopedDispatch (tests and
//      benches), else
//   2. the best level the CPU supports among those compiled in.
//
// Both variants of every kernel are bit-identical by contract — including
// the floating-point reductions, whose scalar fallbacks reproduce the AVX2
// lane-accumulation order — so the dispatch choice never changes results,
// only throughput.

#ifndef ARRAYDB_SIMD_DISPATCH_H_
#define ARRAYDB_SIMD_DISPATCH_H_

namespace arraydb::simd {

enum class DispatchLevel {
  kScalar = 0,
  kAvx2 = 1,
};

const char* ToString(DispatchLevel level);

/// True when the AVX2 kernel translation unit was compiled in (x86-64 build
/// without SIMD_FORCE_SCALAR). Says nothing about the running CPU.
bool CompiledWithAvx2();

/// Best level usable on this machine: compiled in AND supported by the CPU.
/// Cached; cheap to call from kernel hot paths.
DispatchLevel DetectedLevel();

/// Level the kernels will actually use: the innermost ScopedDispatch's
/// level if one is alive, otherwise DetectedLevel().
DispatchLevel ActiveLevel();

/// RAII process-wide dispatch override for tests and benches; nestable —
/// the destructor restores whatever override (or none) was active at
/// construction. `ok()` reports whether the requested level was installed:
/// a level this machine cannot run (kAvx2 on a CPU without it, or in a
/// force-scalar build) installs nothing rather than clamps.
class ScopedDispatch {
 public:
  explicit ScopedDispatch(DispatchLevel level);
  ~ScopedDispatch();
  ScopedDispatch(const ScopedDispatch&) = delete;
  ScopedDispatch& operator=(const ScopedDispatch&) = delete;
  bool ok() const { return ok_; }

 private:
  int previous_;  // Raw override slot value to restore (-1 = none).
  bool ok_;
};

}  // namespace arraydb::simd

#endif  // ARRAYDB_SIMD_DISPATCH_H_

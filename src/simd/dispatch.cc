#include "simd/dispatch.h"

#include <atomic>

namespace arraydb::simd {
namespace {

// -1 = no override; otherwise the int value of the forced DispatchLevel.
std::atomic<int> g_override{-1};

bool CpuSupportsAvx2() {
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

DispatchLevel Detect() {
  return CompiledWithAvx2() && CpuSupportsAvx2() ? DispatchLevel::kAvx2
                                                 : DispatchLevel::kScalar;
}

}  // namespace

const char* ToString(DispatchLevel level) {
  switch (level) {
    case DispatchLevel::kScalar:
      return "scalar";
    case DispatchLevel::kAvx2:
      return "avx2";
  }
  return "unknown";
}

bool CompiledWithAvx2() {
#ifdef ARRAYDB_SIMD_HAVE_AVX2
  return true;
#else
  return false;
#endif
}

DispatchLevel DetectedLevel() {
  static const DispatchLevel level = Detect();
  return level;
}

DispatchLevel ActiveLevel() {
  const int override = g_override.load(std::memory_order_relaxed);
  if (override >= 0) return static_cast<DispatchLevel>(override);
  return DetectedLevel();
}

ScopedDispatch::ScopedDispatch(DispatchLevel level)
    : previous_(g_override.load(std::memory_order_relaxed)),
      ok_(level <= DetectedLevel()) {
  if (ok_) {
    g_override.store(static_cast<int>(level), std::memory_order_relaxed);
  }
}

ScopedDispatch::~ScopedDispatch() {
  g_override.store(previous_, std::memory_order_relaxed);
}

}  // namespace arraydb::simd

// Deterministic pseudo-random number generation and the sampling
// distributions used by the workload generators.
//
// All randomness in the library flows through Rng so that every experiment
// is reproducible from a seed. The generator is xoshiro256**, seeded via
// SplitMix64 (public-domain algorithms by Blackman & Vigna).

#ifndef ARRAYDB_UTIL_RNG_H_
#define ARRAYDB_UTIL_RNG_H_

#include <cstdint>
#include <vector>

namespace arraydb::util {

/// Stateless 64-bit mixing function; also useful as a hash.
uint64_t SplitMix64(uint64_t x);

/// Hashes a sequence of 64-bit words into one word (for chunk coordinates).
uint64_t HashCombine(uint64_t seed, uint64_t value);

/// Deterministic PRNG (xoshiro256**).
class Rng {
 public:
  explicit Rng(uint64_t seed);

  /// Uniform in [0, 2^64).
  uint64_t NextUint64();

  /// Uniform in [0, bound). `bound` must be positive.
  uint64_t NextBounded(uint64_t bound);

  /// Uniform in [0, 1).
  double NextDouble();

  /// Uniform in [lo, hi).
  double NextUniform(double lo, double hi);

  /// Standard normal via Marsaglia polar method.
  double NextGaussian();

  /// Lognormal with parameters of the underlying normal.
  double NextLogNormal(double mu, double sigma);

 private:
  uint64_t s_[4];
};

/// Precomputed cumulative distribution for repeated Zipf draws.
/// Probability of rank r (0-based) is proportional to 1/(r+1)^alpha.
class ZipfTable {
 public:
  ZipfTable(int64_t n, double alpha);

  /// Samples a rank in [0, n) using `rng`. O(log n).
  int64_t Sample(Rng& rng) const;

  /// Probability mass of rank r.
  double Pmf(int64_t r) const;

  int64_t size() const { return static_cast<int64_t>(cdf_.size()); }

 private:
  std::vector<double> cdf_;
  double alpha_;
  double norm_;
};

}  // namespace arraydb::util

#endif  // ARRAYDB_UTIL_RNG_H_

#include "util/rng.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace arraydb::util {

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t HashCombine(uint64_t seed, uint64_t value) {
  // boost::hash_combine recipe widened to 64 bits.
  return seed ^ (SplitMix64(value) + 0x9e3779b97f4a7c15ULL + (seed << 12) +
                 (seed >> 4));
}

namespace {
inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t x = seed;
  for (auto& s : s_) {
    x = SplitMix64(x);
    s = x;
  }
}

uint64_t Rng::NextUint64() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Rng::NextBounded(uint64_t bound) {
  ARRAYDB_CHECK_GT(bound, 0u);
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    const uint64_t r = NextUint64();
    if (r >= threshold) return r % bound;
  }
}

double Rng::NextDouble() {
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

double Rng::NextUniform(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

double Rng::NextGaussian() {
  // Marsaglia polar method.
  for (;;) {
    const double u = 2.0 * NextDouble() - 1.0;
    const double v = 2.0 * NextDouble() - 1.0;
    const double s = u * u + v * v;
    if (s > 0.0 && s < 1.0) {
      return u * std::sqrt(-2.0 * std::log(s) / s);
    }
  }
}

double Rng::NextLogNormal(double mu, double sigma) {
  return std::exp(mu + sigma * NextGaussian());
}

ZipfTable::ZipfTable(int64_t n, double alpha) : alpha_(alpha) {
  ARRAYDB_CHECK_GT(n, 0);
  cdf_.resize(static_cast<size_t>(n));
  double sum = 0.0;
  for (int64_t r = 0; r < n; ++r) {
    sum += 1.0 / std::pow(static_cast<double>(r + 1), alpha);
    cdf_[static_cast<size_t>(r)] = sum;
  }
  norm_ = sum;
  for (auto& c : cdf_) c /= sum;
}

int64_t ZipfTable::Sample(Rng& rng) const {
  const double u = rng.NextDouble();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) return static_cast<int64_t>(cdf_.size()) - 1;
  return static_cast<int64_t>(it - cdf_.begin());
}

double ZipfTable::Pmf(int64_t r) const {
  ARRAYDB_CHECK_GE(r, 0);
  ARRAYDB_CHECK_LT(r, size());
  return 1.0 / std::pow(static_cast<double>(r + 1), alpha_) / norm_;
}

}  // namespace arraydb::util

#include "hilbert/hilbert.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <memory>
#include <mutex>
#include <string>

#include "util/logging.h"

namespace arraydb::hilbert {
namespace {

// All helpers operate on n-bit words stored in uint64_t.

inline uint64_t MaskN(int n) {
  return n >= 64 ? ~0ULL : ((1ULL << n) - 1);
}

// Rotates the low n bits of x right by r (branchless; the (n - r) & 63
// keeps the complementary shift in range for every n in [1, 64], and the
// final mask discards whatever the r == 0 or n < 64 corner cases smear
// above bit n-1).
inline uint64_t RotRight(uint64_t x, int r, int n) {
  r %= n;
  x &= MaskN(n);
  return ((x >> r) | (x << ((n - r) & 63))) & MaskN(n);
}

// Rotates the low n bits of x left by r.
inline uint64_t RotLeft(uint64_t x, int r, int n) {
  r %= n;
  x &= MaskN(n);
  return ((x << r) | (x >> ((n - r) & 63))) & MaskN(n);
}

// Binary reflected Gray code.
inline uint64_t Gray(uint64_t i) { return i ^ (i >> 1); }

// Inverse Gray code (prefix xor).
inline uint64_t GrayInverse(uint64_t g) {
  uint64_t i = g;
  for (int shift = 1; shift < 64; shift <<= 1) i ^= i >> shift;
  return i;
}

// Number of trailing set (one) bits.
inline int TrailingSetBits(uint64_t i) { return std::countr_one(i); }

// Entry point e(i) of the Hilbert curve in sub-hypercube i (Hamilton Lemma
// 2.8): e(0) = 0, e(i) = gray(2 * floor((i-1)/2)).
inline uint64_t EntryPoint(uint64_t i) {
  if (i == 0) return 0;
  return Gray(2 * ((i - 1) / 2));
}

// Intra sub-hypercube direction d(i) (Hamilton Lemma 2.11).
inline int Direction(uint64_t i, int n) {
  if (i == 0) return 0;
  if ((i & 1) == 0) return TrailingSetBits(i - 1) % n;
  return TrailingSetBits(i) % n;
}

std::unique_ptr<internal::CurveTables> BuildCurveTables(int n) {
  auto t = std::make_unique<internal::CurveTables>();
  t->n = n;
  // Byte-spread LUT: bit k of a byte lands at position k * n. Positions at
  // or above 64 only arise for input bits a valid coordinate can never set
  // (they would overflow the n * bits <= 64 budget), so they are dropped.
  for (int b = 0; b < 256; ++b) {
    uint64_t s = 0;
    for (int k = 0; k < 8; ++k) {
      if (((b >> k) & 1) != 0 && k * n < 64) s |= 1ULL << (k * n);
    }
    t->spread[static_cast<size_t>(b)] = s;
  }
  if (n > internal::CurveTables::kMaxStateDims) return t;

  // State machine over (entry point e, direction d). One level of the
  // Hamilton recurrence maps an n-bit input word l to the output word w and
  // the next (e, d) frame; enumerating all combinations removes the
  // rotate/gray/entry/direction arithmetic from the encode loop.
  const uint64_t words = 1ULL << n;
  t->num_states = static_cast<int>(words) * n;
  t->w.assign(static_cast<size_t>(t->num_states) << n, 0);
  t->next.assign(t->w.size(), 0);
  for (uint64_t e = 0; e < words; ++e) {
    for (int d = 0; d < n; ++d) {
      const uint32_t state = static_cast<uint32_t>(e) * static_cast<uint32_t>(n) +
                             static_cast<uint32_t>(d);
      for (uint64_t l = 0; l < words; ++l) {
        const uint64_t local = RotRight(l ^ e, d + 1, n);
        const uint64_t w = GrayInverse(local) & MaskN(n);
        const uint64_t e2 = (e ^ RotLeft(EntryPoint(w), d + 1, n)) & MaskN(n);
        const int d2 = (d + Direction(w, n) + 1) % n;
        const size_t idx = (static_cast<size_t>(state) << n) | l;
        t->w[idx] = static_cast<uint8_t>(w);
        t->next[idx] = static_cast<uint16_t>(
            e2 * static_cast<uint64_t>(n) + static_cast<uint64_t>(d2));
      }
    }
  }
  return t;
}

}  // namespace

namespace internal {

const CurveTables* GetCurveTables(int num_dims) {
  ARRAYDB_CHECK_GE(num_dims, 1);
  ARRAYDB_CHECK_LE(num_dims, 64);
  static std::array<std::atomic<const CurveTables*>, 65> cache{};
  static std::mutex build_mutex;
  auto& slot = cache[static_cast<size_t>(num_dims)];
  const CurveTables* t = slot.load(std::memory_order_acquire);
  if (t != nullptr) return t;
  std::lock_guard<std::mutex> lock(build_mutex);
  t = slot.load(std::memory_order_relaxed);
  if (t != nullptr) return t;
  // Intentionally leaked: process-lifetime cache shared across threads.
  const CurveTables* built = BuildCurveTables(num_dims).release();
  slot.store(built, std::memory_order_release);
  return built;
}

}  // namespace internal

util::StatusOr<HilbertCodec> HilbertCodec::Create(int num_dims, int bits) {
  if (num_dims < 1) {
    return util::InvalidArgument("num_dims must be >= 1");
  }
  if (bits < 1) {
    return util::InvalidArgument("bits must be >= 1");
  }
  if (static_cast<int64_t>(num_dims) * static_cast<int64_t>(bits) > 64) {
    return util::InvalidArgument(
        "num_dims * bits exceeds the 64-bit index budget");
  }
  if (num_dims > internal::CurveTables::kMaxStateDims) {
    return util::InvalidArgument(
        "schema rank exceeds the Hilbert state tables (" +
        std::to_string(num_dims) + " dims > " +
        std::to_string(internal::CurveTables::kMaxStateDims) +
        "-dim limit); extend CurveTables before ranking this schema");
  }
  return HilbertCodec(num_dims, bits);
}

HilbertCodec::HilbertCodec(int num_dims, int bits)
    : n_(num_dims), bits_(bits) {
  ARRAYDB_CHECK_GE(n_, 1);
  ARRAYDB_CHECK_GE(bits_, 1);
  ARRAYDB_CHECK_LE(n_ * bits_, 64);
  // Coordinates arrive as uint32, so at most four bytes carry bits.
  coord_bytes_ = std::min((bits_ + 7) / 8, 4);
  tables_ = internal::GetCurveTables(n_);
}

uint64_t HilbertCodec::Rank(const uint32_t* point) const {
  // Interleave all coordinates into one word: bit m of dimension j lands at
  // position m * n + j, one table lookup per coordinate byte.
  uint64_t interleaved = 0;
  for (int j = 0; j < n_; ++j) {
    const uint32_t v = point[j];
    for (int k = 0; k < coord_bytes_; ++k) {
      interleaved |= tables_->spread[(v >> (8 * k)) & 0xFF]
                     << (8 * k * n_ + j);
    }
  }
  const uint64_t mask = MaskN(n_);
  uint64_t h = 0;
  if (tables_->has_state_machine()) {
    uint32_t state = 0;
    for (int i = bits_ - 1; i >= 0; --i) {
      const uint64_t l = (interleaved >> (i * n_)) & mask;
      const size_t idx = (static_cast<size_t>(state) << n_) | l;
      h = (h << n_) | tables_->w[idx];
      state = tables_->next[idx];
    }
    return h;
  }
  // High-dimensional fallback: branchless per-level arithmetic, still fed
  // from the interleaved word (no per-dimension bit gather).
  uint64_t e = 0;
  int d = 0;
  for (int i = bits_ - 1; i >= 0; --i) {
    uint64_t l = (interleaved >> (i * n_)) & mask;
    l = RotRight(l ^ e, d + 1, n_);
    const uint64_t w = GrayInverse(l) & mask;
    e ^= RotLeft(EntryPoint(w), d + 1, n_);
    d = (d + Direction(w, n_) + 1) % n_;
    h = (h << n_) | w;
  }
  return h;
}

uint64_t HilbertCodec::RankChecked(const array::Coordinates& coords,
                                   const array::Coordinates& extents) const {
  ARRAYDB_CHECK_EQ(coords.size(), extents.size());
  ARRAYDB_CHECK_EQ(static_cast<int>(coords.size()), n_);
  std::array<uint32_t, 64> point;
  for (size_t i = 0; i < coords.size(); ++i) {
    ARRAYDB_CHECK_GE(coords[i], 0);
    ARRAYDB_CHECK_LT(coords[i], extents[i]);
    point[i] = static_cast<uint32_t>(coords[i]);
  }
  return Rank(point.data());
}

uint64_t HilbertIndex(const std::vector<uint32_t>& point, int bits) {
  const int n = static_cast<int>(point.size());
  ARRAYDB_CHECK_GE(n, 1);
  ARRAYDB_CHECK_GE(bits, 1);
  ARRAYDB_CHECK_LE(n * bits, 64);
  return HilbertCodec(n, bits).Rank(point.data());
}

uint64_t HilbertIndexReference(const std::vector<uint32_t>& point, int bits) {
  const int n = static_cast<int>(point.size());
  ARRAYDB_CHECK_GE(n, 1);
  ARRAYDB_CHECK_GE(bits, 1);
  ARRAYDB_CHECK_LE(n * bits, 64);

  uint64_t h = 0;
  uint64_t e = 0;
  int d = 0;
  for (int i = bits - 1; i >= 0; --i) {
    // Gather bit i of every coordinate: bit j of l is bit i of point[j].
    uint64_t l = 0;
    for (int j = 0; j < n; ++j) {
      l |= static_cast<uint64_t>((point[static_cast<size_t>(j)] >> i) & 1u)
           << j;
    }
    // Transform into the local frame of the current sub-hypercube.
    l = RotRight(l ^ e, d + 1, n);
    const uint64_t w = GrayInverse(l);
    // Update the frame for the next (finer) level.
    e = e ^ RotLeft(EntryPoint(w), d + 1, n);
    d = (d + Direction(w, n) + 1) % n;
    h = (h << n) | w;
  }
  return h;
}

std::vector<uint32_t> HilbertPoint(uint64_t index, int num_dims, int bits) {
  const int n = num_dims;
  ARRAYDB_CHECK_GE(n, 1);
  ARRAYDB_CHECK_GE(bits, 1);
  ARRAYDB_CHECK_LE(n * bits, 64);

  std::vector<uint32_t> point(static_cast<size_t>(n), 0);
  uint64_t e = 0;
  int d = 0;
  for (int i = bits - 1; i >= 0; --i) {
    const uint64_t w = (index >> (i * n)) & MaskN(n);
    uint64_t l = Gray(w);
    // Transform out of the local frame (inverse of the forward transform).
    l = RotLeft(l, d + 1, n) ^ e;
    for (int j = 0; j < n; ++j) {
      point[static_cast<size_t>(j)] |= static_cast<uint32_t>((l >> j) & 1)
                                       << i;
    }
    e = e ^ RotLeft(EntryPoint(w), d + 1, n);
    d = (d + Direction(w, n) + 1) % n;
  }
  return point;
}

int BitsForExtents(const array::Coordinates& extents) {
  int64_t max_extent = 1;
  for (int64_t e : extents) {
    ARRAYDB_CHECK_GT(e, 0);
    if (e > max_extent) max_extent = e;
  }
  // ceil(log2(max_extent)), floored at 1; defined for every positive int64.
  return std::max(1, static_cast<int>(std::bit_width(
                         static_cast<uint64_t>(max_extent) - 1)));
}

uint64_t HilbertRank(const array::Coordinates& coords,
                     const array::Coordinates& extents) {
  ARRAYDB_CHECK_EQ(coords.size(), extents.size());
  const HilbertCodec codec(static_cast<int>(extents.size()),
                           BitsForExtents(extents));
  return codec.RankChecked(coords, extents);
}

uint64_t HilbertRankReference(const array::Coordinates& coords,
                              const array::Coordinates& extents) {
  ARRAYDB_CHECK_EQ(coords.size(), extents.size());
  const int bits = BitsForExtents(extents);
  std::vector<uint32_t> point(coords.size());
  for (size_t i = 0; i < coords.size(); ++i) {
    ARRAYDB_CHECK_GE(coords[i], 0);
    ARRAYDB_CHECK_LT(coords[i], extents[i]);
    point[i] = static_cast<uint32_t>(coords[i]);
  }
  return HilbertIndexReference(point, bits);
}

std::vector<uint64_t> HilbertRankBatch(
    const std::vector<array::Coordinates>& points,
    const array::Coordinates& extents) {
  std::vector<uint64_t> ranks;
  ranks.reserve(points.size());
  if (points.empty()) return ranks;
  const HilbertCodec codec(static_cast<int>(extents.size()),
                           BitsForExtents(extents));
  for (const auto& coords : points) {
    ranks.push_back(codec.RankChecked(coords, extents));
  }
  return ranks;
}

}  // namespace arraydb::hilbert

// Lint fixture: R1-clean patterns — waived sorted extraction, waived
// commutative use, and lookups that never iterate. Never compiled.
#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

using ChunkMap = std::unordered_map<int64_t, double>;

std::vector<int64_t> SortedKeys(const ChunkMap& chunks) {
  std::vector<int64_t> out;
  out.reserve(chunks.size());
  // arraydb-lint: ordered-extract -- copied out, then sorted below.
  for (const auto& [key, value] : chunks) out.push_back(key);
  std::sort(out.begin(), out.end());
  return out;
}

int64_t CountLarge(const ChunkMap& chunks) {
  int64_t n = 0;
  // arraydb-lint: order-insensitive -- exact integer count.
  for (const auto& [key, value] : chunks) {
    if (value > 1.0) ++n;
  }
  return n;
}

double LookupOnly(const ChunkMap& chunks, int64_t key) {
  const auto it = chunks.find(key);  // find/end lookups are not iteration.
  return it == chunks.end() ? 0.0 : it->second;
}

bool Membership(const std::unordered_set<int64_t>& keys, int64_t key) {
  return keys.contains(key);  // Membership probes never see hash order.
}

struct Move {
  int64_t key;
  int64_t from;
};

void MarkSources(const std::vector<Move>& moves, ChunkMap& chunks) {
  // Braceless one-liner: the range is the vector; the map is only looked up.
  for (const auto& m : moves) chunks.at(m.key) = static_cast<double>(m.from);
}

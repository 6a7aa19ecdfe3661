// Lint fixture: R1 unordered-iteration violations. Never compiled.
#include <cstdint>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <vector>

using ChunkMap = std::unordered_map<int64_t, double>;

std::vector<int64_t> EmitKeys(const std::unordered_map<int64_t, double>& m) {
  std::vector<int64_t> out;
  for (const auto& [key, value] : m) {  // R1: hash-order emission.
    out.push_back(key);
  }
  return out;
}

double FirstWins(const ChunkMap& chunks) {
  std::unordered_set<int64_t> seen;
  double first = 0.0;
  for (auto it = chunks.begin(); it != chunks.end(); ++it) {  // R1: iterator.
    if (seen.insert(it->first).second && first == 0.0) first = it->second;
  }
  return first;
}

std::map<int64_t, double> ViaAlias(const ChunkMap& chunks) {
  std::map<int64_t, double> sorted;
  for (const auto& [key, value] : chunks) {  // R1: via type alias.
    sorted.emplace(key, value);
  }
  return sorted;
}

std::vector<double> EmitValues(const ChunkMap& chunks) {
  std::vector<double> out;
  for (const auto& [key, value] : chunks) out.push_back(value);  // R1.
  return out;
}

#include "core/extendible_hash.h"

#include <algorithm>
#include <cstdint>

#include "util/logging.h"

namespace arraydb::core {
namespace {

// Hard ceiling on directory growth; 2^20 entries is far beyond any cluster
// size exercised here and bounds memory if splits degenerate.
constexpr int kMaxGlobalDepth = 20;

}  // namespace

ExtendibleHashPartitioner::ExtendibleHashPartitioner(int initial_nodes)
    : num_nodes_(initial_nodes) {
  ARRAYDB_CHECK_GE(initial_nodes, 1);
  global_depth_ = 0;
  while ((1 << global_depth_) < initial_nodes) ++global_depth_;
  directory_.assign(static_cast<size_t>(1) << global_depth_, 0);
  // Round-robin the initial buckets over the initial nodes.
  for (size_t i = 0; i < directory_.size(); ++i) {
    directory_[i] = static_cast<NodeId>(i % static_cast<size_t>(initial_nodes));
  }
}

void ExtendibleHashPartitioner::DoubleDirectory() {
  ARRAYDB_CHECK_LT(global_depth_, kMaxGlobalDepth);
  const size_t old_size = directory_.size();
  directory_.resize(old_size * 2);
  // New entry (i | old_size) initially aliases entry i: same owner until a
  // split separates them.
  for (size_t i = 0; i < old_size; ++i) {
    directory_[i + old_size] = directory_[i];
  }
  ++global_depth_;
}

NodeId ExtendibleHashPartitioner::PlaceChunk(const cluster::Cluster& cluster,
                                             const array::ChunkInfo& chunk) {
  ARRAYDB_CHECK_EQ(cluster.num_nodes(), num_nodes_);
  return Locate(chunk.coords);
}

cluster::MovePlan ExtendibleHashPartitioner::PlanScaleOut(
    const cluster::Cluster& cluster, int old_node_count) {
  ARRAYDB_CHECK_EQ(old_node_count, num_nodes_);
  const int new_count = cluster.num_nodes();

  // Bytes stored under each directory entry, and per node, reflecting the
  // cluster state before this scale-out. Updated as entries are reassigned
  // so that consecutive splits in one scale-out see each other's effect.
  // Each chunk is hashed once; a directory doubling only re-masks.
  const std::vector<cluster::ChunkRecord> chunks = cluster.AllChunks();
  std::vector<uint64_t> hashes;
  hashes.reserve(chunks.size());
  for (const auto& rec : chunks) hashes.push_back(ChunkHash(rec.coords));
  auto entry_bytes = [&]() {
    std::vector<int64_t> bytes(directory_.size(), 0);
    for (size_t i = 0; i < chunks.size(); ++i) {
      bytes[hashes[i] & DirMask()] += chunks[i].bytes;
    }
    return bytes;
  };
  std::vector<int64_t> bytes_per_entry = entry_bytes();
  std::vector<int64_t> node_bytes(static_cast<size_t>(new_count), 0);
  for (size_t e = 0; e < directory_.size(); ++e) {
    node_bytes[static_cast<size_t>(directory_[e])] += bytes_per_entry[e];
  }

  for (NodeId new_node = old_node_count; new_node < new_count; ++new_node) {
    // Split the most heavily burdened preexisting host (skew-awareness).
    NodeId victim = 0;
    int64_t victim_bytes = -1;
    for (NodeId n = 0; n < new_node; ++n) {
      if (node_bytes[static_cast<size_t>(n)] > victim_bytes) {
        victim = n;
        victim_bytes = node_bytes[static_cast<size_t>(n)];
      }
    }

    // Single bucket: slice the hash space by the next significant bit. The
    // doubling leaves every node's bytes unchanged.
    if (std::count(directory_.begin(), directory_.end(), victim) == 1 &&
        global_depth_ < kMaxGlobalDepth) {
      DoubleDirectory();
      bytes_per_entry = entry_bytes();
    }

    // Collect the victim's directory entries.
    std::vector<size_t> owned;
    for (size_t e = 0; e < directory_.size(); ++e) {
      if (directory_[e] == victim) owned.push_back(e);
    }
    ARRAYDB_CHECK(!owned.empty());

    // Partition the victim's entries into two byte-balanced halves
    // (greedy, largest first) and hand the lighter half to the new node —
    // "passing on approximately half of their contents".
    std::sort(owned.begin(), owned.end(), [&](size_t a, size_t b) {
      if (bytes_per_entry[a] != bytes_per_entry[b]) {
        return bytes_per_entry[a] > bytes_per_entry[b];
      }
      return a < b;
    });
    int64_t keep_bytes = 0;
    int64_t give_bytes = 0;
    std::vector<size_t> give;
    for (size_t e : owned) {
      if (keep_bytes <= give_bytes) {
        keep_bytes += bytes_per_entry[e];
      } else {
        give_bytes += bytes_per_entry[e];
        give.push_back(e);
      }
    }
    if (give.empty() && owned.size() >= 2) {
      // Degenerate skew (all bytes in one entry): still hand over an entry
      // so the new node participates in future inserts.
      give.push_back(owned.back());
    }
    for (size_t e : give) {
      directory_[e] = new_node;
      node_bytes[static_cast<size_t>(victim)] -= bytes_per_entry[e];
      node_bytes[static_cast<size_t>(new_node)] += bytes_per_entry[e];
    }
  }
  num_nodes_ = new_count;
  return MovesToTable(chunks);
}

NodeId ExtendibleHashPartitioner::Locate(
    const array::Coordinates& chunk_coords) const {
  return directory_[ChunkHash(chunk_coords) & DirMask()];
}

}  // namespace arraydb::core

// Workload definitions and seeded input generation.
//
// Three workloads run the cyclic model (ingest, scale-out and incremental
// reorganization, query suite) on real data; README.md records why each was
// chosen and which layer it stresses. Everything a run feeds the database is
// generated here from the seed, before timing starts, and every coordinate
// lies inside its schema's bounds.

#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "array/chunk.h"
#include "array/schema.h"
#include "core/partitioner_factory.h"
#include "exec/operators.h"

namespace arraydb::perfbench {

enum class QueryClass { kSelect, kSort, kJoin, kStats, kWindow, kKnn };
inline constexpr int kNumClasses = 6;
const char* ClassName(QueryClass c);

/// One query of a cycle's suite. Which fields matter depends on the class.
struct Query {
  QueryClass cls = QueryClass::kSelect;
  /// Select: the cell box, and whether the spans are materialized and
  /// consumed (FilterBoxSpans) or only counted (FilterBoxCount).
  int box = -1;  // Index into CycleInput::boxes.
  bool spans = false;
  double quantile = 0.5;  // Sort.
  uint64_t seed = 1;      // kNN sample draw.
};

/// Cells for one array in one cycle, packed: dims coordinates and attrs
/// values per cell.
struct CellBatch {
  int dims = 0;
  int attrs = 0;
  std::vector<int64_t> coords;
  std::vector<double> values;
  int64_t size() const {
    return dims == 0 ? 0 : static_cast<int64_t>(coords.size()) / dims;
  }
};

/// A select box plus the placement-schema chunk coordinates it covers (the
/// chunks a select routes before it scans).
struct Box {
  exec::CellBox cells;
  std::vector<array::Coordinates> route;
};

struct CycleInput {
  /// Cells inserted into the primary array (MODIS band 1, AIS tracks).
  CellBatch primary;
  /// MODIS band 2 (the join partner), or the AIS ingest workload's newest
  /// month (the vessel join's input). Empty otherwise.
  CellBatch secondary;
  /// Every 16th cell of the newest month: the AIS ingest workload's science
  /// array. Empty otherwise.
  CellBatch sample;
  /// Chunk coordinates the primary batch creates, in placement order.
  std::vector<array::Coordinates> new_chunks;
  /// Chunk-metadata stream placed instead of the primary's chunks
  /// (ais_elastic only).
  std::vector<array::ChunkInfo> metadata;
  /// Bytes this cycle adds to the cluster (capacity trigger input).
  int64_t placed_bytes = 0;
  /// The cycle's query suite, classes interleaved round-robin.
  std::vector<Query> queries;
  /// Vessel keys of the AIS join (ships seen in the newest month).
  std::unordered_set<int64_t> join_keys;
  /// Boxes of the cycle's selects, and of the selects issued while a
  /// migration triggered by this cycle is in flight (they cover only
  /// earlier cycles' data, which is all the array holds at that point).
  std::vector<Box> boxes;
  std::vector<Box> midreorg_boxes;
};

/// Every workload starts on two nodes, and kNN averages over four
/// neighbours.
inline constexpr int kInitialNodes = 2;
inline constexpr int kKnnNeighbours = 4;

enum class SecondaryRole { kNone, kJoinBand, kNewestMonth };

struct WorkloadSpec {
  std::string name;
  array::ArraySchema primary_schema;
  /// Schema of the placed chunks: the primary's own, or the chunk-metadata
  /// stream's (ais_elastic).
  array::ArraySchema placement_schema;
  bool place_metadata = false;
  SecondaryRole secondary = SecondaryRole::kNone;
  array::ArraySchema secondary_schema;
  /// Whether sort, stats, window and kNN read the newest month's sample
  /// instead of the primary array.
  bool science_sample = false;
  array::ArraySchema sample_schema;
  core::PartitionerKind partitioner = core::PartitionerKind::kKdTree;
  int nodes_per_scaleout = 1;
  int max_nodes = 2;
  double node_capacity_gb = 1.0;
  double increment_gb = 1.0;
  /// Data-plane threads for operators, prewarm and the reorg copy.
  int threads = 1;
  /// Migration pacing: increments fall due at this fixed rate, the
  /// migration's bandwidth budget in wall-clock terms.
  double increments_per_s = 1000.0;
  /// Open-loop rate of interactive selects during a migration.
  double midreorg_selects_per_s = 500.0;
  /// Attribute the sort, stats and window classes read.
  int science_attr = 1;
  /// Attribute holding the vessel id (AIS join); -1 when not an AIS
  /// workload.
  int vessel_attr = -1;
  int knn_samples = 16;
  std::vector<int64_t> group_bins;
};

struct Inputs {
  WorkloadSpec spec;
  std::vector<CycleInput> cycles;
  int64_t total_cells = 0;
  int64_t total_chunks_placed = 0;
};

enum class Size { kFull, kTiny };

/// Known workload names, in BENCHMARK.json order.
std::vector<std::string> WorkloadNames();

/// Generates the inputs of workload `name` from `seed`; nullopt for an
/// unknown name.
std::optional<Inputs> MakeInputs(const std::string& name, uint64_t seed,
                                 Size size);

}  // namespace arraydb::perfbench

#endif  // PERFBENCH_INPUTS_H_

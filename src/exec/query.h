// Query descriptions for the benchmark workloads (§3.3).
//
// A QuerySpec names an operator class (the access pattern that matters for
// distributed timing), the chunk-grid region it touches, and its cost
// parameters. The same spec drives both execution granularities:
//   * exec::QueryEngine::Simulate prices the query at paper scale against a
//     cluster placement;
//   * the functions in exec/operators.h actually execute the corresponding
//     algorithm over materialized small arrays (tests and examples).

#ifndef ARRAYDB_EXEC_QUERY_H_
#define ARRAYDB_EXEC_QUERY_H_

#include <cstdint>
#include <string>

#include "array/coordinates.h"

namespace arraydb::exec {

/// Operator classes with distinct distributed access patterns.
enum class QueryKind {
  kFilter,        // Parallel scan + predicate (Selection).
  kSortQuantile,  // Scan + sample + coordinator merge (Sort).
  kDimJoin,       // Position join of collocated arrays (Join).
  kAttrJoin,      // Join against a small replicated array (AIS vessel join).
  kGroupBy,       // Group-by aggregate over dimension space (Statistics).
  kWindow,        // Windowed aggregate with halo exchange (Complex Proj.).
  kKMeans,        // Iterative clustering (Modeling, MODIS).
  kKnn,           // k-nearest-neighbors on sampled cells (Modeling, AIS).
};

/// Axis-aligned region of the chunk grid, inclusive on both ends.
struct ChunkRegion {
  array::Coordinates lo;
  array::Coordinates hi;

  bool Contains(const array::Coordinates& chunk_coords) const;
  /// A region covering everything (rank-sized sentinel).
  static ChunkRegion All(int num_dims);
};

struct QuerySpec {
  std::string name;
  QueryKind kind = QueryKind::kFilter;
  ChunkRegion region;

  /// CPU minutes per GB scanned (operator complexity).
  double cpu_min_per_gb = 0.05;
  /// Fraction of scanned bytes surviving into result/merge stages.
  double selectivity = 0.05;
  /// Iterations for iterative operators (k-means).
  int iterations = 1;
  /// Sampled cells for kNN.
  int knn_samples = 64;
  /// Fraction of a neighboring chunk transferred during halo exchange.
  double halo_fraction = 0.15;
  /// Replicated small-side size for kAttrJoin (the AIS vessel array).
  double small_side_gb = 0.0;
  /// Deterministic seed for sampling operators.
  uint64_t seed = 1;
};

}  // namespace arraydb::exec

#endif  // ARRAYDB_EXEC_QUERY_H_

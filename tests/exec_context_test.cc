// ExecContext suite: the explicit execution-settings object, the only way
// settings reach the operators and joins. Covers the `{}` defaults,
// operator entry-point equivalence, the nested RunnerConfig copies, and —
// the reason join.h's old "not thread-safe against concurrent joins"
// caveat is gone — concurrent joins running under different contexts with
// results bit-identical to sequential execution. Runs under the TSan CI
// job.

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <unordered_set>
#include <vector>

#include "array/array.h"
#include "exec/exec_context.h"
#include "exec/join.h"
#include "exec/operators.h"
#include "workload/runner.h"
#include "workload/sample_data.h"

namespace arraydb::exec {
namespace {

TEST(ExecContextTest, DefaultsMatchTheKnobDefaults) {
  const ExecContext context;
  EXPECT_EQ(context.data_plane_threads, 1);
  EXPECT_EQ(context.join_partition_bits, kDefaultJoinPartitionBits);
  EXPECT_EQ(context.morsel_grain, kDefaultMorselGrainCells);
}

class ExecContextOperatorTest : public ::testing::Test {
 protected:
  ExecContextOperatorTest()
      : modis_(workload::MakeSmallModisBand(/*days=*/4, /*seed=*/2014)),
        other_(workload::MakeSmallModisBand(/*days=*/3, /*seed=*/77)) {}

  CellBox FullBox() const {
    CellBox box;
    for (const array::DimensionDesc& dim : modis_.schema().dims()) {
      box.lo.push_back(dim.lo);
      box.hi.push_back(dim.lo + dim.Extent() - 1);
    }
    return box;
  }

  static std::unordered_set<int64_t> Keys() {
    std::unordered_set<int64_t> keys;
    for (int64_t k = 0; k < 64; ++k) keys.insert(k * 3);
    return keys;
  }

  array::Array modis_;
  array::Array other_;
};

TEST_F(ExecContextOperatorTest, ContextOverloadsMatchTheDefaultPath) {
  const CellBox box = FullBox();
  const int64_t want_count = FilterBoxCount(modis_, box);
  const int64_t want_dim = DimJoinCount(modis_, other_);
  const int64_t want_attr = AttrJoinCount(modis_, 0, Keys());
  ASSERT_GT(want_count, 0);
  ASSERT_GT(want_dim, 0);
  for (const int threads : {1, 2, 0}) {
    ExecContext context;
    context.data_plane_threads = threads;
    context.morsel_grain = 192;  // Force genuinely multi-morsel runs.
    EXPECT_EQ(FilterBoxCount(modis_, box, context), want_count)
        << "threads=" << threads;
    EXPECT_EQ(DimJoinCount(modis_, other_, context), want_dim)
        << "threads=" << threads;
    EXPECT_EQ(AttrJoinCount(modis_, 0, Keys(), context), want_attr)
        << "threads=" << threads;
  }
}

// The deleted join.h caveat, disproved under TSan: concurrent joins, each
// with its own context (different thread counts and grains),
// produce exactly the sequential results. No process-global state is
// involved — that was the point of ExecContext.
TEST_F(ExecContextOperatorTest, ConcurrentJoinsUnderDistinctContexts) {
  const int64_t want_dim = DimJoinCount(modis_, other_);
  const int64_t want_attr = AttrJoinCount(modis_, 0, Keys());

  constexpr int kWorkers = 4;
  constexpr int kRepeats = 3;
  std::vector<int64_t> dim_results(kWorkers * kRepeats, 0);
  std::vector<int64_t> attr_results(kWorkers * kRepeats, 0);
  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      ExecContext context;
      context.data_plane_threads = 1 + w % 3;
      context.morsel_grain = 192 + 64 * w;
      for (int r = 0; r < kRepeats; ++r) {
        dim_results[static_cast<size_t>(w * kRepeats + r)] =
            DimJoinCount(modis_, other_, context);
        attr_results[static_cast<size_t>(w * kRepeats + r)] =
            AttrJoinCount(modis_, 0, Keys(), context);
      }
    });
  }
  for (auto& t : workers) t.join();
  for (const int64_t got : dim_results) EXPECT_EQ(got, want_dim);
  for (const int64_t got : attr_results) EXPECT_EQ(got, want_attr);
}

// The deprecated flat-field aliases (PR 8's one-release bridge) are gone;
// the nested sub-configs are the only spelling, and the (now defaulted)
// copy operations must produce fully independent values.
TEST(RunnerConfigTest, CopiesAreIndependentValues) {
  workload::RunnerConfig original;
  original.initial_nodes = 7;
  original.reorg.increment_gb = 4.0;

  workload::RunnerConfig copy = original;
  EXPECT_EQ(copy.initial_nodes, 7);
  EXPECT_DOUBLE_EQ(copy.reorg.increment_gb, 4.0);

  // Mutating the copy must not touch the original.
  copy.initial_nodes = 2;
  copy.reorg.increment_gb = 9.0;
  EXPECT_EQ(original.initial_nodes, 7);
  EXPECT_DOUBLE_EQ(original.reorg.increment_gb, 4.0);
  EXPECT_EQ(copy.initial_nodes, 2);

  // Same for assignment.
  workload::RunnerConfig assigned;
  assigned = original;
  assigned.initial_nodes = 6;
  EXPECT_EQ(original.initial_nodes, 7);
  EXPECT_EQ(assigned.initial_nodes, 6);
}

}  // namespace
}  // namespace arraydb::exec

#include "util/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "util/rng.h"

namespace autoce::util {
namespace {

/// Sweeps the primitives over several pool sizes; every behavior below
/// must be invariant in the thread count (the determinism contract).
class ParallelForSweep : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override { SetGlobalParallelism(GetParam()); }
  void TearDown() override { SetGlobalParallelism(DefaultParallelism()); }
};

TEST_P(ParallelForSweep, CoversEveryIndexExactlyOnce) {
  constexpr size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  ParallelFor(0, kN, 7, [&](size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST_P(ParallelForSweep, EmptyRangeRunsNothing) {
  std::atomic<int> calls{0};
  ParallelFor(5, 5, 1, [&](size_t) { calls.fetch_add(1); });
  ParallelFor(9, 3, 4, [&](size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST_P(ParallelForSweep, GrainLargerThanRange) {
  std::vector<std::atomic<int>> hits(6);
  ParallelFor(0, 6, 100, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST_P(ParallelForSweep, ZeroGrainIsTreatedAsOne) {
  std::vector<std::atomic<int>> hits(16);
  ParallelFor(0, 16, 0, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST_P(ParallelForSweep, NonZeroBegin) {
  std::vector<std::atomic<int>> hits(10);
  ParallelFor(4, 10, 2, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(hits[i].load(), 0);
  for (size_t i = 4; i < 10; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST_P(ParallelForSweep, NestedCallsCoverInnerRange) {
  constexpr size_t kOuter = 8, kInner = 50;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  ParallelFor(0, kOuter, 1, [&](size_t o) {
    // Nested regions run inline on the owning thread; coverage and
    // results are unchanged.
    ParallelFor(0, kInner, 4, [&](size_t i) {
      hits[o * kInner + i].fetch_add(1, std::memory_order_relaxed);
    });
  });
  for (size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST_P(ParallelForSweep, MapProducesIndexOrderedResults) {
  auto out = ParallelMap(3, 103, 5, [](size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 100u);
  for (size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], (i + 3) * (i + 3));
}

TEST_P(ParallelForSweep, PerTaskRngResultsMatchSequentialReference) {
  // The per-task seed-derivation convention: task i draws from
  // Rng(seed ^ i), so the parallel result equals the same loop run
  // sequentially, element for element.
  constexpr uint64_t kSeed = 0xC0FFEE;
  constexpr size_t kN = 200;
  std::vector<double> expect(kN);
  for (size_t i = 0; i < kN; ++i) {
    Rng rng(kSeed ^ i);
    expect[i] = rng.Gaussian() + rng.Uniform();
  }
  auto got = ParallelMap(0, kN, 4, [&](size_t i) {
    Rng rng(kSeed ^ i);
    return rng.Gaussian() + rng.Uniform();
  });
  EXPECT_EQ(got, expect);  // bitwise: same doubles exactly
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ParallelForSweep,
                         ::testing::Values(1, 2, 3, 8));

TEST(ParallelConfigTest, GlobalParallelismTracksSetter) {
  SetGlobalParallelism(5);
  EXPECT_EQ(GlobalParallelism(), 5);
  SetGlobalParallelism(1);
  EXPECT_EQ(GlobalParallelism(), 1);
  SetGlobalParallelism(DefaultParallelism());
  EXPECT_EQ(GlobalParallelism(), DefaultParallelism());
}

TEST(ParallelConfigTest, DefaultParallelismIsPositive) {
  EXPECT_GE(DefaultParallelism(), 1);
}

TEST(ParallelConfigTest, LocalPoolRunsIndependently) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  std::atomic<size_t> sum{0};
  pool.ParallelFor(0, 100, 10, [&](size_t i) {
    sum.fetch_add(i, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 4950u);
}

}  // namespace
}  // namespace autoce::util

// Property tests tying the workload generator to the exact engine:
// cardinality bounds and monotonicity that must hold for every generated
// query on every generated dataset.

#include <gtest/gtest.h>

#include "data/generator.h"
#include "engine/executor.h"
#include "query/query.h"

namespace autoce::query {
namespace {

class WorkloadPropertyTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, int>> {};

TEST_P(WorkloadPropertyTest, CardinalityUpperBound) {
  auto [seed, tables] = GetParam();
  Rng rng(seed);
  data::DatasetGenParams p;
  p.min_tables = p.max_tables = tables;
  p.min_rows = 200;
  p.max_rows = 500;
  data::Dataset ds = data::GenerateDataset(p, &rng);

  WorkloadParams wp;
  wp.num_queries = 20;
  wp.max_tables = tables;
  auto qs = GenerateWorkload(ds, wp, &rng);
  for (const auto& q : qs) {
    auto card = engine::TrueCardinality(ds, q);
    ASSERT_TRUE(card.ok());
    // COUNT(*) of a conjunctive SPJ query never exceeds the product of
    // the per-table filtered cardinalities.
    double bound = 1.0;
    for (int t : q.tables) {
      bound *= static_cast<double>(
          engine::SingleTableCardinality(ds.table(t), q.PredicatesOn(t)));
    }
    EXPECT_LE(static_cast<double>(*card), bound + 0.5) << q.ToString(ds);
    EXPECT_GE(*card, 0);
  }
}

TEST_P(WorkloadPropertyTest, DroppingPredicatesGrowsCardinality) {
  auto [seed, tables] = GetParam();
  Rng rng(seed + 100);
  data::DatasetGenParams p;
  p.min_tables = p.max_tables = tables;
  p.min_rows = 200;
  p.max_rows = 400;
  data::Dataset ds = data::GenerateDataset(p, &rng);
  WorkloadParams wp;
  wp.num_queries = 12;
  wp.max_tables = tables;
  auto qs = GenerateWorkload(ds, wp, &rng);
  for (const auto& q : qs) {
    if (q.predicates.empty()) continue;
    auto full = engine::TrueCardinality(ds, q);
    Query relaxed = q;
    relaxed.predicates.pop_back();
    auto rel = engine::TrueCardinality(ds, relaxed);
    ASSERT_TRUE(full.ok() && rel.ok());
    EXPECT_GE(*rel, *full) << q.ToString(ds);
  }
}

TEST_P(WorkloadPropertyTest, WideningRangeGrowsCardinality) {
  auto [seed, tables] = GetParam();
  Rng rng(seed + 200);
  data::DatasetGenParams p;
  p.min_tables = p.max_tables = tables;
  p.min_rows = 300;
  p.max_rows = 300;
  data::Dataset ds = data::GenerateDataset(p, &rng);
  WorkloadParams wp;
  wp.num_queries = 10;
  wp.max_tables = tables;
  wp.eq_probability = 0.0;  // ranges only
  auto qs = GenerateWorkload(ds, wp, &rng);
  for (const auto& q : qs) {
    if (q.predicates.empty()) continue;
    Query wider = q;
    auto& pred = wider.predicates[0];
    const auto& col = ds.table(pred.table)
                          .columns[static_cast<size_t>(pred.column)];
    pred.lo = 1;
    pred.hi = col.domain_size;
    auto narrow = engine::TrueCardinality(ds, q);
    auto wide = engine::TrueCardinality(ds, wider);
    ASSERT_TRUE(narrow.ok() && wide.ok());
    EXPECT_GE(*wide, *narrow);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WorkloadPropertyTest,
    ::testing::Combine(::testing::Values<uint64_t>(71, 72),
                       ::testing::Values(1, 2, 4)));

TEST(WorkloadDeterminismTest, SameSeedSameWorkload) {
  Rng rng(5);
  data::DatasetGenParams p;
  p.min_tables = p.max_tables = 2;
  p.min_rows = p.max_rows = 200;
  data::Dataset ds = data::GenerateDataset(p, &rng);
  WorkloadParams wp;
  wp.num_queries = 15;
  Rng r1(9), r2(9);
  auto a = GenerateWorkload(ds, wp, &r1);
  auto b = GenerateWorkload(ds, wp, &r2);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].tables, b[i].tables);
    ASSERT_EQ(a[i].predicates.size(), b[i].predicates.size());
    for (size_t j = 0; j < a[i].predicates.size(); ++j) {
      EXPECT_EQ(a[i].predicates[j].lo, b[i].predicates[j].lo);
      EXPECT_EQ(a[i].predicates[j].hi, b[i].predicates[j].hi);
    }
  }
}

}  // namespace
}  // namespace autoce::query

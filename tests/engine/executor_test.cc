#include "engine/executor.h"

#include <gtest/gtest.h>

#include "data/generator.h"
#include "query/query.h"

namespace autoce::engine {
namespace {

using data::Dataset;
using data::ForeignKey;
using query::PredOp;
using query::Predicate;
using query::Query;

/// Brute-force nested-loop COUNT(*) reference implementation.
int64_t BruteForceCount(const Dataset& ds, const Query& q) {
  // Enumerate the cross product of filtered rows table by table and check
  // all join conditions. Exponential — only usable on tiny inputs.
  std::vector<std::vector<int32_t>> candidates;
  for (int t : q.tables) {
    candidates.push_back(FilterRows(ds.table(t), q.PredicatesOn(t)));
  }
  for (const auto& c : candidates) {
    if (c.empty()) return 0;
  }
  int64_t count = 0;
  std::vector<size_t> idx(q.tables.size(), 0);
  while (true) {
    bool ok = true;
    for (const auto& j : q.joins) {
      int a_pos = -1, b_pos = -1;
      for (size_t i = 0; i < q.tables.size(); ++i) {
        if (q.tables[i] == j.fk_table) a_pos = static_cast<int>(i);
        if (q.tables[i] == j.pk_table) b_pos = static_cast<int>(i);
      }
      int32_t av =
          ds.table(j.fk_table)
              .columns[static_cast<size_t>(j.fk_column)]
              .values[static_cast<size_t>(
                  candidates[static_cast<size_t>(a_pos)][idx[static_cast<size_t>(a_pos)]])];
      int32_t bv =
          ds.table(j.pk_table)
              .columns[static_cast<size_t>(j.pk_column)]
              .values[static_cast<size_t>(
                  candidates[static_cast<size_t>(b_pos)][idx[static_cast<size_t>(b_pos)]])];
      if (av != bv) {
        ok = false;
        break;
      }
    }
    if (ok) ++count;
    // Advance the odometer.
    size_t d = 0;
    while (d < idx.size()) {
      if (candidates[d].empty()) return 0;
      if (++idx[d] < candidates[d].size()) break;
      idx[d] = 0;
      ++d;
    }
    if (d == idx.size()) break;
    // Empty candidate list anywhere -> zero results.
    for (const auto& c : candidates) {
      if (c.empty()) return 0;
    }
  }
  for (const auto& c : candidates) {
    if (c.empty()) return 0;
  }
  return count;
}

TEST(FilterTest, MaskAndRows) {
  data::Table t;
  t.name = "t";
  data::Column c;
  c.name = "x";
  c.domain_size = 10;
  c.values = {1, 5, 7, 3, 9};
  t.columns.push_back(c);
  Predicate p{0, 0, PredOp::kRange, 3, 7};
  auto rows = FilterRows(t, {p});
  EXPECT_EQ(rows, (std::vector<int32_t>{1, 2, 3}));
  EXPECT_EQ(SingleTableCardinality(t, {p}), 3);
}

TEST(FilterTest, EmptyPredicateKeepsAll) {
  data::Table t;
  data::Column c;
  c.name = "x";
  c.domain_size = 3;
  c.values = {1, 2, 3};
  t.columns.push_back(c);
  EXPECT_EQ(SingleTableCardinality(t, {}), 3);
}

TEST(TrueCardinalityTest, SingleTable) {
  Rng rng(1);
  data::DatasetGenParams p;
  p.min_tables = p.max_tables = 1;
  p.min_rows = p.max_rows = 500;
  Dataset ds = data::GenerateDataset(p, &rng);
  Query q;
  q.tables = {0};
  const auto& col = ds.table(0).columns[0];
  Predicate pr{0, 0, PredOp::kLe, 1, col.domain_size / 2};
  q.predicates = {pr};
  auto r = TrueCardinality(ds, q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, BruteForceCount(ds, q));
}

TEST(TrueCardinalityTest, RejectsNonTreeJoinGraph) {
  Rng rng(2);
  data::DatasetGenParams p;
  p.min_tables = p.max_tables = 3;
  p.min_rows = p.max_rows = 100;
  Dataset ds = data::GenerateDataset(p, &rng);
  Query q;
  q.tables = {0, 1, 2};
  q.joins = {};  // missing joins -> not a tree
  auto r = TrueCardinality(ds, q);
  EXPECT_FALSE(r.ok());

  // |joins| == |tables| - 1 is not enough. Here fk[0] is 2.3 -> 1.0 and
  // fk[1] is 0.5 -> 1.0.
  Rng rng5(5);
  p.min_rows = 200;
  p.max_rows = 300;
  Dataset ds5 = data::GenerateDataset(p, &rng5);
  const auto& fks = ds5.foreign_keys();
  ASSERT_EQ(fks.size(), 2u);
  Query repeated;  // one join twice: table 0 is never joined
  repeated.tables = {0, 1, 2};
  repeated.joins = {fks[0], fks[0]};
  EXPECT_FALSE(TrueCardinality(ds5, repeated).ok());
  Query outside;  // the only join reaches table 0, which is not queried
  outside.tables = {2, 1};
  outside.joins = {fks[1]};
  EXPECT_FALSE(TrueCardinality(ds5, outside).ok());
}

class TreeCountMatchesBruteForce
    : public ::testing::TestWithParam<std::tuple<uint64_t, int>> {};

TEST_P(TreeCountMatchesBruteForce, OnRandomQueries) {
  auto [seed, num_tables] = GetParam();
  Rng rng(seed);
  data::DatasetGenParams p;
  p.min_tables = p.max_tables = num_tables;
  p.min_rows = 30;
  p.max_rows = 60;  // keep brute force feasible
  p.min_columns = 1;
  p.max_columns = 2;
  p.min_domain = 5;
  p.max_domain = 20;
  Dataset ds = data::GenerateDataset(p, &rng);

  query::WorkloadParams wp;
  wp.num_queries = 8;
  wp.max_tables = num_tables;
  auto qs = query::GenerateWorkload(ds, wp, &rng);
  for (const auto& q : qs) {
    auto r = TrueCardinality(ds, q);
    ASSERT_TRUE(r.ok()) << q.ToString(ds);
    EXPECT_EQ(*r, BruteForceCount(ds, q)) << q.ToString(ds);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TreeCountMatchesBruteForce,
    ::testing::Combine(::testing::Values<uint64_t>(3, 4, 5),
                       ::testing::Values(1, 2, 3)));

TEST(TrueCardinalityTest, NoPredicatesJoinCount) {
  // parent(id) 1..3, child fk = {1,1,2}: join count = 3.
  Dataset ds;
  data::Table parent;
  parent.name = "p";
  data::Column id;
  id.name = "id";
  id.domain_size = 3;
  id.values = {1, 2, 3};
  parent.columns.push_back(id);
  parent.primary_key = 0;
  ds.AddTable(parent);
  data::Table child;
  child.name = "c";
  data::Column fk;
  fk.name = "fk";
  fk.domain_size = 3;
  fk.values = {1, 1, 2};
  child.columns.push_back(fk);
  ds.AddTable(child);
  ASSERT_TRUE(ds.AddForeignKey({1, 0, 0, 0}).ok());

  Query q;
  q.tables = {0, 1};
  q.joins = ds.foreign_keys();
  auto r = TrueCardinality(ds, q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 3);
}

TEST(TrueCardinalitiesTest, BatchMatchesSingle) {
  Rng rng(7);
  data::DatasetGenParams p;
  p.min_tables = p.max_tables = 2;
  p.min_rows = p.max_rows = 100;
  Dataset ds = data::GenerateDataset(p, &rng);
  query::WorkloadParams wp;
  wp.num_queries = 5;
  auto qs = query::GenerateWorkload(ds, wp, &rng);
  auto batch = TrueCardinalities(ds, qs);
  ASSERT_EQ(batch.size(), qs.size());
  for (size_t i = 0; i < qs.size(); ++i) {
    auto r = TrueCardinality(ds, qs[i]);
    ASSERT_TRUE(r.ok());
    EXPECT_DOUBLE_EQ(batch[i], static_cast<double>(*r));
  }
}

}  // namespace
}  // namespace autoce::engine

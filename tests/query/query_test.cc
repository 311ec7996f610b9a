#include "query/query.h"

#include <gtest/gtest.h>

#include <set>

#include "data/generator.h"
#include "engine/executor.h"
#include "query/featurize.h"

namespace autoce::query {
namespace {

data::Dataset MakeDataset(uint64_t seed, int tables) {
  Rng rng(seed);
  data::DatasetGenParams p;
  p.min_tables = p.max_tables = tables;
  p.min_rows = 200;
  p.max_rows = 400;
  p.min_columns = 2;
  p.max_columns = 3;
  return data::GenerateDataset(p, &rng);
}

TEST(PredicateTest, Matches) {
  Predicate p;
  p.lo = 3;
  p.hi = 7;
  EXPECT_TRUE(p.Matches(3));
  EXPECT_TRUE(p.Matches(7));
  EXPECT_FALSE(p.Matches(2));
  EXPECT_FALSE(p.Matches(8));
}

TEST(WorkloadTest, QueriesAreWellFormed) {
  data::Dataset ds = MakeDataset(1, 4);
  Rng rng(2);
  WorkloadParams wp;
  wp.num_queries = 50;
  auto qs = GenerateWorkload(ds, wp, &rng);
  ASSERT_EQ(qs.size(), 50u);
  for (const auto& q : qs) {
    EXPECT_GE(q.tables.size(), 1u);
    EXPECT_LE(q.tables.size(), 4u);
    EXPECT_TRUE(engine::CheckJoinTree(ds, q.tables, q.joins).ok())
        << q.ToString(ds);
    EXPECT_GE(q.predicates.size(), 1u);  // min_total_predicates default
    for (const auto& p : q.predicates) {
      // Predicates only on query tables and within column domains.
      EXPECT_NE(std::find(q.tables.begin(), q.tables.end(), p.table),
                q.tables.end());
      const auto& col =
          ds.table(p.table).columns[static_cast<size_t>(p.column)];
      EXPECT_GE(p.lo, 1);
      EXPECT_LE(p.hi, col.domain_size);
      EXPECT_LE(p.lo, p.hi);
    }
  }
}

TEST(WorkloadTest, PredicatesAvoidKeyColumns) {
  data::Dataset ds = MakeDataset(3, 3);
  Rng rng(4);
  WorkloadParams wp;
  wp.num_queries = 40;
  auto qs = GenerateWorkload(ds, wp, &rng);
  for (const auto& q : qs) {
    for (const auto& p : q.predicates) {
      const auto& t = ds.table(p.table);
      EXPECT_NE(p.column, t.primary_key);
      for (const auto& fk : ds.foreign_keys()) {
        EXPECT_FALSE(fk.fk_table == p.table && fk.fk_column == p.column);
      }
    }
  }
}

TEST(WorkloadTest, SingleTableDataset) {
  data::Dataset ds = MakeDataset(5, 1);
  Rng rng(6);
  WorkloadParams wp;
  wp.num_queries = 20;
  auto qs = GenerateWorkload(ds, wp, &rng);
  for (const auto& q : qs) {
    EXPECT_TRUE(q.IsSingleTable());
    EXPECT_TRUE(q.joins.empty());
  }
}

TEST(CebWorkloadTest, TemplatesShareShape) {
  data::Dataset ds = MakeDataset(7, 5);
  Rng rng(8);
  std::vector<int> tids;
  auto qs = MakeCebLikeWorkload(ds, 4, 10, &rng, &tids);
  ASSERT_EQ(qs.size(), 40u);
  ASSERT_EQ(tids.size(), 40u);
  for (int t = 0; t < 4; ++t) {
    const Query& first = qs[static_cast<size_t>(t * 10)];
    for (int i = 1; i < 10; ++i) {
      const Query& q = qs[static_cast<size_t>(t * 10 + i)];
      EXPECT_EQ(q.tables, first.tables);
      EXPECT_EQ(q.joins.size(), first.joins.size());
      EXPECT_EQ(q.predicates.size(), first.predicates.size());
      EXPECT_EQ(tids[static_cast<size_t>(t * 10 + i)], t);
    }
  }
  // Literals vary within a template.
  bool varied = false;
  for (int i = 1; i < 10 && !varied; ++i) {
    if (qs[0].predicates[0].lo != qs[static_cast<size_t>(i)].predicates[0].lo ||
        qs[0].predicates[0].hi != qs[static_cast<size_t>(i)].predicates[0].hi) {
      varied = true;
    }
  }
  EXPECT_TRUE(varied);
}

TEST(QueryToStringTest, RendersSql) {
  data::Dataset ds = MakeDataset(9, 2);
  Rng rng(10);
  WorkloadParams wp;
  wp.num_queries = 1;
  wp.max_tables = 2;
  auto qs = GenerateWorkload(ds, wp, &rng);
  std::string s = qs[0].ToString(ds);
  EXPECT_NE(s.find("SELECT COUNT(*) FROM"), std::string::npos);
  EXPECT_NE(s.find("WHERE"), std::string::npos);
}

TEST(FeaturizerTest, FlatEncodeShapeAndContent) {
  data::Dataset ds = MakeDataset(11, 2);
  QueryFeaturizer fz(&ds);
  size_t total_cols = static_cast<size_t>(ds.TotalColumns());
  EXPECT_EQ(fz.num_columns(), total_cols);
  EXPECT_EQ(fz.flat_dim(), 2 + 3 * total_cols);

  Query q;
  q.tables = {0};
  Predicate p;
  p.table = 0;
  p.column = 1;
  p.op = PredOp::kRange;
  const auto& col = ds.table(0).columns[1];
  p.lo = 1;
  p.hi = col.domain_size;
  q.predicates = {p};

  auto v = fz.FlatEncode(q);
  ASSERT_EQ(v.size(), fz.flat_dim());
  EXPECT_DOUBLE_EQ(v[0], 1.0);  // table 0 used
  EXPECT_DOUBLE_EQ(v[1], 0.0);  // table 1 unused
  size_t c = fz.GlobalColumn(0, 1);
  EXPECT_DOUBLE_EQ(v[2 + 3 * c], 1.0);      // used
  EXPECT_DOUBLE_EQ(v[2 + 3 * c + 1], 0.0);  // lo = full range
  EXPECT_DOUBLE_EQ(v[2 + 3 * c + 2], 1.0);  // hi = full range
}

TEST(FeaturizerTest, ConjunctivePredicatesIntersect) {
  data::Dataset ds = MakeDataset(12, 1);
  QueryFeaturizer fz(&ds);
  const auto& col = ds.table(0).columns[0];
  ASSERT_GE(col.domain_size, 10);

  Query q;
  q.tables = {0};
  Predicate a{0, 0, PredOp::kGe, 3, col.domain_size};
  Predicate b{0, 0, PredOp::kLe, 1, 5};
  q.predicates = {a, b};
  auto v = fz.FlatEncode(q);
  size_t c = fz.GlobalColumn(0, 0);
  size_t base = 1 + 3 * c;  // one table
  EXPECT_GT(v[base + 1], 0.0);         // lo raised by a
  EXPECT_LT(v[base + 2], 1.0);         // hi lowered by b
  EXPECT_LE(v[base + 1], v[base + 2]);
}

TEST(FeaturizerTest, SetEncodeShapes) {
  data::Dataset ds = MakeDataset(13, 3);
  QueryFeaturizer fz(&ds);
  Rng rng(14);
  WorkloadParams wp;
  wp.num_queries = 10;
  auto qs = GenerateWorkload(ds, wp, &rng);
  for (const auto& q : qs) {
    auto enc = fz.SetEncode(q);
    EXPECT_EQ(enc.tables.size(), q.tables.size());
    EXPECT_EQ(enc.joins.size(), q.joins.size());
    EXPECT_EQ(enc.predicates.size(), q.predicates.size());
    for (const auto& e : enc.tables) EXPECT_EQ(e.size(), fz.table_element_dim());
    for (const auto& e : enc.joins) {
      EXPECT_EQ(e.size(), fz.join_element_dim());
      double sum = 0;
      for (double x : e) sum += x;
      EXPECT_DOUBLE_EQ(sum, 1.0);  // exactly one schema edge matched
    }
    for (const auto& e : enc.predicates) {
      EXPECT_EQ(e.size(), fz.pred_element_dim());
    }
  }
}

TEST(LogCardinalityTest, RoundTrip) {
  EXPECT_DOUBLE_EQ(LogCardinality(0.0), 0.0);  // clamped at log(1)
  EXPECT_DOUBLE_EQ(LogCardinality(1.0), 0.0);
  EXPECT_NEAR(CardinalityFromLog(LogCardinality(12345.0)), 12345.0, 1e-6);
}

}  // namespace
}  // namespace autoce::query

#include "data/generator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>

#include "engine/executor.h"
#include "util/stats.h"

namespace autoce::data {
namespace {

TEST(SingleTableTest, ShapeAndDomains) {
  Rng rng(1);
  SingleTableParams p;
  p.num_columns = 4;
  p.num_rows = 500;
  p.min_domain = 20;
  p.max_domain = 50;
  Table t = GenerateSingleTable(p, &rng);
  EXPECT_EQ(t.NumColumns(), 4);
  EXPECT_EQ(t.NumRows(), 500);
  for (const auto& c : t.columns) {
    EXPECT_GE(c.domain_size, 20);
    EXPECT_LE(c.domain_size, 50);
    EXPECT_GE(std::ranges::min(c.values), 1);
    EXPECT_LE(std::ranges::max(c.values), c.domain_size);
  }
}

TEST(SingleTableTest, PrimaryKeyIsDistinct) {
  Rng rng(2);
  SingleTableParams p;
  p.with_primary_key = true;
  p.num_rows = 300;
  Table t = GenerateSingleTable(p, &rng);
  EXPECT_EQ(t.primary_key, 0);
  EXPECT_EQ(t.columns[0].CountDistinct(), 300);
  EXPECT_EQ(t.columns[0].domain_size, 300);
}

TEST(SingleTableTest, ZeroSkewZeroCorrIsRoughlyUniform) {
  Rng rng(3);
  SingleTableParams p;
  p.num_columns = 1;
  p.num_rows = 20000;
  p.min_domain = 100;
  p.max_domain = 100;
  p.max_skew = 0.0;
  p.max_correlation = 0.0;
  Table t = GenerateSingleTable(p, &rng);
  std::vector<double> vals(t.columns[0].values.begin(),
                           t.columns[0].values.end());
  EXPECT_NEAR(stats::Mean(vals), 50.5, 2.0);
}

TEST(SingleTableTest, HighCorrelationYieldsMatchingColumns) {
  Rng rng(4);
  SingleTableParams p;
  p.num_columns = 2;
  p.num_rows = 5000;
  p.min_domain = 50;
  p.max_domain = 50;
  p.max_skew = 0.0;
  p.max_correlation = 1.0;
  // With max_correlation = 1 the pair correlation is random in [0,1];
  // run several seeds and confirm the match ratio spans a wide range.
  double max_ratio = 0.0;
  for (uint64_t seed = 0; seed < 8; ++seed) {
    Rng r(seed);
    Table t = GenerateSingleTable(p, &r);
    double ratio = stats::PositionalMatchRatio(t.columns[0].values,
                                               t.columns[1].values);
    max_ratio = std::max(max_ratio, ratio);
  }
  EXPECT_GT(max_ratio, 0.5);
}

TEST(ForeignKeyGenTest, CorrelationControlsCoverage) {
  Rng rng(5);
  std::vector<int32_t> pk;
  for (int32_t i = 1; i <= 1000; ++i) pk.push_back(i);
  auto fk_low = GenerateForeignKeyColumn(pk, 20000, 0.2, &rng);
  auto fk_high = GenerateForeignKeyColumn(pk, 20000, 0.95, &rng);
  std::unordered_set<int32_t> low_set(fk_low.begin(), fk_low.end());
  std::unordered_set<int32_t> high_set(fk_high.begin(), fk_high.end());
  // Coverage of the PK domain should track p.
  EXPECT_NEAR(static_cast<double>(low_set.size()) / 1000.0, 0.2, 0.05);
  EXPECT_NEAR(static_cast<double>(high_set.size()) / 1000.0, 0.95, 0.05);
  // All FK values reference existing PK values.
  for (int32_t v : fk_low) {
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 1000);
  }
}

TEST(DatasetGenTest, SingleTableDatasetHasNoJoins) {
  Rng rng(6);
  DatasetGenParams p;
  p.min_tables = p.max_tables = 1;
  p.min_rows = p.max_rows = 200;
  Dataset ds = GenerateDataset(p, &rng);
  EXPECT_EQ(ds.NumTables(), 1);
  EXPECT_TRUE(ds.foreign_keys().empty());
  EXPECT_TRUE(ds.Validate().ok());
}

TEST(DatasetGenTest, MultiTableDatasetIsConnectedTree) {
  Rng rng(7);
  DatasetGenParams p;
  p.min_tables = 4;
  p.max_tables = 4;
  p.min_rows = 100;
  p.max_rows = 300;
  Dataset ds = GenerateDataset(p, &rng);
  EXPECT_EQ(ds.NumTables(), 4);
  // A tree over n tables has exactly n-1 edges and is connected.
  EXPECT_EQ(ds.foreign_keys().size(), 3u);
  EXPECT_TRUE(engine::CheckJoinTree(ds, {0, 1, 2, 3}, ds.foreign_keys()).ok());
  EXPECT_TRUE(ds.Validate().ok());
}

TEST(DatasetGenTest, JoinCorrelationWithinConfiguredRange) {
  Rng rng(8);
  DatasetGenParams p;
  p.min_tables = 3;
  p.max_tables = 3;
  p.min_rows = 2000;
  p.max_rows = 2000;
  p.j_min = 0.5;
  p.j_max = 0.8;
  p.max_fanout_skew = 0.0;  // uniform key sampling isolates F3
  Dataset ds = GenerateDataset(p, &rng);
  for (const auto& fk : ds.foreign_keys()) {
    double jc = ds.JoinCorrelation(fk);
    EXPECT_GE(jc, 0.35);
    EXPECT_LE(jc, 0.95);
  }
}

TEST(DatasetGenTest, CorpusIsDeterministicAndDiverse) {
  DatasetGenParams p;
  p.min_tables = 1;
  p.max_tables = 3;
  p.min_rows = 50;
  p.max_rows = 200;
  Rng rng1(9), rng2(9);
  auto c1 = GenerateCorpus(p, 10, &rng1);
  auto c2 = GenerateCorpus(p, 10, &rng2);
  ASSERT_EQ(c1.size(), 10u);
  std::unordered_set<int> table_counts;
  for (size_t i = 0; i < c1.size(); ++i) {
    EXPECT_EQ(c1[i].NumTables(), c2[i].NumTables());
    EXPECT_EQ(c1[i].TotalRows(), c2[i].TotalRows());
    EXPECT_TRUE(c1[i].Validate().ok()) << c1[i].name();
    table_counts.insert(c1[i].NumTables());
  }
  EXPECT_GE(table_counts.size(), 2u);  // corpus covers several shapes
}

}  // namespace
}  // namespace autoce::data

#include "engine/join_sampler.h"

#include <gtest/gtest.h>

#include <map>

#include "data/generator.h"
#include "engine/executor.h"

namespace autoce::engine {
namespace {

TEST(JoinSamplerTest, SingleTableUniform) {
  Rng rng(1);
  data::DatasetGenParams p;
  p.min_tables = p.max_tables = 1;
  p.min_rows = p.max_rows = 50;
  data::Dataset ds = data::GenerateDataset(p, &rng);
  auto sampler = JoinSampler::Create(&ds, {0}, {});
  ASSERT_TRUE(sampler.ok());
  EXPECT_DOUBLE_EQ(sampler->TotalJoinSize(), 50.0);
  std::map<int32_t, int> counts;
  for (int i = 0; i < 5000; ++i) {
    auto t = sampler->Sample(&rng);
    ASSERT_EQ(t.size(), 1u);
    counts[t[0]]++;
  }
  EXPECT_EQ(counts.size(), 50u);  // every row reachable
  for (const auto& [row, c] : counts) {
    EXPECT_NEAR(c, 100, 60);  // roughly uniform
  }
}

TEST(JoinSamplerTest, TotalSizeMatchesExactCount) {
  for (uint64_t seed : {2, 3, 4}) {
    Rng rng(seed);
    data::DatasetGenParams p;
    p.min_tables = p.max_tables = 3;
    p.min_rows = 100;
    p.max_rows = 300;
    data::Dataset ds = data::GenerateDataset(p, &rng);
    std::vector<int> tables{0, 1, 2};
    auto sampler = JoinSampler::Create(&ds, tables, ds.foreign_keys());
    ASSERT_TRUE(sampler.ok());
    query::Query q;
    q.tables = tables;
    q.joins = ds.foreign_keys();
    auto truth = TrueCardinality(ds, q);
    ASSERT_TRUE(truth.ok());
    EXPECT_NEAR(sampler->TotalJoinSize(), static_cast<double>(*truth), 0.5);
  }
}

TEST(JoinSamplerTest, SampledTuplesSatisfyJoins) {
  Rng rng(5);
  data::DatasetGenParams p;
  p.min_tables = p.max_tables = 3;
  p.min_rows = 100;
  p.max_rows = 200;
  data::Dataset ds = data::GenerateDataset(p, &rng);
  std::vector<int> tables{0, 1, 2};
  auto sampler = JoinSampler::Create(&ds, tables, ds.foreign_keys());
  ASSERT_TRUE(sampler.ok());
  for (int i = 0; i < 200; ++i) {
    auto t = sampler->Sample(&rng);
    ASSERT_EQ(t.size(), 3u);
    for (const auto& fk : ds.foreign_keys()) {
      size_t fk_pos = 0, pk_pos = 0;
      for (size_t k = 0; k < tables.size(); ++k) {
        if (tables[k] == fk.fk_table) fk_pos = k;
        if (tables[k] == fk.pk_table) pk_pos = k;
      }
      int32_t fkv = ds.table(fk.fk_table)
                        .columns[static_cast<size_t>(fk.fk_column)]
                        .values[static_cast<size_t>(t[fk_pos])];
      int32_t pkv = ds.table(fk.pk_table)
                        .columns[static_cast<size_t>(fk.pk_column)]
                        .values[static_cast<size_t>(t[pk_pos])];
      EXPECT_EQ(fkv, pkv);
    }
  }
}

TEST(JoinSamplerTest, UniformityOverJoinRows) {
  // Tiny handcrafted join: parent {1,2}, child fks {1,1,2}. Join rows:
  // (p1,c0),(p1,c1),(p2,c2) — each must appear ~1/3 of the time.
  data::Dataset ds;
  data::Table parent;
  parent.name = "p";
  data::Column id;
  id.name = "id";
  id.domain_size = 2;
  id.values = {1, 2};
  parent.columns.push_back(id);
  parent.primary_key = 0;
  ds.AddTable(parent);
  data::Table child;
  child.name = "c";
  data::Column fk;
  fk.name = "fk";
  fk.domain_size = 2;
  fk.values = {1, 1, 2};
  child.columns.push_back(fk);
  ds.AddTable(child);
  ASSERT_TRUE(ds.AddForeignKey({1, 0, 0, 0}).ok());

  auto sampler = JoinSampler::Create(&ds, {0, 1}, ds.foreign_keys());
  ASSERT_TRUE(sampler.ok());
  EXPECT_DOUBLE_EQ(sampler->TotalJoinSize(), 3.0);
  Rng rng(7);
  std::map<std::pair<int32_t, int32_t>, int> counts;
  const int kTrials = 9000;
  for (int i = 0; i < kTrials; ++i) {
    auto t = sampler->Sample(&rng);
    counts[{t[0], t[1]}]++;
  }
  ASSERT_EQ(counts.size(), 3u);
  for (const auto& [tuple, c] : counts) {
    EXPECT_NEAR(c, kTrials / 3, kTrials / 10);
  }
}

TEST(JoinSamplerTest, RejectsNonTree) {
  Rng rng(8);
  data::DatasetGenParams p;
  p.min_tables = p.max_tables = 2;
  p.min_rows = p.max_rows = 50;
  data::Dataset ds = data::GenerateDataset(p, &rng);
  auto bad = JoinSampler::Create(&ds, {0, 1}, {});  // missing edge
  EXPECT_FALSE(bad.ok());

  // |joins| == |tables| - 1 is not enough. Here fk[0] is 2.3 -> 1.0 and
  // fk[1] is 0.5 -> 1.0.
  Rng rng5(5);
  p.min_tables = p.max_tables = 3;
  p.min_rows = 200;
  p.max_rows = 300;
  data::Dataset ds5 = data::GenerateDataset(p, &rng5);
  const auto& fks = ds5.foreign_keys();
  ASSERT_EQ(fks.size(), 2u);
  EXPECT_FALSE(JoinSampler::Create(&ds5, {0, 1, 2}, {fks[0], fks[0]}).ok());
  EXPECT_FALSE(JoinSampler::Create(&ds5, {2, 1}, {fks[1]}).ok());
}

TEST(JoinSamplerTest, EmptyJoinYieldsEmptySamples) {
  // Child FK values never match the parent PK.
  data::Dataset ds;
  data::Table parent;
  parent.name = "p";
  data::Column id;
  id.name = "id";
  id.domain_size = 10;
  id.values = {1, 2};
  parent.columns.push_back(id);
  parent.primary_key = 0;
  ds.AddTable(parent);
  data::Table child;
  child.name = "c";
  data::Column fk;
  fk.name = "fk";
  fk.domain_size = 10;
  fk.values = {9, 9};
  child.columns.push_back(fk);
  ds.AddTable(child);
  ASSERT_TRUE(ds.AddForeignKey({1, 0, 0, 0}).ok());

  auto sampler = JoinSampler::Create(&ds, {0, 1}, ds.foreign_keys());
  ASSERT_TRUE(sampler.ok());
  EXPECT_DOUBLE_EQ(sampler->TotalJoinSize(), 0.0);
  Rng rng(9);
  EXPECT_TRUE(sampler->Sample(&rng).empty());
}

}  // namespace
}  // namespace autoce::engine

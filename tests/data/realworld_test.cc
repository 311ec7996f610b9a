#include "data/realworld.h"

#include <gtest/gtest.h>

#include "engine/executor.h"

namespace autoce::data {
namespace {

TEST(ImdbLikeTest, MatchesPaperTableOneShape) {
  Rng rng(1);
  Dataset ds = MakeImdbLike(0.01, &rng);
  EXPECT_EQ(ds.NumTables(), 6);
  // 12 non-key columns: total = 12 + 6 PKs + 5 FKs = 23.
  int non_key = 0;
  for (int t = 0; t < ds.NumTables(); ++t) {
    const Table& tab = ds.table(t);
    for (int c = 0; c < tab.NumColumns(); ++c) {
      bool is_key = (c == tab.primary_key);
      for (const auto& fk : ds.foreign_keys()) {
        if (fk.fk_table == t && fk.fk_column == c) is_key = true;
      }
      if (!is_key) ++non_key;
    }
  }
  EXPECT_EQ(non_key, 12);
  EXPECT_EQ(ds.foreign_keys().size(), 5u);  // star around title
  EXPECT_TRUE(ds.Validate().ok());
}

TEST(StatsLikeTest, MatchesPaperTableOneShape) {
  Rng rng(2);
  Dataset ds = MakeStatsLike(0.01, &rng);
  EXPECT_EQ(ds.NumTables(), 8);
  int non_key = 0;
  for (int t = 0; t < ds.NumTables(); ++t) {
    const Table& tab = ds.table(t);
    for (int c = 0; c < tab.NumColumns(); ++c) {
      bool is_key = (c == tab.primary_key);
      for (const auto& fk : ds.foreign_keys()) {
        if (fk.fk_table == t && fk.fk_column == c) is_key = true;
      }
      if (!is_key) ++non_key;
    }
  }
  EXPECT_EQ(non_key, 23);
  EXPECT_EQ(ds.foreign_keys().size(), 7u);
  EXPECT_TRUE(ds.Validate().ok());
}

TEST(PowerLikeTest, SingleWideCorrelatedTable) {
  Rng rng(3);
  Dataset ds = MakePowerLike(2000, &rng);
  EXPECT_EQ(ds.NumTables(), 1);
  EXPECT_EQ(ds.table(0).NumColumns(), 7);
  EXPECT_EQ(ds.table(0).NumRows(), 2000);
  EXPECT_TRUE(ds.foreign_keys().empty());
  EXPECT_TRUE(ds.Validate().ok());
}

TEST(ScaleTest, RowCountsScaleLinearly) {
  Rng rng1(4), rng2(4);
  Dataset small = MakeImdbLike(0.005, &rng1);
  Dataset large = MakeImdbLike(0.02, &rng2);
  EXPECT_GT(large.TotalRows(), 2 * small.TotalRows());
}

TEST(SplitSamplesTest, ProducesValidConnectedSubDatasets) {
  Rng rng(5);
  Dataset base = MakeImdbLike(0.01, &rng);
  auto subs = SplitSamples(base, 20, 5, &rng);
  ASSERT_EQ(subs.size(), 20u);
  for (const auto& sub : subs) {
    EXPECT_GE(sub.NumTables(), 1);
    EXPECT_LE(sub.NumTables(), 5);
    ASSERT_TRUE(sub.Validate().ok()) << sub.name();
    // Joined tables must be connected.
    std::vector<int> all;
    for (int t = 0; t < sub.NumTables(); ++t) all.push_back(t);
    EXPECT_TRUE(engine::CheckJoinTree(sub, all, sub.foreign_keys()).ok())
        << sub.name();
    // Per the paper's procedure: 1-2 non-key columns per table.
    for (int t = 0; t < sub.NumTables(); ++t) {
      const Table& tab = sub.table(t);
      int non_key = 0;
      for (int c = 0; c < tab.NumColumns(); ++c) {
        bool is_key = (c == tab.primary_key);
        for (const auto& fk : sub.foreign_keys()) {
          if (fk.fk_table == t && fk.fk_column == c) is_key = true;
        }
        if (!is_key) ++non_key;
      }
      EXPECT_GE(non_key, 1);
      EXPECT_LE(non_key, 2);
    }
  }
}

TEST(SplitSamplesTest, SamplesAreDiverse) {
  Rng rng(6);
  Dataset base = MakeStatsLike(0.01, &rng);
  auto subs = SplitSamples(base, 20, 5, &rng);
  std::set<int> table_counts;
  for (const auto& s : subs) table_counts.insert(s.NumTables());
  EXPECT_GE(table_counts.size(), 2u);
}

}  // namespace
}  // namespace autoce::data

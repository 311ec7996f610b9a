// Edge-case coverage across modules: truncation paths, degenerate
// parameters, and determinism guarantees not covered by the per-module
// suites.

#include <gtest/gtest.h>

#include <set>

#include "advisor/baselines.h"
#include "data/generator.h"
#include "data/realworld.h"
#include "engine/histogram.h"
#include "featgraph/featgraph.h"
#include "util/rng.h"

namespace autoce {
namespace {

TEST(FeatgraphEdgeTest, TablesBeyondMaxColumnsAreTruncated) {
  // A 12-column table against max_columns = 4: only the first 4 columns
  // contribute features, and extraction must not crash.
  Rng rng(1);
  data::SingleTableParams tp;
  tp.num_columns = 12;
  tp.num_rows = 200;
  data::Dataset ds;
  ds.AddTable(data::GenerateSingleTable(tp, &rng));
  featgraph::FeatureGraphConfig cfg;
  cfg.max_columns = 4;
  featgraph::FeatureExtractor fx(cfg);
  featgraph::FeatureGraph g = fx.Extract(ds);
  EXPECT_EQ(g.vertices.cols(), static_cast<size_t>(cfg.VertexDim()));
  // Column-count feature saturates at its clamp (1.5) when cols >> m.
  int k = featgraph::FeatureGraphConfig::kFeaturesPerColumn;
  size_t tail = static_cast<size_t>((k + 4) * 4);
  EXPECT_DOUBLE_EQ(g.vertices(0, tail + 1), 1.5);
}

TEST(FeatgraphEdgeTest, FlattenTruncatesExtraTables) {
  Rng rng(2);
  data::Dataset big = data::MakeStatsLike(0.005, &rng);  // 8 tables
  featgraph::FeatureExtractor fx;
  auto g = fx.Extract(big);
  auto flat = fx.Flatten(g, /*max_tables=*/4);
  EXPECT_EQ(flat.size(), 4 * fx.vertex_dim() + 16);
}

TEST(KnnSelectorEdgeTest, KLargerThanCorpus) {
  advisor::LabeledCorpus corpus;
  featgraph::FeatureExtractor fx;
  Rng rng(3);
  for (int i = 0; i < 3; ++i) {
    data::DatasetGenParams p;
    p.min_tables = p.max_tables = 1;
    p.min_rows = p.max_rows = 100;
    Rng child = rng.Fork(static_cast<uint64_t>(i));
    corpus.datasets.push_back(data::GenerateDataset(p, &child));
    corpus.graphs.push_back(fx.Extract(corpus.datasets.back()));
    advisor::DatasetLabel label;
    for (size_t m = 0; m < ce::kNumModels; ++m) {
      label.accuracy_score[m] = child.Uniform(0.1, 1.0);
      label.efficiency_score[m] = child.Uniform(0.1, 1.0);
    }
    corpus.labels.push_back(label);
  }
  advisor::KnnSelector::Config cfg;
  cfg.k = 10;  // more neighbors than datasets
  advisor::KnnSelector knn(cfg);
  ASSERT_TRUE(knn.Fit(corpus).ok());
  auto rec = knn.Recommend(corpus.datasets[0], corpus.graphs[0], 0.5);
  EXPECT_TRUE(rec.ok());
}

TEST(HistogramEdgeTest, MassiveDuplicatesKeepUniqueBounds) {
  // 90% one value: bucket boundary extension must not produce duplicate
  // upper bounds or lose rows.
  std::vector<int32_t> v(9000, 42);
  for (int32_t i = 0; i < 1000; ++i) v.push_back(100 + i % 50);
  auto h = engine::EquiDepthHistogram::Build(v, 16);
  EXPECT_EQ(h.num_rows(), 10000);
  EXPECT_NEAR(h.EqualitySelectivity(42), 0.9, 0.05);
  EXPECT_NEAR(h.RangeSelectivity(1, 200), 1.0, 1e-9);
}

TEST(SplitSamplesTest, DeterministicForSeed) {
  Rng rng_a(9), rng_b(9);
  Rng mk_a(4), mk_b(4);
  data::Dataset base_a = data::MakeImdbLike(0.005, &mk_a);
  data::Dataset base_b = data::MakeImdbLike(0.005, &mk_b);
  auto sa = data::SplitSamples(base_a, 10, 5, &rng_a);
  auto sb = data::SplitSamples(base_b, 10, 5, &rng_b);
  ASSERT_EQ(sa.size(), sb.size());
  for (size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i].NumTables(), sb[i].NumTables());
    EXPECT_EQ(sa[i].TotalColumns(), sb[i].TotalColumns());
  }
}

TEST(RngEdgeTest, BetaExtremeShapes) {
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    double tiny = rng.Beta(0.2, 0.2);  // U-shaped
    EXPECT_GE(tiny, 0.0);
    EXPECT_LE(tiny, 1.0);
    double big = rng.Beta(50, 50);  // concentrated at 0.5
    EXPECT_GT(big, 0.2);
    EXPECT_LT(big, 0.8);
  }
}

TEST(RuleSelectorDistributionTest, RandomizesWithinClass) {
  // The rule baseline picks *randomly* within the class — all three
  // data-driven models must appear over enough single-table datasets.
  Rng rng(7);
  data::DatasetGenParams p;
  p.min_tables = p.max_tables = 1;
  p.min_rows = p.max_rows = 80;
  data::Dataset ds = data::GenerateDataset(p, &rng);
  featgraph::FeatureExtractor fx;
  auto g = fx.Extract(ds);
  advisor::RuleSelector rule(11);
  std::set<ce::ModelId> seen;
  for (int i = 0; i < 60; ++i) {
    auto rec = rule.Recommend(ds, g, 1.0);
    ASSERT_TRUE(rec.ok());
    seen.insert(*rec);
  }
  EXPECT_EQ(seen.size(), 3u);
}

}  // namespace
}  // namespace autoce

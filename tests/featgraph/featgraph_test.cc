#include "featgraph/featgraph.h"

#include <gtest/gtest.h>

#include "data/generator.h"

namespace autoce::featgraph {
namespace {

data::Dataset MakeDs(uint64_t seed, int tables, double max_skew = 1.0,
                     double max_corr = 1.0) {
  Rng rng(seed);
  data::DatasetGenParams p;
  p.min_tables = p.max_tables = tables;
  p.min_rows = 400;
  p.max_rows = 800;
  p.min_columns = 2;
  p.max_columns = 3;
  p.max_skew = max_skew;
  p.max_correlation = max_corr;
  return data::GenerateDataset(p, &rng);
}

TEST(FeatureGraphTest, ShapeMatchesPaperFormula) {
  FeatureGraphConfig cfg;
  cfg.max_columns = 4;
  FeatureExtractor fx(cfg);
  // Paper Example 3: (6 + 4) * 4 + 2 = 42.
  EXPECT_EQ(fx.vertex_dim(), 42u);

  data::Dataset ds = MakeDs(1, 3);
  FeatureGraph g = fx.Extract(ds);
  EXPECT_EQ(g.NumVertices(), 3);
  EXPECT_EQ(g.vertices.cols(), 42u);
  EXPECT_EQ(g.edges.rows(), 3u);
  EXPECT_EQ(g.edges.cols(), 3u);
}

TEST(FeatureGraphTest, EdgeWeightsAreJoinCorrelations) {
  data::Dataset ds = MakeDs(2, 2);
  FeatureExtractor fx;
  FeatureGraph g = fx.Extract(ds);
  const auto& fk = ds.foreign_keys()[0];
  double jc = ds.JoinCorrelation(fk);
  EXPECT_DOUBLE_EQ(g.edges(static_cast<size_t>(fk.pk_table),
                           static_cast<size_t>(fk.fk_table)),
                   jc);
  // Symmetric for undirected message passing.
  EXPECT_DOUBLE_EQ(g.edges(static_cast<size_t>(fk.fk_table),
                           static_cast<size_t>(fk.pk_table)),
                   jc);
  EXPECT_GT(jc, 0.0);
}

TEST(FeatureGraphTest, SingleTableHasNoEdges) {
  data::Dataset ds = MakeDs(3, 1);
  FeatureExtractor fx;
  FeatureGraph g = fx.Extract(ds);
  EXPECT_EQ(g.NumVertices(), 1);
  EXPECT_DOUBLE_EQ(g.edges.Norm(), 0.0);
}

TEST(FeatureGraphTest, SkewFeatureTracksGeneration) {
  // A high-skew dataset must produce larger skew features than a
  // uniform one (extraction is the inverse of generation F1).
  FeatureExtractor fx;
  data::Dataset skewed = MakeDs(4, 1, /*max_skew=*/1.0, /*max_corr=*/0.0);
  data::Dataset flat = MakeDs(4, 1, /*max_skew=*/0.0, /*max_corr=*/0.0);
  FeatureGraph gs = fx.Extract(skewed);
  FeatureGraph gf = fx.Extract(flat);
  // Feature 0 of each column block is the squashed skewness; compare the
  // first column's.
  EXPECT_GT(gs.vertices(0, 0), gf.vertices(0, 0));
}

TEST(FeatureGraphTest, CorrelationBlockIsPopulated) {
  FeatureExtractor fx;
  data::Dataset ds = MakeDs(5, 1, 0.5, 1.0);
  FeatureGraph g = fx.Extract(ds);
  int k = FeatureGraphConfig::kFeaturesPerColumn;
  int m = fx.config().max_columns;
  // Diagonal entries (self-correlation) are exactly 1 for real columns.
  int cols = std::min(ds.table(0).NumColumns(), m);
  for (int c = 0; c < cols; ++c) {
    EXPECT_DOUBLE_EQ(
        g.vertices(0, static_cast<size_t>(k * m + c * m + c)), 1.0);
  }
  // Padding stays zero.
  if (cols < m) {
    EXPECT_DOUBLE_EQ(
        g.vertices(0, static_cast<size_t>(k * m + (m - 1) * m + (m - 1))),
        0.0);
  }
}

TEST(FeatureGraphTest, FlattenHasFixedWidth) {
  FeatureExtractor fx;
  data::Dataset small = MakeDs(6, 1);
  data::Dataset large = MakeDs(7, 4);
  auto f1 = fx.Flatten(fx.Extract(small), 8);
  auto f2 = fx.Flatten(fx.Extract(large), 8);
  EXPECT_EQ(f1.size(), f2.size());
  EXPECT_EQ(f1.size(), 8 * fx.vertex_dim() + 64);
}

TEST(MixupTest, InterpolatesVerticesAndEdges) {
  FeatureExtractor fx;
  data::Dataset a = MakeDs(8, 2);
  data::Dataset b = MakeDs(9, 3);
  FeatureGraph ga = fx.Extract(a);
  FeatureGraph gb = fx.Extract(b);
  FeatureGraph mixed = MixupGraphs(ga, gb, 0.25);
  EXPECT_EQ(mixed.NumVertices(), 3);  // max of the two
  // Check one interpolated entry: vertex 0, feature 0.
  double expected = 0.25 * ga.vertices(0, 0) + 0.75 * gb.vertices(0, 0);
  EXPECT_NEAR(mixed.vertices(0, 0), expected, 1e-12);
  // Row 2 only exists in b: contributes with weight (1 - lambda).
  EXPECT_NEAR(mixed.vertices(2, 0), 0.75 * gb.vertices(2, 0), 1e-12);
}

TEST(MixupTest, LambdaEndpointsReproduceInputs) {
  FeatureExtractor fx;
  data::Dataset a = MakeDs(10, 2);
  data::Dataset b = MakeDs(11, 2);
  FeatureGraph ga = fx.Extract(a);
  FeatureGraph gb = fx.Extract(b);
  FeatureGraph m1 = MixupGraphs(ga, gb, 1.0);
  for (size_t i = 0; i < ga.vertices.size(); ++i) {
    EXPECT_NEAR(m1.vertices.data()[i], ga.vertices.data()[i], 1e-12);
  }
}

TEST(GraphFingerprintTest, ValuesArePinned) {
  // QUARANTINE.log persists fingerprints across restarts and `autoce
  // adapt requeue` matches them, so the hash must never change.
  FeatureGraph g;
  g.dataset_name = "fingerprint_pin";
  g.vertices = nn::Matrix::FromRows({{0.5, -1.25, 3.0}, {0.0, 1e-3, 42.0}});
  g.edges = nn::Matrix::FromRows({{0.0, 0.75}, {0.75, 0.0}});
  EXPECT_EQ(GraphFingerprint(g), 0x947F10922557DEC5ULL);
  EXPECT_EQ(GraphFingerprint(FeatureGraph{}), 0x88201FB960FF6465ULL);
}

}  // namespace
}  // namespace autoce::featgraph

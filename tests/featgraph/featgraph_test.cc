#include "featgraph/featgraph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "data/generator.h"
#include "util/rng.h"

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

TEST(FeatureGraphTest, RangeFeatureOfExtremeCodesDoesNotOverflow) {
  // Datasets loaded from files are extracted without Validate, so codes
  // may span all of int32: max - min + 1 = 2^32 must not wrap.
  auto range_feature = [](std::vector<int32_t> values) {
    data::Table t;
    t.name = "t";
    t.columns.push_back(data::Column{"c", 10, std::move(values)});
    data::Dataset ds("extremes");
    ds.AddTable(std::move(t));
    FeatureExtractor fx;
    FeatureGraph g = fx.Extract(ds);
    EXPECT_TRUE(ValidateGraph(g, fx.vertex_dim()).ok());
    return g.vertices(0, 3);
  };
  // log10(2^32) / 6 = 1.605..., clamped to 1.5.
  EXPECT_DOUBLE_EQ(range_feature({INT32_MIN, 0, INT32_MAX}), 1.5);
  // log10(1000) / 6 over negative codes.
  EXPECT_DOUBLE_EQ(range_feature({-500, 499, 0}), 0.5);
}

/// Generated datasets that reach every guard of the column features:
/// 1-3-row tables (the n < 2, 3, 4 moment guards), domain-1 constant
/// columns (sd < 1e-12), tables of up to 10 columns, and both single-
/// and multi-table datasets.
std::vector<data::Dataset> PinSweep() {
  std::vector<data::Dataset> out;
  for (int i = 0; i < 48; ++i) {
    Rng rng(9000 + static_cast<uint64_t>(i));
    data::DatasetGenParams p;
    p.name = "pin" + std::to_string(i);
    p.min_tables = 1;
    p.max_tables = 1 + i % 4;
    p.min_columns = 1;
    p.max_columns = 1 + i % 10;
    p.min_rows = 1;
    p.max_rows = i % 3 == 0 ? 4 : 1500;
    p.min_domain = 1;
    p.max_domain = i % 5 == 0 ? 1 : 30000;
    out.push_back(data::GenerateDataset(p, &rng));
  }
  return out;
}

TEST(FeatureGraphTest, ExtractIsPinned) {
  // Recommendations, RCS graphs and every fingerprint-keyed record
  // depend on the exact feature bits, so Extract's output must never
  // change: each dataset's GraphFingerprint is folded into one digest
  // per layout.
  std::vector<data::Dataset> sweep = PinSweep();
  bool rows_seen[4] = {false, false, false, false};
  bool constant_column = false, wide_table = false;
  bool single_table = false, multi_table = false;
  for (const data::Dataset& ds : sweep) {
    (ds.NumTables() == 1 ? single_table : multi_table) = true;
    for (const data::Table& t : ds.tables()) {
      if (t.NumRows() <= 3) rows_seen[t.NumRows()] = true;
      wide_table |= t.NumColumns() > 8;
      for (const data::Column& c : t.columns) {
        constant_column |=
            t.NumRows() >= 4 &&
            std::all_of(c.values.begin(), c.values.end(),
                        [&](int32_t v) { return v == c.values[0]; });
      }
    }
  }
  ASSERT_TRUE(rows_seen[1] && rows_seen[2] && rows_seen[3]);
  ASSERT_TRUE(constant_column && wide_table && single_table && multi_table);

  auto digest = [&](int max_columns) {
    FeatureGraphConfig cfg;
    cfg.max_columns = max_columns;
    FeatureExtractor fx(cfg);
    uint64_t h = 14695981039346656037ULL;
    for (const data::Dataset& ds : sweep) {
      h = (h ^ GraphFingerprint(fx.Extract(ds))) * 1099511628211ULL;
    }
    return h;
  };
  EXPECT_EQ(digest(8), 0xE5C71EA017087649ULL);
  EXPECT_EQ(digest(3), 0x0B2198D5C59E3E33ULL);
}

TEST(FeatureGraphTest, ColumnsOfUnequalLengthArePinned) {
  // Extract takes any dataset, validated or not, so a table's columns
  // can differ in length. The lengths interleave, so a block of adjacent
  // columns would mix them and read past a short column.
  data::Table t;
  t.name = "ragged";
  Rng rng(31);
  for (size_t n : {40, 7, 40, 40, 7, 40, 0, 40, 3, 7}) {
    std::vector<int32_t> values(n);
    for (int32_t& v : values) v = static_cast<int32_t>(rng.UniformInt(1, 50));
    std::string name = "c";
    name += std::to_string(t.columns.size());
    t.columns.push_back(data::Column{std::move(name), 50, std::move(values)});
  }
  data::Dataset ds("ragged");
  ds.AddTable(std::move(t));
  auto fingerprint = [&](int max_columns) {
    FeatureGraphConfig cfg;
    cfg.max_columns = max_columns;
    return GraphFingerprint(FeatureExtractor(cfg).Extract(ds));
  };
  EXPECT_EQ(fingerprint(10), 0x1D0ABA6CDC6AAC8FULL);
  EXPECT_EQ(fingerprint(8), 0xBDB6D898CF5744BDULL);
  EXPECT_EQ(fingerprint(3), 0x5F5FD7DE6D0D3C7FULL);
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

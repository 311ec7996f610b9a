// Edge cases of the drift threshold (paper Sec. V-E): unfitted and
// degenerate corpora must yield a well-defined threshold (never NaN,
// never a threshold that flags everything OOD), and the threshold must
// survive a snapshot resume bit-for-bit. Uses synthetic labels — no
// testbed — so the suite stays fast.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "advisor/autoce.h"
#include "data/generator.h"
#include "util/stats.h"

namespace autoce::advisor {
namespace {

AutoCeConfig TinyConfig() {
  AutoCeConfig cfg;
  cfg.dml.epochs = 4;
  cfg.validation_interval = 2;
  cfg.enable_incremental = false;
  cfg.gin.hidden = 8;
  cfg.gin.embedding_dim = 4;
  cfg.knn_k = 2;
  return cfg;
}

std::vector<DatasetLabel> SyntheticLabels(size_t n) {
  std::vector<DatasetLabel> labels(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t m = 0; m < ce::kNumModels; ++m) {
      labels[i].accuracy_score[m] =
          0.1 + 0.9 * static_cast<double>((i + m) % 7) / 6.0;
      labels[i].efficiency_score[m] =
          0.1 + 0.9 * static_cast<double>((3 * i + 2 * m) % 7) / 6.0;
      labels[i].qerror_mean[m] = 1.0 + static_cast<double>(m);
      labels[i].latency_ms[m] = 1.0 + static_cast<double>(i % 5);
    }
  }
  return labels;
}

std::vector<featgraph::FeatureGraph> MakeGraphs(int n, uint64_t seed) {
  data::DatasetGenParams gen;
  gen.min_tables = 1;
  gen.max_tables = 2;
  gen.min_rows = 100;
  gen.max_rows = 200;
  gen.min_columns = 2;
  gen.max_columns = 3;
  Rng rng(seed);
  featgraph::FeatureExtractor fx;
  std::vector<featgraph::FeatureGraph> graphs;
  for (const auto& d : data::GenerateCorpus(gen, n, &rng)) {
    graphs.push_back(fx.Extract(d));
  }
  return graphs;
}

std::string TempStoreDir(const std::string& name) {
  std::string dir = std::string(::testing::TempDir()) + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(DriftEdgeTest, UnfittedAdvisorHasZeroThreshold) {
  // Empty corpus: the threshold is the identity element, not garbage.
  AutoCe advisor(TinyConfig());
  EXPECT_EQ(advisor.DriftThreshold(), 0.0);
  EXPECT_EQ(advisor.RcsSize(), 0u);
}

TEST(DriftEdgeTest, PercentileDegenerateInputsAreWellDefined) {
  // The building block RefreshDriftThreshold rests on: an empty
  // nearest-neighbor distance list (unfitted or single-member corpus —
  // no member has a neighbor to measure against) yields 0, and a
  // single distance yields that distance at every percentile.
  EXPECT_EQ(stats::Percentile({}, 90.0), 0.0);
  EXPECT_EQ(stats::Percentile({2.5}, 90.0), 2.5);
  EXPECT_EQ(stats::Percentile({2.5}, 0.0), 2.5);
}

TEST(DriftEdgeTest, AllIdenticalEmbeddingsYieldZeroThresholdNotAllOod) {
  // Six copies of one dataset: every pairwise embedding distance is 0,
  // so the 90th-percentile threshold collapses to 0. The strict `>` in
  // IsOutOfDistribution keeps corpus members in-distribution — a
  // degenerate corpus must not flag every request as OOD.
  auto graphs = MakeGraphs(2, 51);
  std::vector<featgraph::FeatureGraph> identical(6, graphs[0]);
  auto labels = SyntheticLabels(1);
  std::vector<DatasetLabel> same_labels(6, labels[0]);

  AutoCe advisor(TinyConfig());
  ASSERT_TRUE(advisor.Fit(identical, same_labels).ok());
  EXPECT_EQ(advisor.DriftThreshold(), 0.0);
  EXPECT_EQ(advisor.DistanceToRcs(graphs[0]), 0.0);
  EXPECT_FALSE(advisor.IsOutOfDistribution(graphs[0]));

  // A genuinely different dataset sits at positive distance and the
  // zero threshold classifies it OOD — detection still works.
  double distance = advisor.DistanceToRcs(graphs[1]);
  EXPECT_EQ(advisor.IsOutOfDistribution(graphs[1]), distance > 0.0);
  EXPECT_GT(distance, 0.0);
}

TEST(DriftEdgeTest, ThresholdSurvivesResumeBitForBit) {
  auto graphs = MakeGraphs(8, 52);
  auto labels = SyntheticLabels(8);
  std::string dir = TempStoreDir("drift_resume");

  AutoCe advisor(TinyConfig());
  ASSERT_TRUE(advisor.EnableSnapshots(dir).ok());
  ASSERT_TRUE(advisor.Fit(graphs, labels).ok());
  double threshold = advisor.DriftThreshold();
  EXPECT_GT(threshold, 0.0);

  auto resumed = AutoCe::ResumeFit(dir);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed->DriftThreshold(), threshold);
  EXPECT_EQ(resumed->ModelDigest(), advisor.ModelDigest());
}

TEST(DriftEdgeTest, ThresholdRefreshAfterResumeMatchesInMemoryUpdate) {
  // An online update applied to a resumed advisor must move the
  // threshold (and every other bit of state) exactly as the same
  // update applied to the advisor that never left memory.
  auto graphs = MakeGraphs(9, 53);
  auto labels = SyntheticLabels(9);
  std::vector<featgraph::FeatureGraph> train(graphs.begin(),
                                             graphs.begin() + 8);
  std::vector<DatasetLabel> train_labels(labels.begin(), labels.begin() + 8);
  std::string dir = TempStoreDir("drift_resume_update");

  AutoCe advisor(TinyConfig());
  ASSERT_TRUE(advisor.EnableSnapshots(dir).ok());
  ASSERT_TRUE(advisor.Fit(train, train_labels).ok());

  auto resumed = AutoCe::ResumeFit(dir);
  ASSERT_TRUE(resumed.ok());
  ASSERT_TRUE(advisor.AddLabeledSample(graphs[8], labels[8]).ok());
  ASSERT_TRUE(resumed->AddLabeledSample(graphs[8], labels[8]).ok());
  EXPECT_EQ(resumed->DriftThreshold(), advisor.DriftThreshold());
  EXPECT_EQ(resumed->ModelDigest(), advisor.ModelDigest());
}

TEST(DriftEdgeTest, EmptyOnlineBatchIsANoOp) {
  auto graphs = MakeGraphs(6, 54);
  auto labels = SyntheticLabels(6);
  AutoCe advisor(TinyConfig());
  ASSERT_TRUE(advisor.Fit(graphs, labels).ok());
  uint64_t digest = advisor.ModelDigest();
  ASSERT_TRUE(advisor.AddLabeledSamples({}, {}).ok());
  EXPECT_EQ(advisor.ModelDigest(), digest);
  // Mismatched sizes are rejected before any mutation.
  EXPECT_FALSE(advisor.AddLabeledSamples({graphs[0]}, {}).ok());
  EXPECT_EQ(advisor.ModelDigest(), digest);
}

}  // namespace
}  // namespace autoce::advisor

// End-to-end determinism of the parallel runtime: labels from the CE
// testbed, GIN embeddings after AutoCe::Fit, and KNN recommendations
// must be bit-identical at every thread count (the ISSUE-1 contract;
// see DESIGN.md "Parallelism & determinism").
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "advisor/autoce.h"
#include "advisor/label.h"
#include "data/generator.h"
#include "util/parallel.h"

namespace autoce::advisor {
namespace {

/// Bitwise equality for doubles (== would conflate 0.0 / -0.0 and choke
/// on hypothetical NaNs; the contract is *bit* identity).
bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

std::vector<data::Dataset> SmallCorpus() {
  Rng rng(7251);
  data::DatasetGenParams gen;
  gen.min_tables = 1;
  gen.max_tables = 2;
  gen.min_rows = 150;
  gen.max_rows = 300;
  gen.min_columns = 2;
  gen.max_columns = 3;
  return data::GenerateCorpus(gen, 8, &rng);
}

LabeledCorpus LabelSmallCorpus() {
  ce::TestbedConfig testbed;
  testbed.num_train_queries = 24;
  testbed.num_test_queries = 12;
  testbed.scale = ce::ModelTrainingScale::Fast();
  featgraph::FeatureExtractor extractor;
  return LabelCorpus(SmallCorpus(), testbed, extractor);
}

class PipelineDeterminismTest : public ::testing::TestWithParam<int> {
 protected:
  void TearDown() override {
    util::SetGlobalParallelism(util::DefaultParallelism());
  }

  /// Runs the full pipeline (generate -> label -> fit -> recommend) at
  /// the given thread count and returns everything comparable.
  struct PipelineResult {
    LabeledCorpus corpus;
    std::vector<std::vector<double>> embeddings;
    uint64_t encoder_digest = 0;
    std::vector<ce::ModelId> recommendations;
  };

  static PipelineResult RunPipeline(int threads) {
    util::SetGlobalParallelism(threads);
    PipelineResult out;
    out.corpus = LabelSmallCorpus();

    AutoCeConfig cfg;
    cfg.dml.epochs = 6;
    cfg.validation_interval = 3;
    cfg.incremental_epochs = 2;
    cfg.gin.hidden = 16;
    cfg.gin.embedding_dim = 8;
    cfg.knn_k = 3;
    AutoCe advisor(cfg);
    Status st = advisor.Fit(out.corpus.graphs, out.corpus.labels);
    EXPECT_TRUE(st.ok()) << st.message();
    out.encoder_digest = advisor.EncoderDigest();

    for (const auto& g : out.corpus.graphs) {
      out.embeddings.push_back(advisor.Embed(g));
      auto rec = advisor.Recommend(g, /*w_a=*/0.9);
      EXPECT_TRUE(rec.ok());
      out.recommendations.push_back(rec.ok() ? rec->model
                                             : ce::ModelId::kMscn);
    }
    return out;
  }
};

TEST_P(PipelineDeterminismTest, MatchesSingleThreadedRunBitForBit) {
  PipelineResult base = RunPipeline(1);
  PipelineResult got = RunPipeline(GetParam());

  // Stage-1 testbed labels.
  ASSERT_EQ(base.corpus.size(), got.corpus.size());
  for (size_t i = 0; i < base.corpus.size(); ++i) {
    for (int m = 0; m < ce::kNumModels; ++m) {
      size_t mi = static_cast<size_t>(m);
      EXPECT_TRUE(SameBits(base.corpus.labels[i].accuracy_score[mi],
                           got.corpus.labels[i].accuracy_score[mi]))
          << "accuracy " << i << "/" << m;
      EXPECT_TRUE(SameBits(base.corpus.labels[i].efficiency_score[mi],
                           got.corpus.labels[i].efficiency_score[mi]))
          << "efficiency " << i << "/" << m;
      EXPECT_TRUE(SameBits(base.corpus.labels[i].qerror_mean[mi],
                           got.corpus.labels[i].qerror_mean[mi]))
          << "qerror " << i << "/" << m;
    }
    // Feature graphs (dataset generation + extraction).
    const auto& gb = base.corpus.graphs[i].vertices;
    const auto& gg = got.corpus.graphs[i].vertices;
    ASSERT_TRUE(gb.SameShape(gg));
    for (size_t v = 0; v < gb.size(); ++v) {
      EXPECT_TRUE(SameBits(gb.data()[v], gg.data()[v])) << "vertex " << v;
    }
  }

  // GIN parameters and embeddings after the full Fit (DML training,
  // checkpointing, incremental learning).
  EXPECT_EQ(base.encoder_digest, got.encoder_digest);
  ASSERT_EQ(base.embeddings.size(), got.embeddings.size());
  for (size_t i = 0; i < base.embeddings.size(); ++i) {
    ASSERT_EQ(base.embeddings[i].size(), got.embeddings[i].size());
    for (size_t c = 0; c < base.embeddings[i].size(); ++c) {
      EXPECT_TRUE(SameBits(base.embeddings[i][c], got.embeddings[i][c]))
          << "embedding " << i << "[" << c << "]";
    }
  }

  // KNN recommendations.
  EXPECT_EQ(base.recommendations, got.recommendations);
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, PipelineDeterminismTest,
                         ::testing::Values(1, 2, 8));

}  // namespace
}  // namespace autoce::advisor

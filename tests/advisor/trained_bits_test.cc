// Pins the absolute bits of a trained advisor. Every other DML, refresh
// and vote check compares two runs (thread counts, resume against
// uninterrupted, load against save), so a change that moved every bit
// the same way everywhere would pass them; this one holds the values
// themselves at every thread count and SIMD level. Uses synthetic
// labels — no testbed — so it stays fast.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "advisor/autoce.h"
#include "data/generator.h"
#include "util/parallel.h"
#include "util/simd.h"

namespace autoce::advisor {
namespace {

namespace simd = util::simd;

uint64_t Fold(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ULL;
  }
  return h;
}

uint64_t FoldRecommendation(uint64_t h, const AutoCe::Recommendation& rec) {
  h = Fold(h, static_cast<uint64_t>(rec.model));
  for (double s : rec.score_vector) h = Fold(h, std::bit_cast<uint64_t>(s));
  return h;
}

std::vector<DatasetLabel> SyntheticLabels(size_t n) {
  std::vector<DatasetLabel> labels(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t m = 0; m < ce::kNumModels; ++m) {
      labels[i].accuracy_score[m] =
          0.1 + 0.9 * static_cast<double>((i * i + m) % 7) / 6.0;
      labels[i].efficiency_score[m] =
          0.1 + 0.9 * static_cast<double>((3 * i + 2 * m) % 5) / 4.0;
      labels[i].qerror_mean[m] = 1.0 + static_cast<double>(m);
      labels[i].latency_ms[m] = 1.0 + static_cast<double>(i % 5);
    }
  }
  return labels;
}

std::vector<featgraph::FeatureGraph> MakeGraphs(int n) {
  data::DatasetGenParams gen;
  gen.min_tables = 1;
  gen.max_tables = 3;
  gen.min_rows = 100;
  gen.max_rows = 200;
  gen.min_columns = 2;
  gen.max_columns = 3;
  Rng rng(9173);
  featgraph::FeatureExtractor fx;
  std::vector<featgraph::FeatureGraph> graphs;
  for (const auto& d : data::GenerateCorpus(gen, n, &rng)) {
    graphs.push_back(fx.Extract(d));
  }
  return graphs;
}

struct Bits {
  uint64_t encoder_digest = 0;
  uint64_t best_err = 0;
  uint64_t fit_model_digest = 0;
  size_t fit_rcs_size = 0;
  uint64_t added_model_digest = 0;
  uint64_t recommend_fold = 0;
  uint64_t default_fold = 0;
  uint64_t distance_fold = 0;
};

Bits TrainAndProbe() {
  auto graphs = MakeGraphs(24);
  auto labels = SyntheticLabels(graphs.size());
  // 18 fit members (Mixup grows the RCS to 35), two online additions,
  // four held-out targets. Every DML batch holds several graphs, so the
  // order their gradients add in shows in the bits.
  std::vector<featgraph::FeatureGraph> fit_graphs(graphs.begin(),
                                                  graphs.begin() + 18);
  std::vector<DatasetLabel> fit_labels(labels.begin(), labels.begin() + 18);

  AutoCeConfig cfg;
  cfg.dml.epochs = 4;
  cfg.validation_interval = 2;
  cfg.incremental_epochs = 2;
  cfg.gin.hidden = 8;
  cfg.gin.embedding_dim = 4;
  cfg.online_update_epochs = 2;
  AutoCe advisor(cfg);
  Bits out;
  EXPECT_TRUE(advisor.Fit(fit_graphs, fit_labels).ok());
  out.encoder_digest = advisor.EncoderDigest();
  out.best_err = std::bit_cast<uint64_t>(advisor.train_cursor().best_err);
  out.fit_model_digest = advisor.ModelDigest();
  out.fit_rcs_size = advisor.RcsSize();

  uint64_t rec_h = 14695981039346656037ULL;
  uint64_t def_h = rec_h;
  uint64_t dist_h = rec_h;
  for (size_t t = 20; t < graphs.size(); ++t) {
    for (double w : cfg.training_weights) {
      auto rec = advisor.Recommend(graphs[t], w);
      EXPECT_TRUE(rec.ok());
      if (rec.ok()) rec_h = FoldRecommendation(rec_h, *rec);
    }
    dist_h = Fold(dist_h,
                  std::bit_cast<uint64_t>(advisor.DistanceToRcs(graphs[t])));
  }
  for (double w : cfg.training_weights) {
    def_h = FoldRecommendation(def_h, advisor.CorpusDefault(w, "pin"));
  }
  out.recommend_fold = rec_h;
  out.default_fold = def_h;
  out.distance_fold = dist_h;

  EXPECT_TRUE(advisor
                  .AddLabeledSamples({graphs[18], graphs[19]},
                                     {labels[18], labels[19]})
                  .ok());
  out.added_model_digest = advisor.ModelDigest();
  return out;
}

TEST(TrainedBitsTest, FitRecommendAndOnlineUpdateArePinned) {
  std::vector<simd::Level> levels = {simd::Level::kScalar};
  if (simd::LevelAvailable(simd::Level::kAvx2)) {
    levels.push_back(simd::Level::kAvx2);
  }
  const simd::Level prev_level = simd::ActiveLevel();
  for (simd::Level level : levels) {
    ASSERT_TRUE(simd::SetActiveLevel(level));
    for (int threads : {1, 2, 8}) {
      util::SetGlobalParallelism(threads);
      SCOPED_TRACE(std::string(simd::LevelName(level)) + ", " +
                   std::to_string(threads) + " threads");
      Bits b = TrainAndProbe();
      EXPECT_EQ(b.encoder_digest, 0xee8e83a91186c043ULL);
      EXPECT_EQ(b.best_err, 0x3fde5518dee9c84fULL);
      EXPECT_EQ(b.fit_model_digest, 0x2f5db7de593d72bcULL);
      EXPECT_EQ(b.fit_rcs_size, 35u);
      EXPECT_EQ(b.added_model_digest, 0x08e41286f9a30acfULL);
      EXPECT_EQ(b.recommend_fold, 0xb4db19ac4cc5cd2bULL);
      EXPECT_EQ(b.default_fold, 0x7086e804f9fb9defULL);
      EXPECT_EQ(b.distance_fold, 0x5804ef79781d2b2bULL);
    }
  }
  util::SetGlobalParallelism(util::DefaultParallelism());
  ASSERT_TRUE(simd::SetActiveLevel(prev_level));
}

}  // namespace
}  // namespace autoce::advisor

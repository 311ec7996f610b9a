// Behavior contract of the observed-subplan drift seam (DESIGN.md
// §5.14): executor feedback that disagrees with served knowledge past
// the configured threshold offers the live dataset to the adaptation
// pipeline — closing the loop from serving-time drift evidence to
// retraining, without any new queue or thread.
#include "bench/support/drift_feedback.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "adapt/pipeline.h"
#include "data/generator.h"
#include "featgraph/featgraph.h"
#include "fss/estimator_service.h"
#include "obs/metrics.h"
#include "serve/server.h"
#include "util/rng.h"

namespace autoce::adapt {
namespace {

advisor::AutoCeConfig TinyConfig() {
  advisor::AutoCeConfig cfg;
  cfg.dml.epochs = 4;
  cfg.validation_interval = 2;
  cfg.incremental_epochs = 2;
  cfg.gin.hidden = 8;
  cfg.gin.embedding_dim = 4;
  cfg.knn_k = 2;
  return cfg;
}

std::vector<advisor::DatasetLabel> SyntheticLabels(size_t n) {
  std::vector<advisor::DatasetLabel> labels(n);
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

std::string TempStoreDir(const std::string& name) {
  std::string dir = std::string(::testing::TempDir()) + "/" + name + "_" +
                    std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(DriftFeedbackTest, DisagreementOffersDatasetToThePipeline) {
  // Fit a tiny advisor store so server + pipeline can open over it.
  Rng rng(4321);
  data::DatasetGenParams gen;
  gen.min_tables = 1;
  gen.max_tables = 2;
  gen.min_rows = 120;
  gen.max_rows = 250;
  gen.min_columns = 2;
  gen.max_columns = 3;
  auto corpus = data::GenerateCorpus(gen, 8, &rng);
  featgraph::FeatureExtractor fx;
  std::vector<featgraph::FeatureGraph> train;
  for (const auto& d : corpus) train.push_back(fx.Extract(d));

  const std::string dir = TempStoreDir("drift_feedback");
  {
    advisor::AutoCe advisor(TinyConfig());
    ASSERT_TRUE(advisor.EnableSnapshots(dir).ok());
    ASSERT_TRUE(advisor.Fit(train, SyntheticLabels(corpus.size())).ok());
  }
  auto server = serve::AdvisorServer::Open(dir);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  auto pipeline = AdaptationPipeline::Open(dir, server->get(), {});
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();

  // A live dataset the service serves — seeded away from the training
  // corpus so the pipeline's OOD gate sees real distance.
  Rng live_rng(999);
  data::DatasetGenParams live_gen = gen;
  live_gen.min_tables = live_gen.max_tables = 2;
  const data::Dataset live = data::GenerateDataset(live_gen, &live_rng);
  const featgraph::FeatureGraph live_graph = fx.Extract(live);

  fss::EstimatorServiceOptions opts;
  opts.drift_disagreement_threshold = 0.5;
  auto service = fss::EstimatorService::Open("", nullptr, &live, opts);
  ASSERT_TRUE(service.ok());

  // Instruments are zero-cost-off; recording must be switched on to
  // observe the seam's offer counter.
  obs::MetricsRegistry::Instance().Enable();
  obs::Counter* offers = obs::MetricsRegistry::Instance().GetCounter(
      "adapt.drift_feedback_offers");
  const int64_t offers_before = offers->value();

  BindDriftFeedback(service->get(), pipeline->get(), &live, &live_graph);

  query::Query q;
  q.tables = {0};
  q.predicates.push_back({0, 1, query::PredOp::kRange, 1, 40});
  (*service)->ObserveTrueCardinality(q, 10);    // first: no prior
  (*service)->ObserveTrueCardinality(q, 8000);  // wildly disagreeing truth

  EXPECT_EQ(offers->value(), offers_before + 1)
      << "disagreement past the threshold must offer to the pipeline";
  EXPECT_EQ((*service)->stats().drift_disagreements, 1u);

  // Unbinding detaches the seam: further disagreements count in service
  // stats but never reach the pipeline.
  UnbindDriftFeedback(service->get());
  (*service)->ObserveTrueCardinality(q, 1);
  EXPECT_EQ(offers->value(), offers_before + 1);
  obs::MetricsRegistry::Instance().Disable();
}

}  // namespace
}  // namespace autoce::adapt

// Contract tests for every registered fault site (DESIGN.md §5.6): with
// the site injected, the pipeline must produce its documented structured
// error or degraded-but-finite result — never a crash, hang, or NaN
// label — and injected runs must stay bit-identical across thread
// counts, exactly like clean ones.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "adapt/pipeline.h"
#include "advisor/autoce.h"
#include "advisor/label.h"
#include "data/csv.h"
#include "data/generator.h"
#include "engine/histogram.h"
#include "engine/optimizer.h"
#include "fss/estimator_service.h"
#include "query/query.h"
#include "serve/server.h"
#include "util/fault.h"
#include "util/parallel.h"
#include "util/snapshot.h"

namespace autoce {
namespace {

namespace sites = util::fault_sites;

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

std::vector<data::Dataset> TinyCorpus(int n, uint64_t seed = 4242) {
  Rng rng(seed);
  data::DatasetGenParams gen;
  gen.min_tables = 1;
  gen.max_tables = 2;
  gen.min_rows = 120;
  gen.max_rows = 250;
  gen.min_columns = 2;
  gen.max_columns = 3;
  return data::GenerateCorpus(gen, n, &rng);
}

ce::TestbedConfig TinyTestbed() {
  ce::TestbedConfig cfg;
  cfg.num_train_queries = 16;
  cfg.num_test_queries = 8;
  cfg.scale = ce::ModelTrainingScale::Fast();
  cfg.models = {ce::ModelId::kMscn, ce::ModelId::kLwNn, ce::ModelId::kLwXgb};
  return cfg;
}

/// Every score a degraded label may carry must stay inside the
/// normalized range; NaNs must never leak into a label.
void ExpectFiniteLabel(const advisor::DatasetLabel& label) {
  for (size_t m = 0; m < ce::kNumModels; ++m) {
    EXPECT_TRUE(std::isfinite(label.accuracy_score[m]));
    EXPECT_TRUE(std::isfinite(label.efficiency_score[m]));
    EXPECT_TRUE(std::isfinite(label.qerror_mean[m]));
    EXPECT_TRUE(std::isfinite(label.latency_ms[m]));
    EXPECT_GE(label.accuracy_score[m], advisor::kScoreFloor);
    EXPECT_LE(label.accuracy_score[m], 1.0);
    EXPECT_GE(label.efficiency_score[m], advisor::kScoreFloor);
    EXPECT_LE(label.efficiency_score[m], 1.0);
  }
}

/// Hand-built valid labels for advisor-level tests (cheap: no testbed).
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

advisor::AutoCeConfig TinyAdvisorConfig() {
  advisor::AutoCeConfig cfg;
  cfg.dml.epochs = 4;
  cfg.validation_interval = 2;
  cfg.incremental_epochs = 2;
  cfg.gin.hidden = 8;
  cfg.gin.embedding_dim = 4;
  cfg.knn_k = 2;
  return cfg;
}

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override { util::Faults().Disable(); }
  void TearDown() override { util::Faults().Disable(); }

  static util::FaultRegistry& Reg() { return util::Faults(); }
};

// --- per-site contract handlers -------------------------------------

void ExerciseCsvRow() {
  auto& reg = util::Faults();
  std::string path = std::string(::testing::TempDir()) + "/fault_rows.csv";
  {
    std::ofstream out(path);
    out << "a,b\n";
    for (int i = 0; i < 10; ++i) out << i << "," << i * 2 << "\n";
  }

  // Every row malformed: strict and skip modes both fail structurally.
  ASSERT_TRUE(reg.Configure(std::string(sites::kCsvRow) + ":1.0").ok());
  data::CsvReport report;
  auto strict = data::LoadCsvTable(path, {}, &report);
  EXPECT_FALSE(strict.ok());
  EXPECT_EQ(strict.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(report.errors_total, 10);
  EXPECT_GT(reg.FireCount(sites::kCsvRow), 0);

  data::CsvOptions skip;
  skip.skip_malformed_rows = true;
  auto skipped = data::LoadCsvTable(path, skip, &report);
  EXPECT_FALSE(skipped.ok());  // nothing valid left
  EXPECT_EQ(report.rows_skipped, 10);

  // Partial injection: skip mode loads the untouched remainder, and the
  // report is internally consistent and reproducible.
  ASSERT_TRUE(reg.Configure(std::string(sites::kCsvRow) + ":0.5", 11).ok());
  auto partial = data::LoadCsvTable(path, skip, &report);
  EXPECT_EQ(report.rows_loaded + report.rows_skipped, 10);
  EXPECT_EQ(report.errors_total, report.rows_skipped);
  if (partial.ok()) {
    EXPECT_EQ(partial->NumRows(), report.rows_loaded);
  }
  int64_t first_loaded = report.rows_loaded;
  ASSERT_TRUE(reg.Configure(std::string(sites::kCsvRow) + ":0.5", 11).ok());
  auto again = data::LoadCsvTable(path, skip, &report);
  EXPECT_EQ(report.rows_loaded, first_loaded);
  std::remove(path.c_str());
}

/// Shared testbed path for the three sites that fail a candidate cell.
void ExerciseTestbedSite(const char* site, double probability) {
  auto& reg = util::Faults();
  char spec[96];
  std::snprintf(spec, sizeof(spec), "%s:%.2f", site, probability);
  ASSERT_TRUE(reg.Configure(spec, /*seed=*/5).ok());

  auto datasets = TinyCorpus(1);
  auto result = ce::RunTestbed(datasets[0], TinyTestbed());
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  int failed = 0;
  for (const auto& perf : result->models) {
    if (perf.trained_ok) continue;
    ++failed;
    // Structured FailureInfo: site, cause, bounded attempts.
    EXPECT_FALSE(perf.failure.site.empty());
    EXPECT_FALSE(perf.failure.cause.empty());
    EXPECT_EQ(perf.failure.attempts, ce::kTestbedMaxAttempts);
  }
  if (probability >= 1.0 &&
      std::string(site) != std::string(sites::kNnLoss)) {
    // p = 1 sites fail every cell through both attempts.
    EXPECT_EQ(failed, static_cast<int>(result->models.size()));
  }
  EXPECT_GT(failed, 0);
  EXPECT_GT(reg.FireCount(site), 0);

  // Degraded cells still produce a finite sentinel-scored label.
  ExpectFiniteLabel(advisor::MakeLabel(*result));
}

/// Shared DML trainer path for the loss/grad sites.
void ExerciseDmlSite(const char* site) {
  auto& reg = util::Faults();
  auto datasets = TinyCorpus(6, 77);
  featgraph::FeatureExtractor extractor;
  std::vector<featgraph::FeatureGraph> graphs;
  for (const auto& ds : datasets) graphs.push_back(extractor.Extract(ds));
  std::vector<std::vector<double>> dml_labels;
  for (const auto& label : SyntheticLabels(graphs.size())) {
    dml_labels.push_back(label.ConcatScores({1.0, 0.5}));
  }

  gnn::GinConfig gin;
  gin.hidden = 8;
  gin.embedding_dim = 4;
  Rng init(3);
  gnn::GinEncoder encoder(extractor.vertex_dim(), gin, &init);
  gnn::DmlConfig dml;
  dml.epochs = 4;
  dml.batch_size = 3;
  gnn::DmlTrainer trainer(&encoder, dml);

  // All batches poisoned: Train fails structurally, weights untouched
  // by any poisoned step and still finite.
  ASSERT_TRUE(reg.Configure(std::string(site) + ":1.0").ok());
  Rng rng1(9);
  auto all_poisoned = trainer.Train(graphs, dml_labels, &rng1);
  EXPECT_FALSE(all_poisoned.ok());
  EXPECT_EQ(all_poisoned.status().code(), StatusCode::kInternal);
  EXPECT_GT(trainer.last_skipped_batches(), 0);
  EXPECT_GT(reg.FireCount(site), 0);
  for (const nn::Matrix* p : encoder.Params()) EXPECT_TRUE(nn::IsFinite(*p));

  // Partial poisoning: skipped batches equal fired decisions, training
  // either completes on the remainder or fails structurally.
  ASSERT_TRUE(reg.Configure(std::string(site) + ":0.5", 21).ok());
  Rng rng2(9);
  auto partial = trainer.Train(graphs, dml_labels, &rng2);
  EXPECT_EQ(trainer.last_skipped_batches(), reg.FireCount(site));
  if (partial.ok()) {
    EXPECT_TRUE(std::isfinite(*partial));
  }
  for (const nn::Matrix* p : encoder.Params()) EXPECT_TRUE(nn::IsFinite(*p));
}

void ExerciseFitSample() {
  auto& reg = util::Faults();
  auto datasets = TinyCorpus(12, 88);
  featgraph::FeatureExtractor extractor;
  std::vector<featgraph::FeatureGraph> graphs;
  for (const auto& ds : datasets) graphs.push_back(extractor.Extract(ds));
  auto labels = SyntheticLabels(graphs.size());

  ASSERT_TRUE(
      reg.Configure(std::string(sites::kFitSample) + ":0.3", 13).ok());
  advisor::AutoCe adv(TinyAdvisorConfig());
  Status st = adv.Fit(graphs, labels);
  EXPECT_GT(reg.FireCount(sites::kFitSample), 0);
  if (st.ok()) {
    // Skip-and-report: corrupt samples dropped, the rest trained.
    EXPECT_EQ(adv.fit_report().samples_total, graphs.size());
    EXPECT_GT(adv.fit_report().samples_skipped, 0u);
    EXPECT_FALSE(adv.fit_report().skipped_reasons.empty());
    EXPECT_GE(adv.RcsSize(), 4u);
    util::Faults().Disable();
    auto rec = adv.Recommend(graphs[0], 0.9);
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    for (double s : rec->score_vector) EXPECT_TRUE(std::isfinite(s));
  } else {
    // Too few valid samples left: the error is structured, not a crash.
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  }
}

void ExerciseRecommendEmbed() {
  auto& reg = util::Faults();
  auto datasets = TinyCorpus(8, 99);
  featgraph::FeatureExtractor extractor;
  std::vector<featgraph::FeatureGraph> graphs;
  for (const auto& ds : datasets) graphs.push_back(extractor.Extract(ds));
  auto labels = SyntheticLabels(graphs.size());

  advisor::AutoCe adv(TinyAdvisorConfig());
  ASSERT_TRUE(adv.Fit(graphs, labels).ok());

  ASSERT_TRUE(reg.Configure(std::string(sites::kRecommendEmbed)).ok());
  auto rec = adv.Recommend(graphs[0], 0.9);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_TRUE(rec->degraded);
  EXPECT_FALSE(rec->degraded_reason.empty());
  EXPECT_GT(reg.FireCount(sites::kRecommendEmbed), 0);
  for (double s : rec->score_vector) {
    EXPECT_TRUE(std::isfinite(s));
    EXPECT_GE(s, advisor::kScoreFloor - 1e-12);
    EXPECT_LE(s, 1.0 + 1e-12);
  }
  // The degraded fallback is deterministic.
  auto rec2 = adv.Recommend(graphs[0], 0.9);
  ASSERT_TRUE(rec2.ok());
  EXPECT_EQ(rec->model, rec2->model);

  // With injection off again, the same advisor serves normally.
  util::Faults().Disable();
  auto clean = adv.Recommend(graphs[0], 0.9);
  ASSERT_TRUE(clean.ok());
  EXPECT_FALSE(clean->degraded);
}

void ExerciseServeAdmission() {
  auto& reg = util::Faults();
  auto datasets = TinyCorpus(8, 123);
  featgraph::FeatureExtractor extractor;
  std::vector<featgraph::FeatureGraph> graphs;
  for (const auto& ds : datasets) graphs.push_back(extractor.Extract(ds));
  auto labels = SyntheticLabels(graphs.size());

  advisor::AutoCe adv(TinyAdvisorConfig());
  ASSERT_TRUE(adv.Fit(graphs, labels).ok());
  serve::AdvisorServer server(std::move(adv));

  std::vector<serve::RecommendRequest> requests;
  for (size_t i = 0; i < 4; ++i) {
    requests.push_back({/*id=*/i, graphs[i], /*w_a=*/0.9});
  }

  // Every request sheds: answered with the finite degraded corpus
  // default — no hang, no error, no NaN.
  ASSERT_TRUE(reg.Configure(std::string(sites::kServeAdmission)).ok());
  auto shed = server.Serve(requests);
  EXPECT_GT(reg.FireCount(sites::kServeAdmission), 0);
  ASSERT_EQ(shed.size(), requests.size());
  for (const auto& resp : shed) {
    EXPECT_TRUE(resp.status.ok());
    EXPECT_TRUE(resp.shed);
    EXPECT_TRUE(resp.recommendation.degraded);
    for (double s : resp.recommendation.score_vector) {
      EXPECT_TRUE(std::isfinite(s));
    }
  }
  // The shed decision is deterministic in the request content.
  auto shed2 = server.Serve(requests);
  for (size_t i = 0; i < shed.size(); ++i) {
    EXPECT_EQ(shed[i].shed, shed2[i].shed);
    EXPECT_EQ(shed[i].recommendation.model, shed2[i].recommendation.model);
  }

  // With injection off, the same server answers normally.
  util::Faults().Disable();
  auto clean = server.Serve(requests);
  for (const auto& resp : clean) {
    EXPECT_TRUE(resp.status.ok());
    EXPECT_FALSE(resp.shed);
    EXPECT_FALSE(resp.recommendation.degraded);
  }
}

void ExerciseServeReload() {
  auto& reg = util::Faults();
  auto datasets = TinyCorpus(8, 321);
  featgraph::FeatureExtractor extractor;
  std::vector<featgraph::FeatureGraph> graphs;
  for (const auto& ds : datasets) graphs.push_back(extractor.Extract(ds));
  auto labels = SyntheticLabels(graphs.size());

  std::string dir =
      std::string(::testing::TempDir()) + "/fault_serve_reload";
  // Fresh store per run: drop whatever a prior run left behind.
  std::filesystem::remove_all(dir);
  advisor::AutoCe adv(TinyAdvisorConfig());
  ASSERT_TRUE(adv.EnableSnapshots(dir).ok());
  ASSERT_TRUE(adv.Fit(graphs, labels).ok());

  auto server = serve::AdvisorServer::Open(dir);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  uint64_t generation = (*server)->generation();
  auto before =
      (*server)->ServeOne({/*id=*/1, graphs[0], /*w_a=*/0.9});
  ASSERT_TRUE(before.status.ok());

  // An injected reload failure must leave the previous generation
  // serving, bit-identically.
  ASSERT_TRUE(reg.Configure(std::string(sites::kServeReload)).ok());
  Status st = (*server)->Reload();
  EXPECT_FALSE(st.ok());
  EXPECT_GT(reg.FireCount(sites::kServeReload), 0);
  EXPECT_EQ((*server)->generation(), generation);
  auto after = (*server)->ServeOne({/*id=*/1, graphs[0], /*w_a=*/0.9});
  ASSERT_TRUE(after.status.ok());
  EXPECT_EQ(before.recommendation.model, after.recommendation.model);
  ASSERT_EQ(before.recommendation.score_vector.size(),
            after.recommendation.score_vector.size());
  for (size_t i = 0; i < before.recommendation.score_vector.size(); ++i) {
    EXPECT_TRUE(SameBits(before.recommendation.score_vector[i],
                         after.recommendation.score_vector[i]));
  }

  // With injection off, the reload goes through.
  util::Faults().Disable();
  EXPECT_TRUE((*server)->Reload().ok());
  EXPECT_GE((*server)->stats().reloads, 1u);
}

void ExerciseAdaptEnqueue() {
  auto& reg = util::Faults();
  auto datasets = TinyCorpus(1, 555);
  featgraph::FeatureExtractor fx;
  adapt::FeedbackQueue queue(4);

  // An injected enqueue fault drops the candidate (counted, never
  // thrown back at the serve path)...
  ASSERT_TRUE(reg.Configure(std::string(sites::kAdaptEnqueue)).ok());
  EXPECT_EQ(queue.Offer(datasets[0], fx.Extract(datasets[0]), 1.0),
            adapt::Offered::kRejectedFault);
  EXPECT_GT(reg.FireCount(sites::kAdaptEnqueue), 0);
  EXPECT_EQ(queue.depth(), 0u);
  EXPECT_EQ(queue.stats().rejected_fault, 1u);

  // ...and with injection off the same candidate admits.
  reg.Disable();
  EXPECT_EQ(queue.Offer(datasets[0], fx.Extract(datasets[0]), 1.0),
            adapt::Offered::kAdmitted);
}

/// Shared contract of the pipeline-stage sites: the injected stage
/// degrades exactly as documented (label exhaustion -> sentinel, train
/// exhaustion -> quarantine, commit verification -> rollback +
/// quarantine), DrainAll never errors or wedges, and the loop applies
/// fresh items again once injection is off.
void ExerciseAdaptPipelineSite(const std::string& site) {
  auto& reg = util::Faults();
  auto datasets = TinyCorpus(10, 556);
  featgraph::FeatureExtractor fx;
  std::vector<featgraph::FeatureGraph> graphs;
  std::vector<advisor::DatasetLabel> labels = SyntheticLabels(8);
  for (int i = 0; i < 8; ++i) graphs.push_back(fx.Extract(datasets[i]));

  std::string dir = std::string(::testing::TempDir()) + "/fault_" + site;
  std::filesystem::remove_all(dir);
  advisor::AutoCe adv(TinyAdvisorConfig());
  ASSERT_TRUE(adv.EnableSnapshots(dir).ok());
  ASSERT_TRUE(adv.Fit(graphs, labels).ok());

  auto pipeline = adapt::AdaptationPipeline::Open(dir, /*server=*/nullptr);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
  (*pipeline)->set_labeler(
      [](const data::Dataset&, uint64_t seed) -> Result<advisor::DatasetLabel> {
        Rng rng(seed);
        advisor::DatasetLabel label;
        for (size_t m = 0; m < ce::kNumModels; ++m) {
          label.accuracy_score[m] = 0.1 + 0.8 * rng.Uniform();
          label.efficiency_score[m] = 0.1 + 0.8 * rng.Uniform();
          label.qerror_mean[m] = 1.0 + static_cast<double>(m);
          label.latency_ms[m] = 1.0 + rng.Uniform();
        }
        return label;
      });
  (*pipeline)->set_sleep_fn([](double) {});
  uint64_t digest_before = (*pipeline)->TrainerDigest();

  (*pipeline)->queue().Offer(datasets[8], fx.Extract(datasets[8]), 1.0);
  ASSERT_TRUE(reg.Configure(site).ok());
  ASSERT_TRUE((*pipeline)->DrainAll().ok());  // degrades, never errors
  EXPECT_GT(reg.FireCount(site.c_str()), 0);
  adapt::AdaptationStats stats = (*pipeline)->stats();
  if (site == sites::kAdaptLabel) {
    // Label exhaustion degrades to the sentinel label, still applied.
    EXPECT_EQ(stats.labels_sentinel, 1u);
    EXPECT_EQ(stats.items_applied, 1u);
  } else if (site == sites::kAdaptTrain) {
    EXPECT_EQ(stats.items_quarantined, 1u);
    EXPECT_EQ(stats.items_applied, 0u);
    EXPECT_EQ((*pipeline)->TrainerDigest(), digest_before);
  } else {
    ASSERT_EQ(site, sites::kAdaptCommit);
    // The injected fault fails post-commit *verification*: the unit is
    // quarantined and the trainer rolls back to the durable store
    // (which may already contain the commit), so the contract is
    // trainer == a fresh open of the store, not == the pre-batch model.
    EXPECT_EQ(stats.commit_failures, 1u);
    EXPECT_EQ(stats.items_quarantined, 1u);
    reg.Disable();
    auto reopened = adapt::AdaptationPipeline::Open(dir, /*server=*/nullptr);
    ASSERT_TRUE(reopened.ok());
    EXPECT_EQ((*pipeline)->TrainerDigest(), (*reopened)->TrainerDigest());
  }

  // With injection off a fresh item goes through the whole loop.
  reg.Disable();
  (*pipeline)->queue().Offer(datasets[9], fx.Extract(datasets[9]), 1.0);
  ASSERT_TRUE((*pipeline)->DrainAll().ok());
  EXPECT_EQ((*pipeline)->stats().items_applied, stats.items_applied + 1);
}

/// Shared contract of the simulated-ENOSPC persistence sites: the
/// commit fails with the errno string in the message, nothing torn is
/// left behind, the previous generation keeps loading, and commits
/// succeed again once injection is off. (The detailed per-site
/// behavior — torn-tmp removal, orphan rollback, disk budgets — lives
/// in snapshot_test.cc's SnapshotDiskFailureTest.)
void ExerciseSnapshotSite(const std::string& site) {
  auto& reg = util::Faults();
  std::string dir = std::string(::testing::TempDir()) + "/fault_" + site;
  std::filesystem::remove_all(dir);
  auto store = util::SnapshotStore::Open(dir);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  std::vector<util::SnapshotSection> sections = {{"alpha", "payload-good"}};
  ASSERT_TRUE(store->Commit(sections).ok());

  ASSERT_TRUE(reg.Configure(site + ":1").ok());
  sections[0].payload = "payload-doomed";
  auto failed = store->Commit(sections);
  ASSERT_FALSE(failed.ok());
  EXPECT_GT(reg.FireCount(site.c_str()), 0);
  EXPECT_NE(failed.status().message().find("No space left on device"),
            std::string::npos)
      << "errno string missing: " << failed.status().message();

  uint64_t loaded_gen = 0;
  auto reloaded = store->LoadLatest(&loaded_gen);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ((*reloaded)[0].payload, "payload-good");

  reg.Disable();
  sections[0].payload = "payload-after";
  EXPECT_TRUE(store->Commit(sections).ok());
}

data::Dataset FssFaultDataset(uint64_t seed) {
  Rng rng(seed);
  data::DatasetGenParams p;
  p.min_tables = p.max_tables = 3;
  p.min_rows = p.max_rows = 120;
  p.min_columns = p.max_columns = 2;
  return data::GenerateDataset(p, &rng);
}

/// fss.lookup contract: the estimator service degrades to the
/// histogram baseline (counted as a fallback, never cached) and the
/// optimizer keeps planning; the model answers again once injection
/// is off.
void ExerciseFssLookup() {
  auto& reg = util::Faults();
  data::Dataset ds = FssFaultDataset(171);
  auto service = fss::EstimatorService::Open("", nullptr, &ds);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  engine::PostgresStyleEstimator histogram(&ds);

  Rng rng(172);
  query::WorkloadParams wp;
  wp.num_queries = 3;
  wp.max_tables = 3;
  auto queries = query::GenerateWorkload(ds, wp, &rng);

  ASSERT_TRUE(reg.Configure(std::string(sites::kFssLookup) + ":1").ok());
  for (const query::Query& q : queries) {
    double est = (*service)->EstimateSubplan(q);
    EXPECT_TRUE(std::isfinite(est));
    EXPECT_DOUBLE_EQ(est, histogram.EstimateCardinality(q));
    // The optimizer built on top of the degraded source still plans.
    auto plan = engine::JoinOrderOptimizer(&ds).Optimize(q, service->get());
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  }
  EXPECT_GT(reg.FireCount(sites::kFssLookup), 0);
  EXPECT_EQ((*service)->stats().fallbacks, (*service)->stats().lookups);
  EXPECT_EQ((*service)->stats().cache_hits, 0u);
  reg.Disable();
}

/// fss.commit contract: CommitKnowledge surfaces a Status, the
/// failure is counted, in-memory knowledge is untouched, and the
/// previous durable generation keeps loading; commits succeed again
/// once injection is off.
void ExerciseFssCommit() {
  auto& reg = util::Faults();
  data::Dataset ds = FssFaultDataset(173);
  std::string dir = std::string(::testing::TempDir()) + "/fault_fss_commit";
  std::filesystem::remove_all(dir);
  auto service = fss::EstimatorService::Open(dir, nullptr, &ds);
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  Rng rng(174);
  query::WorkloadParams wp;
  wp.num_queries = 2;
  wp.max_tables = 3;
  auto queries = query::GenerateWorkload(ds, wp, &rng);
  (*service)->ObserveTrueCardinality(queries[0], 50);
  ASSERT_TRUE((*service)->CommitKnowledge().ok());

  (*service)->ObserveTrueCardinality(queries[1], 60);
  ASSERT_TRUE(reg.Configure(std::string(sites::kFssCommit) + ":1").ok());
  Status failed = (*service)->CommitKnowledge();
  EXPECT_FALSE(failed.ok());
  EXPECT_GT(reg.FireCount(sites::kFssCommit), 0);
  EXPECT_EQ((*service)->stats().commit_failures, 1u);
  EXPECT_EQ((*service)->knowledge_size(), 2u);  // in-memory kept
  {
    auto reopened = fss::EstimatorService::Open(dir, nullptr, &ds);
    ASSERT_TRUE(reopened.ok());
    EXPECT_EQ((*reopened)->knowledge_size(), 1u);  // first commit only
  }

  reg.Disable();
  EXPECT_TRUE((*service)->CommitKnowledge().ok());
  auto recovered = fss::EstimatorService::Open(dir, nullptr, &ds);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ((*recovered)->knowledge_size(), 2u);
}

/// Dispatches a site name to its contract handler; fails for any
/// registered site without one, so new sites cannot ship untested.
void ExerciseSite(const std::string& site) {
  if (site == sites::kCsvRow) {
    ExerciseCsvRow();
  } else if (site == sites::kTestbedTrain) {
    ExerciseTestbedSite(sites::kTestbedTrain, 1.0);
  } else if (site == sites::kTestbedEstimate) {
    ExerciseTestbedSite(sites::kTestbedEstimate, 1.0);
  } else if (site == sites::kNnLoss) {
    // Poisoned MseLoss surfaces via LW-NN's divergence guard, which
    // fails the testbed cell.
    ExerciseTestbedSite(sites::kNnLoss, 1.0);
  } else if (site == sites::kDmlLoss) {
    ExerciseDmlSite(sites::kDmlLoss);
  } else if (site == sites::kDmlGrad) {
    ExerciseDmlSite(sites::kDmlGrad);
  } else if (site == sites::kFitSample) {
    ExerciseFitSample();
  } else if (site == sites::kRecommendEmbed) {
    ExerciseRecommendEmbed();
  } else if (site == sites::kServeAdmission) {
    ExerciseServeAdmission();
  } else if (site == sites::kServeReload) {
    ExerciseServeReload();
  } else if (site == sites::kAdaptEnqueue) {
    ExerciseAdaptEnqueue();
  } else if (site == sites::kAdaptLabel || site == sites::kAdaptTrain ||
             site == sites::kAdaptCommit) {
    ExerciseAdaptPipelineSite(site);
  } else if (site == sites::kSnapshotWrite || site == sites::kSnapshotManifest) {
    ExerciseSnapshotSite(site);
  } else if (site == sites::kFssLookup) {
    ExerciseFssLookup();
  } else if (site == sites::kFssCommit) {
    ExerciseFssCommit();
  } else {
    FAIL() << "registered fault site has no contract test: " << site;
  }
}

TEST_F(FaultInjectionTest, EveryRegisteredSiteHonorsItsContract) {
  for (const char* site : util::AllFaultSites()) {
    SCOPED_TRACE(site);
    util::Faults().Disable();
    ExerciseSite(site);
  }
}

// --- cross-thread determinism with injection enabled ----------------

struct InjectedPipelineResult {
  advisor::LabeledCorpus corpus;
  std::vector<std::vector<double>> embeddings;
  std::vector<ce::ModelId> recommendations;
  std::vector<char> degraded;
};

InjectedPipelineResult RunInjectedPipeline(int threads) {
  util::SetGlobalParallelism(threads);
  // Same spec + seed every run: the fault decisions are pure functions
  // of (seed, site, key), so the *injected* pipeline must be as
  // reproducible as the clean one.
  auto& reg = util::Faults();
  EXPECT_TRUE(reg.Configure("*:0.3", /*seed=*/31).ok());

  InjectedPipelineResult out;
  ce::TestbedConfig testbed = TinyTestbed();
  featgraph::FeatureExtractor extractor;
  out.corpus = advisor::LabelCorpus(TinyCorpus(6), testbed, extractor);

  advisor::AutoCe adv(TinyAdvisorConfig());
  Status st = adv.Fit(out.corpus.graphs, out.corpus.labels);
  if (st.ok()) {
    for (const auto& g : out.corpus.graphs) {
      out.embeddings.push_back(adv.Embed(g));
      auto rec = adv.Recommend(g, 0.9);
      EXPECT_TRUE(rec.ok()) << rec.status().ToString();
      out.recommendations.push_back(rec.ok() ? rec->model
                                             : ce::ModelId::kMscn);
      out.degraded.push_back(rec.ok() && rec->degraded ? 1 : 0);
    }
  }
  util::Faults().Disable();
  return out;
}

class InjectedDeterminismTest : public ::testing::TestWithParam<int> {
 protected:
  void TearDown() override {
    util::Faults().Disable();
    util::SetGlobalParallelism(util::DefaultParallelism());
  }
};

TEST_P(InjectedDeterminismTest, InjectedRunMatchesSingleThreadBitForBit) {
  InjectedPipelineResult base = RunInjectedPipeline(1);
  InjectedPipelineResult got = RunInjectedPipeline(GetParam());

  ASSERT_EQ(base.corpus.size(), got.corpus.size());
  for (size_t i = 0; i < base.corpus.size(); ++i) {
    ExpectFiniteLabel(base.corpus.labels[i]);
    EXPECT_EQ(base.corpus.labels[i].failed, got.corpus.labels[i].failed);
    for (size_t m = 0; m < ce::kNumModels; ++m) {
      EXPECT_TRUE(SameBits(base.corpus.labels[i].accuracy_score[m],
                           got.corpus.labels[i].accuracy_score[m]))
          << "accuracy " << i << "/" << m;
      EXPECT_TRUE(SameBits(base.corpus.labels[i].efficiency_score[m],
                           got.corpus.labels[i].efficiency_score[m]))
          << "efficiency " << i << "/" << m;
    }
  }
  ASSERT_EQ(base.embeddings.size(), got.embeddings.size());
  for (size_t i = 0; i < base.embeddings.size(); ++i) {
    ASSERT_EQ(base.embeddings[i].size(), got.embeddings[i].size());
    for (size_t c = 0; c < base.embeddings[i].size(); ++c) {
      EXPECT_TRUE(SameBits(base.embeddings[i][c], got.embeddings[i][c]))
          << "embedding " << i << "[" << c << "]";
    }
  }
  EXPECT_EQ(base.recommendations, got.recommendations);
  EXPECT_EQ(base.degraded, got.degraded);
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, InjectedDeterminismTest,
                         ::testing::Values(2, 8));

}  // namespace
}  // namespace autoce

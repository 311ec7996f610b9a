// Behavior contract of the adaptation pipeline (DESIGN.md §5.11):
// drained OOD items are labeled, Mixup-augmented, trained, committed
// as snapshot generations, and picked up by the server via hot reload;
// a restarted pipeline fed the same stream converges to the same model
// digest; label faults degrade to sentinel scoring, train faults
// quarantine, commit faults roll back — and none of them wedge the
// loop.
#include "adapt/pipeline.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "data/generator.h"
#include "obs/metrics.h"
#include "util/fault.h"
#include "util/snapshot.h"

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

/// A fast labeler that is a pure function of the content-derived seed —
/// the same property the testbed labeler has, minus the minutes of
/// model training.
Labeler SyntheticLabeler() {
  return [](const data::Dataset&,
            uint64_t seed) -> Result<advisor::DatasetLabel> {
    Rng rng(seed);
    advisor::DatasetLabel label;
    for (size_t m = 0; m < ce::kNumModels; ++m) {
      label.accuracy_score[m] = 0.1 + 0.8 * rng.Uniform();
      label.efficiency_score[m] = 0.1 + 0.8 * rng.Uniform();
      label.qerror_mean[m] = 1.0 + static_cast<double>(m);
      label.latency_ms[m] = 1.0 + rng.Uniform();
    }
    return label;
  };
}

std::string TempStoreDir(const std::string& name) {
  std::string dir = std::string(::testing::TempDir()) + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

/// One fitted snapshot store shared by the suite; each test clones it
/// so stores never interfere (and ctest runs cases in parallel).
class PipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(777);
    data::DatasetGenParams gen;
    gen.min_tables = 1;
    gen.max_tables = 2;
    gen.min_rows = 120;
    gen.max_rows = 250;
    gen.min_columns = 2;
    gen.max_columns = 3;
    auto corpus = data::GenerateCorpus(gen, 12, &rng);

    featgraph::FeatureExtractor fx;
    auto labels = SyntheticLabels(9);
    std::vector<featgraph::FeatureGraph> train;
    for (size_t i = 0; i < 9; ++i) train.push_back(fx.Extract(corpus[i]));

    // Feed stream: the three held-out corpus members plus four datasets
    // from a differently-seeded generator.
    feed_datasets_ = new std::vector<data::Dataset>(corpus.begin() + 9,
                                                    corpus.end());
    Rng feed_rng(888);
    for (auto& d : data::GenerateCorpus(gen, 4, &feed_rng)) {
      feed_datasets_->push_back(std::move(d));
    }
    feed_graphs_ = new std::vector<featgraph::FeatureGraph>();
    for (const auto& d : *feed_datasets_) {
      feed_graphs_->push_back(fx.Extract(d));
    }

    template_dir_ = new std::string(
        TempStoreDir("adapt_template_" + std::to_string(::getpid())));
    advisor::AutoCe advisor(TinyConfig());
    ASSERT_TRUE(advisor.EnableSnapshots(*template_dir_).ok());
    ASSERT_TRUE(advisor.Fit(train, labels).ok());
  }

  static void TearDownTestSuite() {
    if (template_dir_ != nullptr) std::filesystem::remove_all(*template_dir_);
    delete feed_datasets_;
    delete feed_graphs_;
    delete template_dir_;
    feed_datasets_ = nullptr;
    feed_graphs_ = nullptr;
    template_dir_ = nullptr;
  }

  void TearDown() override {
    for (const std::string& dir : clones_) std::filesystem::remove_all(dir);
  }

  /// Clones the fitted template store into a fresh directory, which
  /// TearDown removes.
  std::string CloneTemplate(const std::string& name) {
    std::string dst =
        TempStoreDir(name + "_" + std::to_string(::getpid()));
    std::filesystem::copy(*template_dir_, dst,
                          std::filesystem::copy_options::recursive);
    clones_.push_back(dst);
    return dst;
  }

  struct Rig {
    std::unique_ptr<serve::AdvisorServer> server;
    std::unique_ptr<AdaptationPipeline> pipeline;
  };

  static Rig OpenRig(const std::string& dir, AdaptationConfig config = {}) {
    Rig rig;
    auto server = serve::AdvisorServer::Open(dir);
    EXPECT_TRUE(server.ok()) << server.status().ToString();
    rig.server = std::move(*server);
    auto pipeline =
        AdaptationPipeline::Open(dir, rig.server.get(), std::move(config));
    EXPECT_TRUE(pipeline.ok()) << pipeline.status().ToString();
    rig.pipeline = std::move(*pipeline);
    rig.pipeline->set_labeler(SyntheticLabeler());
    rig.pipeline->set_sleep_fn([](double) {});
    return rig;
  }

  /// Offers feed item `i` straight to the queue (bypassing drift
  /// detection, which has its own test) with a distinct distance.
  static Offered OfferFeed(AdaptationPipeline* pipeline, size_t i) {
    return pipeline->queue().Offer((*feed_datasets_)[i], (*feed_graphs_)[i],
                                   1.0 + static_cast<double>(i));
  }

  static std::vector<data::Dataset>* feed_datasets_;
  static std::vector<featgraph::FeatureGraph>* feed_graphs_;
  static std::string* template_dir_;
  std::vector<std::string> clones_;
};

std::vector<data::Dataset>* PipelineTest::feed_datasets_ = nullptr;
std::vector<featgraph::FeatureGraph>* PipelineTest::feed_graphs_ = nullptr;
std::string* PipelineTest::template_dir_ = nullptr;

TEST_F(PipelineTest, OpenRejectsZeroBatch) {
  // A zero batch drains nothing per RunOnce, so DrainAll would spin
  // forever; Open refuses it instead.
  std::string dir = CloneTemplate("adapt_zero_batch");
  AdaptationConfig config;
  config.batch_size = 0;
  auto pipeline = AdaptationPipeline::Open(dir, nullptr, config);
  ASSERT_FALSE(pipeline.ok());
  EXPECT_EQ(pipeline.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(PipelineTest, AppliesUnitsCommitsGenerationsAndReloadsServer) {
  std::string dir = CloneTemplate("adapt_apply");
  AdaptationConfig config;
  config.batch_size = 8;
  Rig rig = OpenRig(dir, config);
  uint64_t gen_before = rig.server->generation();
  size_t rcs_before = rig.pipeline->TrainerRcsSize();

  EXPECT_EQ(OfferFeed(rig.pipeline.get(), 0), Offered::kAdmitted);
  EXPECT_EQ(OfferFeed(rig.pipeline.get(), 1), Offered::kAdmitted);
  auto report = rig.pipeline->RunOnce();
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  EXPECT_EQ(report->drained, 2u);
  EXPECT_EQ(report->applied, 2u);
  EXPECT_TRUE(report->reload_attempted);
  EXPECT_TRUE(report->reload_ok);
  EXPECT_GT(report->generation, gen_before);

  AdaptationStats stats = rig.pipeline->stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.items_applied, 2u);
  EXPECT_EQ(stats.labels_ok, 2u);
  EXPECT_EQ(stats.generations_committed, 2u);
  EXPECT_EQ(stats.reloads_triggered, 1u);
  EXPECT_EQ(stats.reload_failures, 0u);

  // Each trustworthy unit is the item plus its Mixup interpolation.
  EXPECT_EQ(rig.pipeline->TrainerRcsSize(), rcs_before + 4);

  // The server reloaded to the committed generation: same bits as the
  // trainer, and it keeps answering.
  EXPECT_GT(rig.server->generation(), gen_before);
  EXPECT_EQ(rig.server->advisor()->ModelDigest(),
            rig.pipeline->TrainerDigest());
  EXPECT_EQ(rig.server->advisor()->RcsSize(), rcs_before + 4);
}

TEST_F(PipelineTest, RestartedPipelineConvergesToSameDigest) {
  // Uninterrupted baseline: all five items in one pipeline lifetime.
  std::string dir_a = CloneTemplate("adapt_baseline");
  {
    Rig rig = OpenRig(dir_a);
    for (size_t i = 0; i < 5; ++i) OfferFeed(rig.pipeline.get(), i);
    ASSERT_TRUE(rig.pipeline->DrainAll().ok());
  }
  auto baseline = AdaptationPipeline::Open(dir_a, nullptr);
  ASSERT_TRUE(baseline.ok());
  uint64_t digest_a = (*baseline)->TrainerDigest();

  // Restarted run: two items, pipeline torn down (the in-memory queue
  // dies with it), a new pipeline replays the whole stream.
  std::string dir_b = CloneTemplate("adapt_restart");
  {
    Rig rig = OpenRig(dir_b);
    OfferFeed(rig.pipeline.get(), 0);
    OfferFeed(rig.pipeline.get(), 1);
    ASSERT_TRUE(rig.pipeline->DrainAll().ok());
  }
  {
    Rig rig = OpenRig(dir_b);
    for (size_t i = 0; i < 5; ++i) OfferFeed(rig.pipeline.get(), i);
    ASSERT_TRUE(rig.pipeline->DrainAll().ok());
    // The two already-committed items were consumed by replay dedup.
    EXPECT_EQ(rig.pipeline->stats().items_deduped, 2u);
    EXPECT_EQ(rig.pipeline->stats().items_applied, 3u);
    EXPECT_EQ(rig.pipeline->TrainerDigest(), digest_a);
  }
}

TEST_F(PipelineTest, MaybeEnqueueChecksServingDriftThreshold) {
  std::string dir = CloneTemplate("adapt_ood");
  Rig rig = OpenRig(dir);
  auto advisor = rig.server->advisor();

  // An RCS member is at distance 0: never OOD.
  EXPECT_EQ(rig.pipeline->MaybeEnqueue(
                (*feed_datasets_)[0], advisor->rcs_graphs()[0]),
            Offered::kNotOod);

  // Every feed graph agrees with the serving advisor's own verdict, and
  // a re-offer of an enqueued graph dedups.
  for (size_t i = 0; i < feed_graphs_->size(); ++i) {
    bool ood = advisor->IsOutOfDistribution((*feed_graphs_)[i]);
    Offered offered =
        rig.pipeline->MaybeEnqueue((*feed_datasets_)[i], (*feed_graphs_)[i]);
    if (ood) {
      EXPECT_EQ(offered, Offered::kAdmitted) << i;
      EXPECT_EQ(rig.pipeline->MaybeEnqueue((*feed_datasets_)[i],
                                           (*feed_graphs_)[i]),
                Offered::kDuplicate)
          << i;
    } else {
      EXPECT_EQ(offered, Offered::kNotOod) << i;
    }
  }
  EXPECT_EQ(rig.pipeline->queue().depth(), rig.pipeline->queue().stats().admitted);
}

TEST_F(PipelineTest, LabelFaultExhaustionDegradesToSentinel) {
  std::string dir = CloneTemplate("adapt_label_fault");
  std::vector<double> sleeps;
  Rig rig = OpenRig(dir);
  rig.pipeline->set_sleep_fn([&](double ms) { sleeps.push_back(ms); });
  size_t rcs_before = rig.pipeline->TrainerRcsSize();

  auto& injection = util::Faults();
  ASSERT_TRUE(injection
                  .Configure(std::string(util::fault_sites::kAdaptLabel) +
                             ":1.0")
                  .ok());
  OfferFeed(rig.pipeline.get(), 0);
  auto report = rig.pipeline->RunOnce();
  injection.Disable();
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // Every attempt faulted -> sentinel label, but the item is still
  // applied (the RCS learns the dataset exists even when labeling is
  // down) WITHOUT a Mixup partner: a degraded label is never smeared.
  EXPECT_EQ(report->sentinel, 1u);
  EXPECT_EQ(report->applied, 1u);
  AdaptationStats stats = rig.pipeline->stats();
  EXPECT_EQ(stats.labels_sentinel, 1u);
  EXPECT_EQ(stats.labels_ok, 0u);
  EXPECT_EQ(stats.label_retries, 2u);  // 3 attempts = 2 retries
  EXPECT_EQ(rig.pipeline->TrainerRcsSize(), rcs_before + 1);

  // The sentinel label is the all-failed floor, visible after reload.
  const advisor::DatasetLabel& last = rig.server->advisor()->rcs_labels().back();
  for (size_t m = 0; m < ce::kNumModels; ++m) {
    EXPECT_TRUE(last.failed[m]);
  }

  // Backoff ran between attempts, bounded by the jittered exponential
  // 10 ms * 2^(attempt-1) * (1 + 0.5 U[0,1)).
  ASSERT_EQ(sleeps.size(), 2u);
  EXPECT_GE(sleeps[0], 10.0);
  EXPECT_LE(sleeps[0], 15.0);
  EXPECT_GE(sleeps[1], 20.0);
  EXPECT_LE(sleeps[1], 30.0);
  EXPECT_GT(stats.backoff_ms_total, 0.0);
}

TEST_F(PipelineTest, BackoffScheduleIsDeterministic) {
  auto run = [&](const std::string& name) {
    std::string dir = CloneTemplate(name);
    std::vector<double> sleeps;
    Rig rig = OpenRig(dir);
    rig.pipeline->set_sleep_fn([&](double ms) { sleeps.push_back(ms); });
    auto& injection = util::Faults();
    EXPECT_TRUE(injection
                    .Configure(std::string(util::fault_sites::kAdaptLabel) +
                               ":1.0")
                    .ok());
    OfferFeed(rig.pipeline.get(), 0);
    OfferFeed(rig.pipeline.get(), 1);
    EXPECT_TRUE(rig.pipeline->DrainAll().ok());
    injection.Disable();
    return sleeps;
  };
  EXPECT_EQ(run("adapt_backoff_a"), run("adapt_backoff_b"));
}

TEST_F(PipelineTest, TrainFaultExhaustionQuarantines) {
  std::string dir = CloneTemplate("adapt_train_fault");
  Rig rig = OpenRig(dir);
  uint64_t digest_before = rig.pipeline->TrainerDigest();
  uint64_t gen_before = rig.server->generation();

  auto& injection = util::Faults();
  ASSERT_TRUE(injection
                  .Configure(std::string(util::fault_sites::kAdaptTrain) +
                             ":1.0")
                  .ok());
  OfferFeed(rig.pipeline.get(), 0);
  auto report = rig.pipeline->RunOnce();
  injection.Disable();
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // Both attempts faulted before touching the trainer: the unit is
  // quarantined and nothing moved.
  EXPECT_EQ(report->quarantined, 1u);
  EXPECT_EQ(report->applied, 0u);
  AdaptationStats stats = rig.pipeline->stats();
  EXPECT_EQ(stats.items_quarantined, 1u);
  EXPECT_EQ(stats.train_retries, 1u);  // 2 attempts = 1 retry
  EXPECT_EQ(rig.pipeline->TrainerDigest(), digest_before);
  EXPECT_EQ(rig.server->generation(), gen_before);
  auto records = ReadQuarantineLog(dir);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].fingerprint,
            featgraph::GraphFingerprint((*feed_graphs_)[0]));

  // A replay of the poisoned item is consumed by quarantine dedup, and
  // the loop keeps working for healthy items.
  OfferFeed(rig.pipeline.get(), 0);
  OfferFeed(rig.pipeline.get(), 1);
  ASSERT_TRUE(rig.pipeline->DrainAll().ok());
  stats = rig.pipeline->stats();
  EXPECT_EQ(stats.items_deduped, 1u);
  EXPECT_EQ(stats.items_applied, 1u);
}

TEST_F(PipelineTest, CommitVerificationFailureRollsBack) {
  std::string dir = CloneTemplate("adapt_commit_fault");
  Rig rig = OpenRig(dir);

  auto& injection = util::Faults();
  ASSERT_TRUE(injection
                  .Configure(std::string(util::fault_sites::kAdaptCommit) +
                             ":1.0")
                  .ok());
  OfferFeed(rig.pipeline.get(), 0);
  auto report = rig.pipeline->RunOnce();
  injection.Disable();
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // The unit is quarantined, the rollback is counted, and the trainer
  // matches the durable store again (ReloadTrainer).
  EXPECT_EQ(report->applied, 0u);
  EXPECT_EQ(report->quarantined, 1u);
  AdaptationStats stats = rig.pipeline->stats();
  EXPECT_EQ(stats.commit_failures, 1u);
  EXPECT_EQ(stats.items_quarantined, 1u);
  auto reopened = AdaptationPipeline::Open(dir, nullptr);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(rig.pipeline->TrainerDigest(), (*reopened)->TrainerDigest());

  // The loop is not wedged: the next healthy item goes through.
  OfferFeed(rig.pipeline.get(), 1);
  ASSERT_TRUE(rig.pipeline->DrainAll().ok());
  EXPECT_EQ(rig.pipeline->stats().items_applied, 1u);
}

TEST_F(PipelineTest, BackgroundWorkerAdaptsWhileServing) {
  std::string dir = CloneTemplate("adapt_worker");
  Rig rig = OpenRig(dir);
  for (size_t i = 0; i < 3; ++i) OfferFeed(rig.pipeline.get(), i);

  // The pipeline owns no thread: adaptation runs off the serve path
  // when a caller drains it on a thread of its own.
  std::thread worker([&] { EXPECT_TRUE(rig.pipeline->DrainAll().ok()); });

  // The serve path stays live while the worker labels and trains; the
  // requests also exercise the reload swap under concurrent traffic.
  serve::RecommendRequest request;
  request.graph = (*feed_graphs_)[3];
  request.w_a = 0.9;
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (rig.pipeline->stats().items_applied < 3 &&
         std::chrono::steady_clock::now() < deadline) {
    serve::RecommendResponse response = rig.server->ServeOne(request);
    EXPECT_TRUE(response.status.ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  worker.join();
  EXPECT_EQ(rig.pipeline->stats().items_applied, 3u);
  EXPECT_EQ(rig.pipeline->queue().depth(), 0u);
}

TEST_F(PipelineTest, LabelBudgetExpiryDegradesToSentinel) {
  std::string dir = CloneTemplate("adapt_label_budget");
  AdaptationConfig config;
  config.batch_size = 8;
  config.label_budget_ms_per_batch = 10.0;
  // Simulated clock: every observation advances 6 ms, so the budget
  // admits exactly one label before expiring — deterministically, on
  // any host.
  double now_s = 0.0;
  config.clock = [&now_s] {
    now_s += 0.006;
    return now_s;
  };
  Rig rig = OpenRig(dir, config);
  size_t rcs_before = rig.pipeline->TrainerRcsSize();

  for (size_t i = 0; i < 3; ++i) OfferFeed(rig.pipeline.get(), i);
  auto report = rig.pipeline->RunOnce();
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // Item 0 labeled within budget; items 1 and 2 hit the expired budget
  // and degrade to sentinel labels exactly like retry exhaustion — they
  // are still applied (without Mixup), never dropped.
  EXPECT_EQ(report->drained, 3u);
  EXPECT_EQ(report->applied, 3u);
  EXPECT_EQ(report->sentinel, 2u);
  EXPECT_EQ(report->budget_expired, 2u);
  AdaptationStats stats = rig.pipeline->stats();
  EXPECT_EQ(stats.labels_ok, 1u);
  EXPECT_EQ(stats.labels_sentinel, 2u);
  EXPECT_EQ(stats.labels_budget_expired, 2u);
  EXPECT_EQ(stats.label_retries, 0u);  // expiry never burns retries
  EXPECT_EQ(rig.pipeline->TrainerRcsSize(), rcs_before + 2 + 2);

  // The budget is per batch: the next RunOnce re-arms it, so a fresh
  // item labels fine even though the clock marched on.
  OfferFeed(rig.pipeline.get(), 3);
  auto second = rig.pipeline->RunOnce();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->budget_expired, 0u);
  EXPECT_EQ(rig.pipeline->stats().labels_ok, 2u);
}

TEST_F(PipelineTest, UnlimitedLabelBudgetNeverExpires) {
  std::string dir = CloneTemplate("adapt_label_nobudget");
  AdaptationConfig config;
  config.label_budget_ms_per_batch = 0.0;  // unlimited (the default)
  double now_s = 0.0;
  config.clock = [&now_s] {
    now_s += 1e6;  // each look jumps ~11 days
    return now_s;
  };
  Rig rig = OpenRig(dir, config);
  OfferFeed(rig.pipeline.get(), 0);
  OfferFeed(rig.pipeline.get(), 1);
  ASSERT_TRUE(rig.pipeline->DrainAll().ok());
  AdaptationStats stats = rig.pipeline->stats();
  EXPECT_EQ(stats.labels_ok, 2u);
  EXPECT_EQ(stats.labels_budget_expired, 0u);
}

TEST_F(PipelineTest, LabelBudgetClockReadsArePinned) {
  // The soak's simulated clock advances on every read, so one read more
  // or less moves every later budget and deadline decision. A batch
  // reads config.clock once when it arms the budget; a limited budget
  // also reads it once per attempt check (plus once for the message of
  // a failed check) and once per retry probe.
  struct Observed {
    int reads = 0;
    AdaptationStats stats;
  };
  auto run = [&](const std::string& name, double budget_ms) {
    std::string dir = CloneTemplate(name);
    AdaptationConfig config;
    config.batch_size = 8;
    config.label_budget_ms_per_batch = budget_ms;
    Observed o;
    // 5 ms per read from 0, so read 2 is exactly 10 ms after the arm.
    config.clock = [&o] { return 0.005 * static_cast<double>(o.reads++); };
    Rig rig = OpenRig(dir, config);
    OfferFeed(rig.pipeline.get(), 0);
    OfferFeed(rig.pipeline.get(), 1);
    auto& injection = util::Faults();
    EXPECT_TRUE(injection
                    .Configure(std::string(util::fault_sites::kAdaptLabel) +
                               ":1.0")
                    .ok());
    auto report = rig.pipeline->RunOnce();
    injection.Disable();
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    o.stats = rig.pipeline->stats();
    return o;
  };

  // 10 ms: arm (0 ms); item 0 checks (5 ms, passes), faults, and its
  // retry probe lands on the budget (10 ms); its second check fails
  // (15 ms) and reads once more for the message; item 1's first check
  // fails the same way.
  Observed limited = run("adapt_clock_reads_limited", 10.0);
  EXPECT_EQ(limited.reads, 7);
  EXPECT_EQ(limited.stats.labels_budget_expired, 2u);
  EXPECT_EQ(limited.stats.label_retries, 0u);

  // Unlimited: the arm is the only read, and every attempt runs.
  Observed unlimited = run("adapt_clock_reads_unlimited", 0.0);
  EXPECT_EQ(unlimited.reads, 1);
  EXPECT_EQ(unlimited.stats.labels_budget_expired, 0u);
  EXPECT_EQ(unlimited.stats.label_retries, 4u);
}

TEST_F(PipelineTest, QuarantineLogPersistsAcrossRestart) {
  std::string dir = CloneTemplate("adapt_qlog");
  uint64_t poisoned = featgraph::GraphFingerprint((*feed_graphs_)[0]);
  {
    Rig rig = OpenRig(dir);
    auto& injection = util::Faults();
    ASSERT_TRUE(injection
                    .Configure(std::string(util::fault_sites::kAdaptTrain) +
                               ":1.0")
                    .ok());
    OfferFeed(rig.pipeline.get(), 0);
    ASSERT_TRUE(rig.pipeline->RunOnce().ok());
    injection.Disable();
  }

  // The sidecar log carries fingerprint, stage, and a failure reason.
  auto records = ReadQuarantineLog(dir);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].fingerprint, poisoned);
  EXPECT_EQ(records[0].stage, "train");
  EXPECT_FALSE(records[0].reason.empty());

  // A restarted pipeline reloads the quarantine: the poisoned item is
  // consumed by dedup instead of retraining (and possibly re-poisoning).
  {
    Rig rig = OpenRig(dir);
    OfferFeed(rig.pipeline.get(), 0);
    ASSERT_TRUE(rig.pipeline->DrainAll().ok());
    AdaptationStats stats = rig.pipeline->stats();
    EXPECT_EQ(stats.items_deduped, 1u);
    EXPECT_EQ(stats.items_applied, 0u);
  }
}

TEST_F(PipelineTest, RequeueFromQuarantineClearsAndReapplies) {
  // The operator recovery path: poison an item so it quarantines, then
  // `requeue` it once the "fault is fixed" — the log entry and dedup
  // state are cleared and the item trains into the RCS normally.
  std::string dir = CloneTemplate("adapt_requeue");
  Rig rig = OpenRig(dir);
  uint64_t poisoned = featgraph::GraphFingerprint((*feed_graphs_)[0]);

  auto& injection = util::Faults();
  ASSERT_TRUE(injection
                  .Configure(std::string(util::fault_sites::kAdaptTrain) +
                             ":1.0")
                  .ok());
  OfferFeed(rig.pipeline.get(), 0);
  ASSERT_TRUE(rig.pipeline->RunOnce().ok());
  injection.Disable();
  ASSERT_EQ(ReadQuarantineLog(dir).size(), 1u);

  // Requeue with the wrong dataset is refused; an unknown fingerprint
  // reports NotFound.
  auto mismatched = rig.pipeline->RequeueFromQuarantine(
      poisoned, (*feed_datasets_)[1], (*feed_graphs_)[1]);
  EXPECT_EQ(mismatched.status().code(), StatusCode::kInvalidArgument);
  auto unknown = rig.pipeline->RequeueFromQuarantine(
      poisoned + 1, (*feed_datasets_)[1], (*feed_graphs_)[1]);
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);
  ASSERT_EQ(ReadQuarantineLog(dir).size(), 1u);

  // The real requeue clears the log + memory and re-offers the item.
  auto offered = rig.pipeline->RequeueFromQuarantine(
      poisoned, (*feed_datasets_)[0], (*feed_graphs_)[0]);
  ASSERT_TRUE(offered.ok()) << offered.status().ToString();
  EXPECT_EQ(*offered, Offered::kAdmitted);
  EXPECT_TRUE(ReadQuarantineLog(dir).empty());
  EXPECT_EQ(rig.pipeline->queue().depth(), 1u);

  // With the fault gone, the retried item applies for real.
  ASSERT_TRUE(rig.pipeline->DrainAll().ok());
  AdaptationStats stats = rig.pipeline->stats();
  EXPECT_EQ(stats.items_applied, 1u);
  EXPECT_EQ(stats.items_deduped, 0u);

  // A second requeue of the now-applied item reports NotFound.
  auto gone = rig.pipeline->RequeueFromQuarantine(
      poisoned, (*feed_datasets_)[0], (*feed_graphs_)[0]);
  EXPECT_EQ(gone.status().code(), StatusCode::kNotFound);
}

TEST(QuarantineLogTest, RemoveFromQuarantineLogRewritesAtomically) {
  std::string dir = std::string(::testing::TempDir()) + "/qlog_rewrite";
  auto store = util::SnapshotStore::Open(dir);  // creates the dir
  ASSERT_TRUE(store.ok());
  std::remove((dir + "/QUARANTINE.log").c_str());
  EXPECT_EQ(RemoveFromQuarantineLog(dir, 1), 0u);  // absent log

  FILE* f = std::fopen((dir + "/QUARANTINE.log").c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fprintf(f, "10\ttrain\treason a\n20\tcommit\treason b\n"
                  "10\ttrain\treason c\n");
  std::fclose(f);

  EXPECT_EQ(RemoveFromQuarantineLog(dir, 10), 2u);
  auto records = ReadQuarantineLog(dir);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].fingerprint, 20u);
  EXPECT_EQ(records[0].stage, "commit");
  EXPECT_EQ(records[0].reason, "reason b");
  EXPECT_EQ(RemoveFromQuarantineLog(dir, 10), 0u);
}

TEST_F(PipelineTest, MultiWorkerDrainIsBitIdentical) {
  // The determinism proof behind `num_workers`: the same feed stream
  // must land on the same trainer digest and the same stats at any
  // worker count — even with label faults firing (fault decisions are
  // content-keyed, not thread-keyed).
  struct Observed {
    uint64_t digest;
    uint64_t generation;
    AdaptationStats stats;
  };
  auto run = [&](int workers) {
    std::string dir =
        CloneTemplate("adapt_mw" + std::to_string(workers));
    AdaptationConfig config;
    config.batch_size = 8;
    config.num_workers = workers;
    Rig rig = OpenRig(dir, config);
    auto& injection = util::Faults();
    EXPECT_TRUE(injection
                    .Configure(std::string(util::fault_sites::kAdaptLabel) +
                               ":0.5")
                    .ok());
    for (size_t i = 0; i < feed_graphs_->size(); ++i) {
      OfferFeed(rig.pipeline.get(), i);
    }
    EXPECT_TRUE(rig.pipeline->DrainAll().ok());
    injection.Disable();
    Observed o;
    o.digest = rig.pipeline->TrainerDigest();
    o.generation = rig.server->generation();
    o.stats = rig.pipeline->stats();
    return o;
  };

  Observed one = run(1);
  for (int workers : {2, 4}) {
    Observed many = run(workers);
    EXPECT_EQ(many.digest, one.digest) << workers << " workers";
    EXPECT_EQ(many.generation, one.generation) << workers << " workers";
    EXPECT_EQ(many.stats.items_applied, one.stats.items_applied);
    EXPECT_EQ(many.stats.labels_ok, one.stats.labels_ok);
    EXPECT_EQ(many.stats.labels_sentinel, one.stats.labels_sentinel);
    EXPECT_EQ(many.stats.label_retries, one.stats.label_retries);
    EXPECT_EQ(many.stats.generations_committed,
              one.stats.generations_committed);
  }
}

TEST_F(PipelineTest, SentinelLabelIsAllFailedFloor) {
  advisor::DatasetLabel label = SentinelLabel();
  for (size_t m = 0; m < ce::kNumModels; ++m) {
    EXPECT_TRUE(label.failed[m]);
    EXPECT_EQ(label.accuracy_score[m], advisor::kScoreFloor);
    EXPECT_EQ(label.efficiency_score[m], advisor::kScoreFloor);
  }
}

TEST_F(PipelineTest, RegistryCountersEqualStatsAfterThePipelineIsGone) {
  // Every AdaptationStats counter is also the `adapt.<field>` registry
  // counter, and the registry keeps the counts after the pipeline is
  // destroyed. Each batch drives another degraded path, so every
  // counter moves.
  namespace sites = util::fault_sites;
  auto& registry = obs::MetricsRegistry::Instance();
  auto& injection = util::Faults();
  std::string dir = CloneTemplate("adapt_registry");
  AdaptationConfig config;
  config.label_budget_ms_per_batch = 10.0;
  bool expire = false;
  double now_s = 0.0;
  config.clock = [&] {
    if (expire) now_s += 1.0;  // every look overruns the budget
    return now_s;
  };
  registry.Enable();
  registry.Reset();
  AdaptationStats stats;
  {
    Rig rig = OpenRig(dir, config);
    auto run_once = [&] {
      auto report = rig.pipeline->RunOnce();
      ASSERT_TRUE(report.ok()) << report.status().ToString();
    };
    // Every label attempt faults (sentinel after two retries), and the
    // post-batch server reload fails.
    ASSERT_TRUE(injection
                    .Configure(std::string(sites::kAdaptLabel) + "," +
                               sites::kServeReload)
                    .ok());
    OfferFeed(rig.pipeline.get(), 0);
    run_once();
    // Both train attempts fault: one retry, then quarantine.
    ASSERT_TRUE(injection.Configure(sites::kAdaptTrain).ok());
    OfferFeed(rig.pipeline.get(), 1);
    run_once();
    // Commit verification faults: rollback, then quarantine.
    ASSERT_TRUE(injection.Configure(sites::kAdaptCommit).ok());
    OfferFeed(rig.pipeline.get(), 2);
    run_once();
    injection.Disable();
    // The labeling budget is gone before the first attempt.
    expire = true;
    OfferFeed(rig.pipeline.get(), 3);
    run_once();
    expire = false;
    // A replay of the applied item 0 dedups; item 4 labels fine.
    OfferFeed(rig.pipeline.get(), 0);
    OfferFeed(rig.pipeline.get(), 4);
    run_once();
    stats = rig.pipeline->stats();
  }
  registry.Disable();

  EXPECT_EQ(stats.batches, 5u);
  EXPECT_EQ(stats.items_seen, 6u);
  EXPECT_EQ(stats.items_applied, 3u);
  EXPECT_EQ(stats.items_deduped, 1u);
  EXPECT_EQ(stats.items_quarantined, 2u);
  EXPECT_EQ(stats.labels_ok, 3u);
  EXPECT_EQ(stats.labels_sentinel, 2u);
  EXPECT_EQ(stats.labels_budget_expired, 1u);
  EXPECT_EQ(stats.label_retries, 2u);
  EXPECT_EQ(stats.train_retries, 1u);
  EXPECT_EQ(stats.commit_failures, 1u);
  EXPECT_EQ(stats.generations_committed, 3u);
  EXPECT_EQ(stats.reloads_triggered, 3u);
  EXPECT_EQ(stats.reload_failures, 1u);
  const std::pair<const char*, uint64_t> fields[] = {
      {"adapt.batches", stats.batches},
      {"adapt.items_seen", stats.items_seen},
      {"adapt.items_applied", stats.items_applied},
      {"adapt.items_deduped", stats.items_deduped},
      {"adapt.items_quarantined", stats.items_quarantined},
      {"adapt.labels_ok", stats.labels_ok},
      {"adapt.labels_sentinel", stats.labels_sentinel},
      {"adapt.labels_budget_expired", stats.labels_budget_expired},
      {"adapt.label_retries", stats.label_retries},
      {"adapt.train_retries", stats.train_retries},
      {"adapt.commit_failures", stats.commit_failures},
      {"adapt.generations_committed", stats.generations_committed},
      {"adapt.reloads_triggered", stats.reloads_triggered},
      {"adapt.reload_failures", stats.reload_failures},
  };
  for (const auto& [name, value] : fields) {
    EXPECT_EQ(registry.GetCounter(name)->value(), static_cast<int64_t>(value))
        << name;
  }
}

}  // namespace
}  // namespace autoce::adapt

// Determinism and degradation contract of the advisor serving layer
// (DESIGN.md §5.8): batched serving is bit-identical to direct
// Recommend calls at any thread count, batch composition, and arrival
// order; overload sheds to the degraded corpus default instead of
// blocking; hot reload advances the model generation without dropping
// requests; and the online-adapt append path refreshes embeddings
// incrementally.
#include "serve/server.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "data/generator.h"
#include "obs/metrics.h"
#include "util/parallel.h"
#include "util/snapshot.h"

namespace autoce::serve {
namespace {

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Bitwise equality of two recommendations.
void ExpectSameRecommendation(const advisor::AutoCe::Recommendation& a,
                              const advisor::AutoCe::Recommendation& b) {
  EXPECT_EQ(a.model, b.model);
  EXPECT_EQ(a.degraded, b.degraded);
  EXPECT_EQ(a.neighbors, b.neighbors);
  ASSERT_EQ(a.score_vector.size(), b.score_vector.size());
  for (size_t i = 0; i < a.score_vector.size(); ++i) {
    EXPECT_TRUE(SameBits(a.score_vector[i], b.score_vector[i]))
        << "score " << i;
  }
}

/// Bitwise equality of the deterministic response fields. `from_cache`
/// is execution metadata (depends on arrival history) and is excluded
/// by contract — see RecommendResponse.
void ExpectSameResponse(const RecommendResponse& a,
                        const RecommendResponse& b) {
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.status.code(), b.status.code());
  EXPECT_EQ(a.shed, b.shed);
  ExpectSameRecommendation(a.recommendation, b.recommendation);
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

/// Fresh snapshot directory (removes leftovers from a prior run).
std::string TempStoreDir(const std::string& name) {
  std::string dir = std::string(::testing::TempDir()) + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

/// One fitted advisor shared by the whole suite through Save/Load
/// clones (AutoCe is move-only; serving tests each need their own).
class ServerTest : public ::testing::Test {
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
    auto datasets = data::GenerateCorpus(gen, 12, &rng);

    featgraph::FeatureExtractor fx;
    graphs_ = new std::vector<featgraph::FeatureGraph>();
    for (const auto& d : datasets) graphs_->push_back(fx.Extract(d));
    labels_ = new std::vector<advisor::DatasetLabel>(SyntheticLabels(12));

    advisor::AutoCe advisor(TinyConfig());
    std::vector<featgraph::FeatureGraph> train(graphs_->begin(),
                                               graphs_->begin() + 9);
    std::vector<advisor::DatasetLabel> train_labels(labels_->begin(),
                                                    labels_->begin() + 9);
    ASSERT_TRUE(advisor.Fit(train, train_labels).ok());
    // Per-process file name: ctest runs each test case in its own
    // process, and concurrent writers to one shared path tear the file.
    saved_path_ = new std::string(std::string(::testing::TempDir()) +
                                  "/serve_advisor_" +
                                  std::to_string(::getpid()));
    ASSERT_TRUE(advisor.Save(*saved_path_).ok());
  }

  static void TearDownTestSuite() {
    if (saved_path_ != nullptr) std::remove(saved_path_->c_str());
    delete graphs_;
    delete labels_;
    delete saved_path_;
    graphs_ = nullptr;
    labels_ = nullptr;
    saved_path_ = nullptr;
  }

  static advisor::AutoCe LoadAdvisor() {
    auto loaded = advisor::AutoCe::Load(*saved_path_);
    AUTOCE_CHECK(loaded.ok());
    return std::move(*loaded);
  }

  /// One request per corpus graph, ids 100, 101, ... and cycling
  /// accuracy weights.
  static std::vector<RecommendRequest> AllRequests() {
    const double weights[3] = {0.9, 0.7, 0.5};
    std::vector<RecommendRequest> requests;
    for (size_t i = 0; i < graphs_->size(); ++i) {
      RecommendRequest r;
      r.id = 100 + i;
      r.graph = (*graphs_)[i];
      r.w_a = weights[i % 3];
      requests.push_back(std::move(r));
    }
    return requests;
  }

  static std::vector<featgraph::FeatureGraph>* graphs_;
  static std::vector<advisor::DatasetLabel>* labels_;
  static std::string* saved_path_;
};

std::vector<featgraph::FeatureGraph>* ServerTest::graphs_ = nullptr;
std::vector<advisor::DatasetLabel>* ServerTest::labels_ = nullptr;
std::string* ServerTest::saved_path_ = nullptr;

TEST_F(ServerTest, BatchedServingMatchesDirectRecommend) {
  advisor::AutoCe reference = LoadAdvisor();
  ServerConfig cfg;
  cfg.max_batch = 4;
  AdvisorServer server(LoadAdvisor(), cfg);
  auto requests = AllRequests();
  auto responses = server.Serve(requests);
  ASSERT_EQ(responses.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(responses[i].status.ok()) << responses[i].status.ToString();
    EXPECT_FALSE(responses[i].shed);
    auto direct = reference.Recommend(requests[i].graph, requests[i].w_a);
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(responses[i].recommendation.model, direct->model);
    EXPECT_EQ(responses[i].recommendation.neighbors, direct->neighbors);
    ASSERT_EQ(responses[i].recommendation.score_vector.size(),
              direct->score_vector.size());
    for (size_t s = 0; s < direct->score_vector.size(); ++s) {
      EXPECT_TRUE(SameBits(responses[i].recommendation.score_vector[s],
                           direct->score_vector[s]));
    }
  }
  ServerStats stats = server.stats();
  EXPECT_EQ(stats.requests, requests.size());
  EXPECT_EQ(stats.embedded, requests.size());
  EXPECT_EQ(stats.batches, 3u);  // 12 requests / max_batch 4
}

TEST_F(ServerTest, ArrivalOrderAndBatchCompositionDoNotChangeResponses) {
  ServerConfig small;
  small.max_batch = 3;
  AdvisorServer baseline_server(LoadAdvisor(), small);
  auto requests = AllRequests();
  auto baseline = baseline_server.Serve(requests);

  Rng rng(31337);
  for (int round = 0; round < 3; ++round) {
    auto shuffled = requests;
    rng.Shuffle(&shuffled);
    ServerConfig big;
    big.max_batch = 8;
    AdvisorServer server(LoadAdvisor(), big);
    auto responses = server.Serve(shuffled);
    ASSERT_EQ(responses.size(), baseline.size());
    for (const RecommendResponse& got : responses) {
      auto ref = std::find_if(
          baseline.begin(), baseline.end(),
          [&](const RecommendResponse& r) { return r.id == got.id; });
      ASSERT_NE(ref, baseline.end());
      ExpectSameResponse(got, *ref);
    }
  }

  // One request per batch, and one batch holding the whole burst, with
  // the cache off so every request pays its embedding; each with the
  // metrics sink off and on, since recording must not change any bit.
  auto& registry = obs::MetricsRegistry::Instance();
  for (size_t max_batch : {size_t{1}, size_t{8}, size_t{32}}) {
    for (bool metrics : {false, true}) {
      SCOPED_TRACE("max_batch " + std::to_string(max_batch) +
                   (metrics ? ", metrics on" : ", metrics off"));
      if (metrics) {
        registry.Enable();
      } else {
        registry.Disable();
      }
      ServerConfig cfg;
      cfg.max_batch = max_batch;
      cfg.cache_capacity = 0;
      AdvisorServer server(LoadAdvisor(), cfg);
      auto responses = server.Serve(requests);
      ASSERT_EQ(responses.size(), baseline.size());
      for (size_t i = 0; i < responses.size(); ++i) {
        ExpectSameResponse(responses[i], baseline[i]);
      }
    }
  }
  registry.Disable();
}

TEST_F(ServerTest, ResponsesAreBitIdenticalAcrossThreadCounts) {
  util::SetGlobalParallelism(1);
  AdvisorServer baseline_server(LoadAdvisor(), {});
  auto requests = AllRequests();
  auto baseline = baseline_server.Serve(requests);
  for (int threads : {2, 8}) {
    util::SetGlobalParallelism(threads);
    AdvisorServer server(LoadAdvisor(), {});
    auto responses = server.Serve(requests);
    ASSERT_EQ(responses.size(), baseline.size());
    for (size_t i = 0; i < responses.size(); ++i) {
      ExpectSameResponse(responses[i], baseline[i]);
    }
  }
  util::SetGlobalParallelism(1);
}

TEST_F(ServerTest, CacheHitReturnsIdenticalBits) {
  AdvisorServer server(LoadAdvisor(), {});
  RecommendRequest request;
  request.id = 7;
  request.graph = (*graphs_)[0];
  request.w_a = 0.9;
  RecommendResponse first = server.ServeOne(request);
  RecommendResponse second = server.ServeOne(request);
  ASSERT_TRUE(first.status.ok());
  EXPECT_FALSE(first.from_cache);
  EXPECT_TRUE(second.from_cache);
  ExpectSameResponse(first, second);
  ServerStats stats = server.stats();
  EXPECT_EQ(stats.embedded, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);
}

TEST_F(ServerTest, CacheEvictsLeastRecentlyUsed) {
  ServerConfig cfg;
  cfg.cache_capacity = 2;
  AdvisorServer server(LoadAdvisor(), cfg);
  auto requests = AllRequests();
  // Graphs 0, 1, 2 in turn: capacity 2 evicts graph 0, so a repeat of
  // graph 0 misses while a repeat of graph 2 hits.
  server.ServeOne(requests[0]);
  server.ServeOne(requests[1]);
  server.ServeOne(requests[2]);
  EXPECT_FALSE(server.ServeOne(requests[0]).from_cache);
  EXPECT_TRUE(server.ServeOne(requests[2]).from_cache);
}

TEST_F(ServerTest, OverloadShedsToDegradedCorpusDefault) {
  ServerConfig cfg;
  cfg.queue_capacity = 2;
  AdvisorServer server(LoadAdvisor(), cfg);
  auto requests = AllRequests();
  requests.resize(5);
  auto responses = server.Serve(requests);
  ASSERT_EQ(responses.size(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_TRUE(responses[i].status.ok());
    EXPECT_EQ(responses[i].shed, i >= 2) << "request " << i;
    for (double s : responses[i].recommendation.score_vector) {
      EXPECT_TRUE(std::isfinite(s));
    }
    if (i >= 2) {
      EXPECT_TRUE(responses[i].recommendation.degraded);
      EXPECT_EQ(responses[i].recommendation.degraded_reason,
                "admission queue overflow");
    }
  }
  EXPECT_EQ(server.stats().shed, 3u);

  // The shed pattern and every response bit reproduce on a fresh server.
  AdvisorServer again(LoadAdvisor(), cfg);
  auto repeat = again.Serve(requests);
  for (size_t i = 0; i < 5; ++i) ExpectSameResponse(repeat[i], responses[i]);
}

TEST_F(ServerTest, ExpiredDeadlineShedsAtAdmission) {
  // Simulated clock: +5 ms per look. Serve reads it once at burst
  // start and once before admission, so admission sees 5 ms elapsed.
  ServerConfig cfg;
  cfg.request_deadline_ms = 4.0;
  double now_s = 0.0;
  cfg.clock = [&now_s] {
    now_s += 0.005;
    return now_s;
  };
  AdvisorServer server(LoadAdvisor(), cfg);

  auto requests = AllRequests();
  requests.resize(3);
  // A per-request override can opt out of the tight server default.
  requests[2].deadline_ms = 1000.0;
  auto responses = server.Serve(requests);
  ASSERT_EQ(responses.size(), 3u);
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_TRUE(responses[i].status.ok());
    EXPECT_TRUE(responses[i].shed) << i;
    EXPECT_TRUE(responses[i].recommendation.degraded) << i;
    EXPECT_EQ(responses[i].recommendation.degraded_reason,
              "request deadline expired at admission")
        << i;
  }
  EXPECT_FALSE(responses[2].shed);
  EXPECT_FALSE(responses[2].recommendation.degraded);

  ServerStats stats = server.stats();
  EXPECT_EQ(stats.shed, 2u);
  EXPECT_EQ(stats.deadline_shed, 2u);
}

TEST_F(ServerTest, DeadlineExpiringMidBurstShedsLaterBatches) {
  // +5 ms per look: burst start, admission (5 ms), first batch
  // (10 ms), second batch (15 ms). A 12 ms deadline admits everything,
  // serves the first batch, and sheds the second — late answers are
  // worthless, so the server refuses to burn a forward on them.
  ServerConfig cfg;
  cfg.max_batch = 2;
  cfg.request_deadline_ms = 12.0;
  double now_s = 0.0;
  cfg.clock = [&now_s] {
    now_s += 0.005;
    return now_s;
  };
  AdvisorServer server(LoadAdvisor(), cfg);

  auto requests = AllRequests();
  requests.resize(4);
  auto responses = server.Serve(requests);
  ASSERT_EQ(responses.size(), 4u);
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_FALSE(responses[i].shed) << i;
    EXPECT_FALSE(responses[i].recommendation.degraded) << i;
  }
  for (size_t i = 2; i < 4; ++i) {
    EXPECT_TRUE(responses[i].status.ok());
    EXPECT_TRUE(responses[i].shed) << i;
    EXPECT_EQ(responses[i].recommendation.degraded_reason,
              "request deadline expired before batch")
        << i;
  }
  ServerStats stats = server.stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.shed, 2u);
  EXPECT_EQ(stats.deadline_shed, 2u);

  // The same burst against the same simulated clock reproduces bit for
  // bit — deadline shedding is deterministic once the clock is.
  double again_s = 0.0;
  ServerConfig cfg2 = cfg;
  cfg2.clock = [&again_s] {
    again_s += 0.005;
    return again_s;
  };
  AdvisorServer again(LoadAdvisor(), cfg2);
  auto repeat = again.Serve(requests);
  for (size_t i = 0; i < 4; ++i) ExpectSameResponse(repeat[i], responses[i]);
}

TEST_F(ServerTest, NoDeadlineMeansNoDeadlineShedding) {
  ServerConfig cfg;  // request_deadline_ms = 0: off
  double now_s = 0.0;
  cfg.clock = [&now_s] {
    now_s += 3600.0;  // an hour per look
    return now_s;
  };
  AdvisorServer server(LoadAdvisor(), cfg);
  auto requests = AllRequests();
  requests.resize(3);
  auto responses = server.Serve(requests);
  for (const auto& r : responses) {
    EXPECT_FALSE(r.shed);
    EXPECT_TRUE(r.status.ok());
  }
  EXPECT_EQ(server.stats().deadline_shed, 0u);
}

TEST_F(ServerTest, InvalidGraphIsRejectedWhileOthersAreServed) {
  AdvisorServer server(LoadAdvisor(), {});
  auto requests = AllRequests();
  requests.resize(3);
  // Wrong vertex dimension: fails featgraph::ValidateGraph at admission.
  requests[1].graph.vertices = nn::Matrix(2, 1);
  auto responses = server.Serve(requests);
  EXPECT_TRUE(responses[0].status.ok());
  EXPECT_FALSE(responses[1].status.ok());
  EXPECT_EQ(responses[1].status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(responses[2].status.ok());
  EXPECT_EQ(server.stats().invalid, 1u);
}

TEST_F(ServerTest, OpenRejectsZeroMaxBatch) {
  // A fitted store, so only the batch bound can make Open fail.
  std::string dir = TempStoreDir("serve_zero_batch");
  advisor::AutoCe advisor(TinyConfig());
  ASSERT_TRUE(advisor.EnableSnapshots(dir).ok());
  std::vector<featgraph::FeatureGraph> train(graphs_->begin(),
                                             graphs_->begin() + 9);
  std::vector<advisor::DatasetLabel> train_labels(labels_->begin(),
                                                  labels_->begin() + 9);
  ASSERT_TRUE(advisor.Fit(train, train_labels).ok());

  ServerConfig cfg;
  cfg.max_batch = 0;
  auto server = AdvisorServer::Open(dir, cfg);
  ASSERT_FALSE(server.ok());
  EXPECT_EQ(server.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(AdvisorServer::Open(dir).ok());
}

TEST_F(ServerTest, ReloadAdvancesGenerationAndServesNewModel) {
  std::string dir = TempStoreDir("serve_reload_gen");
  advisor::AutoCe advisor(TinyConfig());
  ASSERT_TRUE(advisor.EnableSnapshots(dir).ok());
  std::vector<featgraph::FeatureGraph> train(graphs_->begin(),
                                             graphs_->begin() + 9);
  std::vector<advisor::DatasetLabel> train_labels(labels_->begin(),
                                                  labels_->begin() + 9);
  ASSERT_TRUE(advisor.Fit(train, train_labels).ok());

  auto server = AdvisorServer::Open(dir);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  uint64_t gen_before = (*server)->generation();
  EXPECT_GT(gen_before, 0u);

  // The training job commits a new generation through an online update;
  // the server keeps serving the old one until Reload.
  ASSERT_TRUE(
      advisor.AddLabeledSample((*graphs_)[9], (*labels_)[9]).ok());
  EXPECT_EQ((*server)->generation(), gen_before);

  ASSERT_TRUE((*server)->Reload().ok());
  EXPECT_GT((*server)->generation(), gen_before);
  EXPECT_EQ((*server)->stats().reloads, 1u);
  EXPECT_EQ((*server)->stats().reload_attempts, 1u);
  EXPECT_EQ((*server)->stats().reload_failures, 0u);
  EXPECT_TRUE((*server)->stats().last_reload_error.empty());
  EXPECT_EQ((*server)->advisor()->ModelDigest(), advisor.ModelDigest());

  // Responses now match the updated advisor bit-for-bit.
  RecommendRequest request;
  request.id = 1;
  request.graph = (*graphs_)[10];
  request.w_a = 0.7;
  RecommendResponse response = (*server)->ServeOne(request);
  ASSERT_TRUE(response.status.ok());
  EXPECT_EQ(response.model_generation, (*server)->generation());
  auto direct = advisor.Recommend(request.graph, request.w_a);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(response.recommendation.model, direct->model);
  EXPECT_EQ(response.recommendation.neighbors, direct->neighbors);
  for (size_t s = 0; s < direct->score_vector.size(); ++s) {
    EXPECT_TRUE(SameBits(response.recommendation.score_vector[s],
                         direct->score_vector[s]));
  }
}

TEST_F(ServerTest, ReloadDropsCachedEmbeddingsOnlyWhenTheEncoderMoved) {
  // The server digests each advisor's encoder once, when it installs
  // it; a reload must replace that digest, or the cache keeps serving
  // embeddings of the previous encoder.
  std::string dir = TempStoreDir("serve_reload_cache");
  advisor::AutoCe advisor(TinyConfig());
  ASSERT_TRUE(advisor.EnableSnapshots(dir).ok());
  std::vector<featgraph::FeatureGraph> train(graphs_->begin(),
                                             graphs_->begin() + 9);
  std::vector<advisor::DatasetLabel> train_labels(labels_->begin(),
                                                  labels_->begin() + 9);
  ASSERT_TRUE(advisor.Fit(train, train_labels).ok());
  auto server = AdvisorServer::Open(dir);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  RecommendRequest x;
  x.id = 7;
  x.graph = (*graphs_)[10];
  x.w_a = 0.7;
  EXPECT_FALSE((*server)->ServeOne(x).from_cache);
  EXPECT_TRUE((*server)->ServeOne(x).from_cache);

  auto expect_direct_bits = [&](const RecommendResponse& response) {
    ASSERT_TRUE(response.status.ok());
    auto direct = advisor.Recommend(x.graph, x.w_a);
    ASSERT_TRUE(direct.ok());
    ExpectSameRecommendation(response.recommendation, *direct);
  };

  // An online update retrains the encoder and commits a generation.
  uint64_t digest_before = advisor.EncoderDigest();
  ASSERT_TRUE(
      advisor.AddLabeledSample((*graphs_)[9], (*labels_)[9]).ok());
  ASSERT_NE(advisor.EncoderDigest(), digest_before);
  ASSERT_TRUE((*server)->Reload().ok());
  RecommendResponse updated = (*server)->ServeOne(x);
  EXPECT_FALSE(updated.from_cache);
  expect_direct_bits(updated);

  // Committing the unchanged state again is a new generation with the
  // same encoder: the cached embedding stays valid.
  uint64_t generation = (*server)->generation();
  auto store = util::SnapshotStore::Open(dir);
  ASSERT_TRUE(store.ok());
  auto sections = store->LoadLatest();
  ASSERT_TRUE(sections.ok());
  ASSERT_TRUE(store->Commit(*sections).ok());
  ASSERT_TRUE((*server)->Reload().ok());
  EXPECT_GT((*server)->generation(), generation);
  RecommendResponse kept = (*server)->ServeOne(x);
  EXPECT_TRUE(kept.from_cache);
  expect_direct_bits(kept);
}

TEST_F(ServerTest, OverlappingBurstsOnTwoGenerationsNeverMixEncoders) {
  // Two serving threads and hot reloads that alternate between two
  // unrelated advisors. A burst pinned to one generation can embed its
  // misses while a burst on the other resets the cache to its own
  // digest; those embeddings must not be cached under that digest, or
  // later hits answer with the other encoder's geometry.
  advisor::AutoCeConfig cfg_b = TinyConfig();
  cfg_b.seed = 4242;
  advisor::AutoCe advisor_b(cfg_b);
  std::vector<featgraph::FeatureGraph> train_b(graphs_->begin() + 3,
                                               graphs_->end());
  std::vector<advisor::DatasetLabel> labels_b(labels_->begin() + 3,
                                              labels_->end());
  ASSERT_TRUE(advisor_b.Fit(train_b, labels_b).ok());
  std::string path_b = *saved_path_ + "_b";
  ASSERT_TRUE(advisor_b.Save(path_b).ok());
  auto sections_a = util::ReadSnapshotFile(*saved_path_);
  auto sections_b = util::ReadSnapshotFile(path_b);
  std::remove(path_b.c_str());
  ASSERT_TRUE(sections_a.ok() && sections_b.ok());

  const std::vector<RecommendRequest> requests = AllRequests();
  advisor::AutoCe advisor_a = LoadAdvisor();
  std::vector<advisor::AutoCe::Recommendation> expected[2];
  bool advisors_differ = false;
  for (const RecommendRequest& r : requests) {
    auto a = advisor_a.Recommend(r.graph, r.w_a);
    auto b = advisor_b.Recommend(r.graph, r.w_a);
    ASSERT_TRUE(a.ok() && b.ok());
    advisors_differ = advisors_differ || a->neighbors != b->neighbors;
    expected[0].push_back(std::move(*a));
    expected[1].push_back(std::move(*b));
  }
  ASSERT_TRUE(advisors_differ);

  std::string dir = TempStoreDir("serve_reload_overlap");
  auto store = util::SnapshotStore::Open(dir);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Commit(*sections_a, util::CommitDurability::kLazy).ok());
  ServerConfig config;
  config.max_batch = 1;  // a lookup/insert window per request
  auto server = AdvisorServer::Open(dir, config);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  // Generation -> advisor (0 = a, 1 = b), registered before the reload
  // that installs it.
  std::mutex mu;
  std::map<uint64_t, int> advisor_of{{(*server)->generation(), 0}};
  std::atomic<bool> done{false};
  std::atomic<size_t> served{0};
  std::atomic<size_t> mismatches{0};
  auto serve_loop = [&] {
    while (!done.load()) {
      std::vector<RecommendResponse> responses = (*server)->Serve(requests);
      int which;
      {
        std::lock_guard<std::mutex> lock(mu);
        which = advisor_of.at(responses[0].model_generation);
      }
      for (size_t i = 0; i < responses.size(); ++i) {
        const auto& got = responses[i].recommendation;
        const auto& want = expected[which][i];
        bool same = responses[i].status.ok() && got.model == want.model &&
                    got.neighbors == want.neighbors &&
                    got.score_vector.size() == want.score_vector.size();
        for (size_t s = 0; same && s < want.score_vector.size(); ++s) {
          same = SameBits(got.score_vector[s], want.score_vector[s]);
        }
        if (!same) mismatches.fetch_add(1);
      }
      served.fetch_add(responses.size());
    }
  };
  std::thread first(serve_loop);
  std::thread second(serve_loop);
  bool reloads_ok = true;
  for (int round = 1; round <= 100 && reloads_ok; ++round) {
    const int which = round % 2;
    auto generation = store->Commit(which == 0 ? *sections_a : *sections_b,
                                    util::CommitDurability::kLazy);
    if (!generation.ok()) {
      reloads_ok = false;
      break;
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      advisor_of[*generation] = which;
    }
    reloads_ok = (*server)->Reload().ok();
    // Let both threads serve this generation before the next flip.
    const size_t until = served.load() + 4 * requests.size();
    while (served.load() < until) std::this_thread::yield();
  }
  done.store(true);
  first.join();
  second.join();
  ASSERT_TRUE(reloads_ok);
  EXPECT_EQ(mismatches.load(), 0u) << "of " << served.load() << " served";
  EXPECT_EQ((*server)->stats().reloads, 100u);
}

TEST_F(ServerTest, ReloadWithoutStoreFailsAndKeepsServing) {
  AdvisorServer server(LoadAdvisor(), {});
  Status st = server.Reload();
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(server.generation(), 0u);
  RecommendRequest request;
  request.graph = (*graphs_)[0];
  request.w_a = 0.9;
  EXPECT_TRUE(server.ServeOne(request).status.ok());
}

TEST_F(ServerTest, MetricsCountersMatchServerStats) {
  // With the metrics sink enabled, the obs counters shadow ServerStats
  // exactly, and the Prometheus export carries those counts verbatim
  // (DESIGN.md §5.9 acceptance: serve counters match asserted stats).
  auto& registry = obs::MetricsRegistry::Instance();
  registry.Enable();
  registry.Reset();

  ServerConfig cfg;
  cfg.queue_capacity = 2;
  AdvisorServer server(LoadAdvisor(), cfg);
  auto requests = AllRequests();
  requests.resize(5);
  auto responses = server.Serve(requests);
  ASSERT_EQ(responses.size(), 5u);
  // Repeat request 0: a cache hit on the second pass.
  EXPECT_TRUE(server.ServeOne(requests[0]).from_cache);
  Status reload_status = server.Reload();  // no store: counted as failure
  EXPECT_FALSE(reload_status.ok());

  ServerStats stats = server.stats();
  EXPECT_EQ(stats.requests, 6u);
  EXPECT_EQ(stats.shed, 3u);
  EXPECT_EQ(stats.cache_hits, 1u);

  std::string text = registry.ExportPrometheus();
  registry.Disable();
  auto expect_line = [&](const std::string& line) {
    EXPECT_NE(text.find(line), std::string::npos) << line << "\n" << text;
  };
  expect_line("serve_requests_total " + std::to_string(stats.requests));
  expect_line("serve_admitted_total " + std::to_string(stats.requests -
                                                       stats.shed));
  expect_line("serve_shed_total " + std::to_string(stats.shed));
  expect_line("serve_cache_hits_total " + std::to_string(stats.cache_hits));
  expect_line("serve_embedded_total " + std::to_string(stats.embedded));
  expect_line("serve_batches_total " + std::to_string(stats.batches));
  expect_line("serve_invalid_total 0");
  expect_line("serve_reloads_total " + std::to_string(stats.reloads));
  // The no-store precondition rejection counts as an attempted, failed
  // reload in ServerStats and the obs counters alike, and its message is
  // retained as the last reload error.
  EXPECT_EQ(stats.reload_attempts, 1u);
  EXPECT_EQ(stats.reload_failures, 1u);
  EXPECT_EQ(stats.last_reload_error, reload_status.message());
  expect_line("serve_reload_attempts_total " +
              std::to_string(stats.reload_attempts));
  expect_line("serve_reload_failures_total " +
              std::to_string(stats.reload_failures));
  // Every admitted or shed request lands one latency observation.
  expect_line("serve_request_ms_count " + std::to_string(stats.requests));

  // The DeadlineExpiringMidBurstShedsLaterBatches burst: all four
  // requests are admitted, and the second batch's two are shed when it
  // starts past the deadline. Each request still lands one observation.
  registry.Enable();
  registry.Reset();
  ServerConfig late;
  late.max_batch = 2;
  late.request_deadline_ms = 12.0;
  double now_s = 0.0;
  late.clock = [&now_s] {
    now_s += 0.005;
    return now_s;
  };
  AdvisorServer late_server(LoadAdvisor(), late);
  requests.resize(4);
  late_server.Serve(requests);
  ServerStats late_stats = late_server.stats();
  EXPECT_EQ(late_stats.requests, 4u);
  EXPECT_EQ(late_stats.deadline_shed, 2u);
  text = registry.ExportPrometheus();
  registry.Disable();
  expect_line("serve_shed_total " + std::to_string(late_stats.shed));
  expect_line("serve_deadline_shed_total " +
              std::to_string(late_stats.deadline_shed));
  expect_line("serve_request_ms_count " + std::to_string(late_stats.requests));
}

TEST_F(ServerTest, OnlineAppendRefreshesEmbeddingsIncrementally) {
  // online_update_epochs = 0: AddLabeledSample appends to the RCS
  // without touching the encoder, so RefreshEmbeddings only embeds the
  // appended tail and the prefix embeddings are reused byte-for-byte.
  advisor::AutoCeConfig cfg = TinyConfig();
  cfg.online_update_epochs = 0;
  advisor::AutoCe advisor(cfg);
  std::vector<featgraph::FeatureGraph> train(graphs_->begin(),
                                             graphs_->begin() + 9);
  std::vector<advisor::DatasetLabel> train_labels(labels_->begin(),
                                                  labels_->begin() + 9);
  ASSERT_TRUE(advisor.Fit(train, train_labels).ok());
  std::vector<std::vector<double>> before = advisor.rcs_index().points();
  uint64_t digest_before = advisor.EncoderDigest();

  ASSERT_TRUE(
      advisor.AddLabeledSample((*graphs_)[9], (*labels_)[9]).ok());
  EXPECT_EQ(advisor.EncoderDigest(), digest_before);
  const auto& after = advisor.rcs_index().points();
  ASSERT_EQ(after.size(), before.size() + 1);
  for (size_t i = 0; i < before.size(); ++i) {
    ASSERT_EQ(after[i].size(), before[i].size());
    for (size_t d = 0; d < before[i].size(); ++d) {
      EXPECT_TRUE(SameBits(after[i][d], before[i][d])) << "member " << i;
    }
  }
  std::vector<double> fresh = advisor.Embed((*graphs_)[9]);
  ASSERT_EQ(after.back().size(), fresh.size());
  for (size_t d = 0; d < fresh.size(); ++d) {
    EXPECT_TRUE(SameBits(after.back()[d], fresh[d]));
  }
  EXPECT_EQ(advisor.DistanceToRcs((*graphs_)[9]), 0.0);
}

}  // namespace
}  // namespace autoce::serve

#include "fss/estimator_service.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <vector>

#include "data/generator.h"
#include "engine/executor.h"
#include "engine/histogram.h"
#include "obs/metrics.h"
#include "query/query.h"
#include "util/fault.h"
#include "util/rng.h"

namespace autoce::fss {
namespace {

data::Dataset MakeDataset(uint64_t seed) {
  Rng rng(seed);
  data::DatasetGenParams p;
  p.min_tables = p.max_tables = 3;
  p.min_rows = p.max_rows = 150;
  p.min_columns = p.max_columns = 2;
  return data::GenerateDataset(p, &rng);
}

std::vector<query::Query> MakeWorkload(const data::Dataset& ds, int n,
                                       uint64_t seed) {
  Rng rng(seed);
  query::WorkloadParams wp;
  wp.num_queries = n;
  wp.max_tables = 3;
  return query::GenerateWorkload(ds, wp, &rng);
}

/// Deterministic sampling model: the estimate consumes its inference
/// RNG, so it is order-dependent UNLESS the service re-seeds per
/// subplan — exactly the property the service must guarantee.
class SamplingStubModel : public ce::CardinalityEstimator {
 public:
  ce::ModelId id() const override { return ce::ModelId::kMscn; }
  bool is_data_driven() const override { return false; }
  Status Train(const ce::TrainContext&) override { return Status::OK(); }
  double EstimateCardinality(const query::Query& q) override {
    ++calls;
    double noise = rng_.Uniform();  // advances shared sampling state
    return 100.0 * static_cast<double>(q.tables.size()) + noise;
  }
  void SeedInference(uint64_t seed) override { rng_ = Rng(seed); }
  int calls = 0;

 private:
  Rng rng_{99};
};

std::string TempStoreDir(const std::string& name) {
  std::string dir = std::string(::testing::TempDir()) + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(EstimatorServiceTest, NullModelServesHistogramFallback) {
  data::Dataset ds = MakeDataset(11);
  auto service = EstimatorService::Open("", nullptr, &ds);
  ASSERT_TRUE(service.ok());
  engine::PostgresStyleEstimator histogram(&ds);
  for (const query::Query& q : MakeWorkload(ds, 5, 2)) {
    EXPECT_DOUBLE_EQ((*service)->EstimateSubplan(q),
                     histogram.EstimateCardinality(q));
  }
  ServiceStats stats = (*service)->stats();
  EXPECT_EQ(stats.lookups, 5u);
  EXPECT_EQ(stats.fallbacks, 5u);
  EXPECT_EQ(stats.model_estimates, 0u);
}

TEST(EstimatorServiceTest, ModelEstimatesAreCachedBySubplan) {
  data::Dataset ds = MakeDataset(12);
  auto service =
      EstimatorService::Open("", std::make_unique<SamplingStubModel>(), &ds);
  ASSERT_TRUE(service.ok());
  auto queries = MakeWorkload(ds, 4, 3);

  std::vector<double> first, second;
  for (const auto& q : queries) first.push_back((*service)->EstimateSubplan(q));
  for (const auto& q : queries) second.push_back((*service)->EstimateSubplan(q));
  EXPECT_EQ(first, second);

  ServiceStats stats = (*service)->stats();
  EXPECT_EQ(stats.model_estimates, 4u);
  EXPECT_EQ(stats.cache_hits, 4u);
}

TEST(EstimatorServiceTest, EstimatesAreCallOrderIndependent) {
  // Two services over the same dataset, asked about the same subplans
  // in different orders and interleavings, must answer identically —
  // the bit-identity anchor for the bench's thread sweep.
  data::Dataset ds = MakeDataset(13);
  auto a = EstimatorService::Open("", std::make_unique<SamplingStubModel>(), &ds);
  auto b = EstimatorService::Open("", std::make_unique<SamplingStubModel>(), &ds);
  ASSERT_TRUE(a.ok() && b.ok());
  auto queries = MakeWorkload(ds, 6, 4);

  std::vector<double> forward(queries.size()), backward(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    forward[i] = (*a)->EstimateSubplan(queries[i]);
  }
  for (std::size_t i = queries.size(); i-- > 0;) {
    backward[i] = (*b)->EstimateSubplan(queries[i]);
  }
  EXPECT_EQ(forward, backward);
}

TEST(EstimatorServiceTest, KnowledgeOverridesModelAndCache) {
  data::Dataset ds = MakeDataset(14);
  auto service =
      EstimatorService::Open("", std::make_unique<SamplingStubModel>(), &ds);
  ASSERT_TRUE(service.ok());
  auto queries = MakeWorkload(ds, 3, 5);
  const query::Query& q = queries[0];

  double model_answer = (*service)->EstimateSubplan(q);
  (*service)->ObserveTrueCardinality(q, 777);
  EXPECT_DOUBLE_EQ((*service)->EstimateSubplan(q), 777.0);
  EXPECT_NE(model_answer, 777.0);

  ServiceStats stats = (*service)->stats();
  EXPECT_EQ(stats.knowledge_hits, 1u);
  EXPECT_EQ(stats.feedback, 1u);
  EXPECT_EQ(stats.knowledge_entries, 1u);
}

TEST(EstimatorServiceTest, DeterministicFifoEviction) {
  data::Dataset ds = MakeDataset(15);
  EstimatorServiceOptions options;
  options.cache_capacity = 2;
  auto service = EstimatorService::Open(
      "", std::make_unique<SamplingStubModel>(), &ds, options);
  ASSERT_TRUE(service.ok());
  auto queries = MakeWorkload(ds, 3, 6);
  ASSERT_GE(queries.size(), 3u);

  (*service)->EstimateSubplan(queries[0]);
  (*service)->EstimateSubplan(queries[1]);
  (*service)->EstimateSubplan(queries[2]);  // evicts queries[0]
  EXPECT_EQ((*service)->stats().evictions, 1u);

  (*service)->EstimateSubplan(queries[1]);  // still cached
  (*service)->EstimateSubplan(queries[2]);  // still cached
  EXPECT_EQ((*service)->stats().cache_hits, 2u);
  (*service)->EstimateSubplan(queries[0]);  // re-estimated
  EXPECT_EQ((*service)->stats().model_estimates, 4u);
}

TEST(EstimatorServiceTest, KnowledgePersistsAcrossReopen) {
  data::Dataset ds = MakeDataset(16);
  std::string dir = TempStoreDir("fss_service_persist");
  auto queries = MakeWorkload(ds, 3, 7);
  {
    auto service = EstimatorService::Open(
        dir, std::make_unique<SamplingStubModel>(), &ds);
    ASSERT_TRUE(service.ok());
    (*service)->ObserveTrueCardinality(queries[0], 111);
    (*service)->ObserveTrueCardinality(queries[1], 222);
    ASSERT_TRUE((*service)->CommitKnowledge().ok());
    EXPECT_EQ((*service)->stats().commits, 1u);
  }
  auto reopened = EstimatorService::Open(
      dir, std::make_unique<SamplingStubModel>(), &ds);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->knowledge_size(), 2u);
  EXPECT_DOUBLE_EQ((*reopened)->EstimateSubplan(queries[0]), 111.0);
  EXPECT_DOUBLE_EQ((*reopened)->EstimateSubplan(queries[1]), 222.0);
  EXPECT_EQ((*reopened)->stats().knowledge_hits, 2u);
}

TEST(EstimatorServiceTest, LookupFaultFallsBackToHistogram) {
  data::Dataset ds = MakeDataset(17);
  auto service =
      EstimatorService::Open("", std::make_unique<SamplingStubModel>(), &ds);
  ASSERT_TRUE(service.ok());
  engine::PostgresStyleEstimator histogram(&ds);
  auto queries = MakeWorkload(ds, 4, 8);

  ASSERT_TRUE(
      util::Faults().Configure("fss.lookup", 7).ok());
  for (const auto& q : queries) {
    EXPECT_DOUBLE_EQ((*service)->EstimateSubplan(q),
                     histogram.EstimateCardinality(q));
  }
  EXPECT_EQ((*service)->stats().fallbacks, 4u);
  util::Faults().Disable();

  // Recovered: the model answers again, and the degraded answer was not
  // cached.
  (*service)->EstimateSubplan(queries[0]);
  EXPECT_EQ((*service)->stats().model_estimates, 1u);
  EXPECT_EQ((*service)->stats().cache_hits, 0u);
}

TEST(EstimatorServiceTest, CommitFaultLeavesDurableStoreUntouched) {
  data::Dataset ds = MakeDataset(18);
  std::string dir = TempStoreDir("fss_service_commit_fault");
  auto queries = MakeWorkload(ds, 2, 9);
  auto service = EstimatorService::Open(
      dir, std::make_unique<SamplingStubModel>(), &ds);
  ASSERT_TRUE(service.ok());

  (*service)->ObserveTrueCardinality(queries[0], 50);
  ASSERT_TRUE((*service)->CommitKnowledge().ok());

  (*service)->ObserveTrueCardinality(queries[1], 60);
  ASSERT_TRUE(
      util::Faults().Configure("fss.commit", 7).ok());
  Status failed = (*service)->CommitKnowledge();
  util::Faults().Disable();
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ((*service)->stats().commit_failures, 1u);
  // In-memory knowledge kept; durable store still the first commit.
  EXPECT_EQ((*service)->knowledge_size(), 2u);
  auto reopened = EstimatorService::Open(dir, nullptr, &ds);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->knowledge_size(), 1u);
}

TEST(EstimatorServiceTest, NonFiniteModelAnswerDegrades) {
  class BrokenModel : public SamplingStubModel {
   public:
    double EstimateCardinality(const query::Query&) override {
      return -1.0;  // out of contract
    }
  };
  data::Dataset ds = MakeDataset(19);
  auto service =
      EstimatorService::Open("", std::make_unique<BrokenModel>(), &ds);
  ASSERT_TRUE(service.ok());
  engine::PostgresStyleEstimator histogram(&ds);
  auto queries = MakeWorkload(ds, 2, 10);
  EXPECT_DOUBLE_EQ((*service)->EstimateSubplan(queries[0]),
                   histogram.EstimateCardinality(queries[0]));
  EXPECT_EQ((*service)->stats().fallbacks, 1u);
}

TEST(EstimatorServiceTest, RegistryCountersEqualStatsAfterTheServiceIsGone) {
  // Every ServiceStats counter is also the `fss.<field>` registry
  // counter. The registry keeps the counts after the service is
  // destroyed: traced runs read them once their services are gone.
  auto& registry = obs::MetricsRegistry::Instance();
  auto& injection = util::Faults();
  registry.Enable();
  registry.Reset();
  data::Dataset ds = MakeDataset(20);
  std::string dir = TempStoreDir("fss_service_registry");
  auto queries = MakeWorkload(ds, 3, 11);
  ASSERT_GE(queries.size(), 3u);
  EstimatorServiceOptions options;
  options.cache_capacity = 1;
  options.max_age_epochs = 1;
  options.drift_disagreement_threshold = 0.5;
  ServiceStats stats;
  {
    auto service = EstimatorService::Open(
        dir, std::make_unique<SamplingStubModel>(), &ds, options);
    ASSERT_TRUE(service.ok());
    EstimatorService& s = **service;
    s.EstimateSubplan(queries[0]);  // model
    s.EstimateSubplan(queries[0]);  // cache
    s.EstimateSubplan(queries[1]);  // model; evicts queries[0]
    ASSERT_TRUE(injection.Configure("fss.lookup:1.0", 7).ok());
    s.EstimateSubplan(queries[2]);  // histogram fallback
    injection.Disable();
    s.ObserveTrueCardinality(queries[1], 5000);  // far from the cached answer
    s.EstimateSubplan(queries[1]);               // knowledge
    ASSERT_TRUE(s.CommitKnowledge().ok());
    ASSERT_TRUE(injection.Configure("fss.commit:1.0", 7).ok());
    EXPECT_FALSE(s.CommitKnowledge().ok());
    injection.Disable();
    EXPECT_EQ(s.NotifyEpoch(3), 1u);  // ages out the epoch-0 observation
    stats = s.stats();
  }
  registry.Disable();

  EXPECT_EQ(stats.lookups, 5u);
  EXPECT_EQ(stats.knowledge_hits, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.model_estimates, 2u);
  EXPECT_EQ(stats.fallbacks, 1u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.feedback, 1u);
  EXPECT_EQ(stats.commits, 1u);
  EXPECT_EQ(stats.commit_failures, 1u);
  EXPECT_EQ(stats.age_evictions, 1u);
  EXPECT_EQ(stats.drift_disagreements, 1u);
  const std::pair<const char*, uint64_t> fields[] = {
      {"fss.lookups", stats.lookups},
      {"fss.knowledge_hits", stats.knowledge_hits},
      {"fss.cache_hits", stats.cache_hits},
      {"fss.model_estimates", stats.model_estimates},
      {"fss.fallbacks", stats.fallbacks},
      {"fss.evictions", stats.evictions},
      {"fss.collisions", stats.collisions},
      {"fss.feedback", stats.feedback},
      {"fss.commits", stats.commits},
      {"fss.commit_failures", stats.commit_failures},
      {"fss.age_evictions", stats.age_evictions},
      {"fss.drift_disagreements", stats.drift_disagreements},
  };
  for (const auto& [name, value] : fields) {
    EXPECT_EQ(registry.GetCounter(name)->value(), static_cast<int64_t>(value))
        << name;
  }
}

}  // namespace
}  // namespace autoce::fss

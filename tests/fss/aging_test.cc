#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "data/generator.h"
#include "fss/estimator_service.h"
#include "fss/knowledge_store.h"
#include "query/query.h"
#include "util/rng.h"

namespace autoce::fss {
namespace {

query::Query QueryWithLiteral(int32_t lo) {
  query::Query q;
  q.tables = {0, 1};
  q.joins.push_back({1, 0, 0, 0});
  q.predicates.push_back({0, 1, query::PredOp::kRange, lo, lo + 10});
  return q;
}

TEST(KnowledgeAgingTest, ObserveStampsTheStoreEpoch) {
  KnowledgeStore store;
  EXPECT_EQ(store.epoch(), 0u);
  store.Observe(MakeFssKey(QueryWithLiteral(1)), 10.0);
  store.set_epoch(5);
  store.Observe(MakeFssKey(QueryWithLiteral(2)), 20.0);
  // Re-observation refreshes the stamp of an existing entry.
  store.Observe(MakeFssKey(QueryWithLiteral(1)), 12.0);

  for (const auto& [fss_hash, entry] : store.SortedEntries()) {
    (void)fss_hash;
    EXPECT_EQ(entry.epoch, 5u);
  }
}

TEST(KnowledgeAgingTest, SetEpochIsMonotonic) {
  KnowledgeStore store;
  store.set_epoch(7);
  store.set_epoch(3);  // ignored: epochs never rewind
  EXPECT_EQ(store.epoch(), 7u);
}

TEST(KnowledgeAgingTest, EvictOlderThanDropsOnlyStaleEntries) {
  KnowledgeStore store;
  store.Observe(MakeFssKey(QueryWithLiteral(1)), 10.0);  // epoch 0
  store.set_epoch(3);
  store.Observe(MakeFssKey(QueryWithLiteral(2)), 20.0);  // epoch 3
  ASSERT_EQ(store.size(), 2u);

  EXPECT_EQ(store.EvictOlderThan(1), 1u);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.aged_out(), 1u);
  EXPECT_FALSE(store.Lookup(MakeFssKey(QueryWithLiteral(1))).has_value());
  EXPECT_TRUE(store.Lookup(MakeFssKey(QueryWithLiteral(2))).has_value());

  // Evicting everything empties the groups too.
  EXPECT_EQ(store.EvictOlderThan(10), 1u);
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.num_subspaces(), 0u);
  EXPECT_EQ(store.aged_out(), 2u);
}

TEST(KnowledgeAgingTest, SerializationRoundTripsEpochState) {
  KnowledgeStore store;
  store.Observe(MakeFssKey(QueryWithLiteral(1)), 10.0);
  store.set_epoch(4);
  store.Observe(MakeFssKey(QueryWithLiteral(2)), 20.0);
  store.EvictOlderThan(2);  // ages out the epoch-0 entry

  auto restored = KnowledgeStore::Deserialize(store.Serialize());
  ASSERT_TRUE(restored.ok()) << restored.status().message();
  EXPECT_EQ(restored->epoch(), 4u);
  EXPECT_EQ(restored->aged_out(), 1u);
  EXPECT_EQ(restored->size(), store.size());
  const auto entries = restored->SortedEntries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].second.epoch, 4u);
  // Canonical serialization: re-serializing the restored store is
  // byte-identical.
  EXPECT_EQ(restored->Serialize(), store.Serialize());
}

data::Dataset MakeDataset(uint64_t seed) {
  Rng rng(seed);
  data::DatasetGenParams p;
  p.min_tables = p.max_tables = 2;
  p.min_rows = p.max_rows = 120;
  p.min_columns = p.max_columns = 2;
  return data::GenerateDataset(p, &rng);
}

/// Constant-answer model: its estimates land in the cache tier (the
/// histogram fallback is deliberately never cached), which is what the
/// NotifyEpoch invalidation test needs to observe.
class ConstModel : public ce::CardinalityEstimator {
 public:
  ce::ModelId id() const override { return ce::ModelId::kLwNn; }
  bool is_data_driven() const override { return false; }
  Status Train(const ce::TrainContext&) override { return Status::OK(); }
  double EstimateCardinality(const query::Query&) override { return 64.0; }
  void SeedInference(uint64_t) override {}
};

TEST(EstimatorServiceAgingTest, NotifyEpochAgesKnowledgeAndClearsCache) {
  const data::Dataset ds = MakeDataset(11);
  EstimatorServiceOptions opts;
  opts.max_age_epochs = 2;
  auto service =
      EstimatorService::Open("", std::make_unique<ConstModel>(), &ds, opts);
  ASSERT_TRUE(service.ok());

  query::Query q;
  q.tables = {0};
  q.predicates.push_back({0, 1, query::PredOp::kRange, 1, 50});
  (*service)->ObserveTrueCardinality(q, 40);
  EXPECT_EQ((*service)->knowledge_size(), 1u);
  // Other literals, so no knowledge: only the estimate cache answers it.
  query::Query cached = q;
  cached.predicates[0].hi = 60;
  (*service)->EstimateSubplan(cached);  // populates the estimate cache
  (*service)->EstimateSubplan(cached);
  EXPECT_EQ((*service)->stats().cache_hits, 1u);

  // Within the window: nothing ages out, but the cache is invalidated
  // because the data under the cached estimates has moved.
  EXPECT_EQ((*service)->NotifyEpoch(2), 0u);
  (*service)->EstimateSubplan(cached);
  EXPECT_EQ((*service)->stats().cache_hits, 1u);
  EXPECT_EQ((*service)->knowledge_size(), 1u);

  // Past the window: the stale (epoch-0) observation is evicted.
  EXPECT_EQ((*service)->NotifyEpoch(5), 1u);
  EXPECT_EQ((*service)->knowledge_size(), 0u);

  const auto stats = (*service)->stats();
  EXPECT_EQ(stats.age_evictions, 1u);
  EXPECT_EQ(stats.epoch, 5u);
}

TEST(EstimatorServiceAgingTest, DisagreementHookFiresPastThreshold) {
  const data::Dataset ds = MakeDataset(12);
  EstimatorServiceOptions opts;
  opts.drift_disagreement_threshold = 0.5;
  auto service = EstimatorService::Open("", nullptr, &ds, opts);
  ASSERT_TRUE(service.ok());

  int fired = 0;
  double last_err = 0.0;
  (*service)->set_disagreement_hook(
      [&](const query::Query&, double err) {
        ++fired;
        last_err = err;
      });

  query::Query q;
  q.tables = {0};
  q.predicates.push_back({0, 1, query::PredOp::kRange, 1, 50});

  // First observation has no prior to disagree with.
  (*service)->ObserveTrueCardinality(q, 10);
  EXPECT_EQ(fired, 0);

  // Prior knowledge says ~10; the truth says 5000 — |log ratio| >> 0.5.
  (*service)->ObserveTrueCardinality(q, 5000);
  EXPECT_EQ(fired, 1);
  EXPECT_GT(last_err, 0.5);

  // Agreeing feedback stays under the threshold.
  const double mean_now = 2505.0;  // running mean of {10, 5000}
  (*service)->ObserveTrueCardinality(
      q, static_cast<int64_t>(mean_now));
  EXPECT_EQ(fired, 1);

  EXPECT_EQ((*service)->stats().drift_disagreements, 1u);
}

}  // namespace
}  // namespace autoce::fss

#include <gtest/gtest.h>

#include <cmath>

#include "ce/estimator.h"
#include "ce/metrics.h"
#include "data/generator.h"
#include "engine/executor.h"
#include "query/query.h"
#include "util/timer.h"

namespace autoce::ce {
namespace {

struct Fixture {
  data::Dataset dataset;
  std::vector<query::Query> train_queries;
  std::vector<double> train_cards;
  std::vector<query::Query> test_queries;
  std::vector<double> test_cards;
};

Fixture MakeFixture(uint64_t seed, int tables, int64_t rows,
                    int num_train = 120, int num_test = 60) {
  Fixture f;
  Rng rng(seed);
  data::DatasetGenParams p;
  p.min_tables = p.max_tables = tables;
  p.min_rows = rows;
  p.max_rows = rows;
  p.min_columns = 2;
  p.max_columns = 3;
  f.dataset = data::GenerateDataset(p, &rng);

  query::WorkloadParams wp;
  wp.num_queries = num_train + num_test;
  wp.max_tables = tables;
  auto all = query::GenerateWorkload(f.dataset, wp, &rng);
  auto cards = engine::TrueCardinalities(f.dataset, all);
  f.train_queries.assign(all.begin(), all.begin() + num_train);
  f.train_cards.assign(cards.begin(), cards.begin() + num_train);
  f.test_queries.assign(all.begin() + num_train, all.end());
  f.test_cards.assign(cards.begin() + num_train, cards.end());
  return f;
}

double MeanQError(CardinalityEstimator* model, const Fixture& f) {
  std::vector<double> qe;
  for (size_t i = 0; i < f.test_queries.size(); ++i) {
    qe.push_back(QError(model->EstimateCardinality(f.test_queries[i]),
                        f.test_cards[i]));
  }
  return SummarizeQErrors(qe).mean;
}

TEST(ModelRegistryTest, NamesAndIds) {
  auto all = AllModels();
  EXPECT_EQ(all.size(), static_cast<size_t>(kNumModels));
  EXPECT_STREQ(ModelName(ModelId::kMscn), "MSCN");
  EXPECT_STREQ(ModelName(ModelId::kUae), "UAE");
  for (ModelId id : all) {
    auto model = CreateModel(id, ModelTrainingScale::Fast());
    ASSERT_NE(model, nullptr);
    EXPECT_EQ(model->id(), id);
  }
}

TEST(ModelRegistryTest, DataDrivenFlags) {
  auto scale = ModelTrainingScale::Fast();
  EXPECT_FALSE(CreateModel(ModelId::kMscn, scale)->is_data_driven());
  EXPECT_FALSE(CreateModel(ModelId::kLwNn, scale)->is_data_driven());
  EXPECT_FALSE(CreateModel(ModelId::kLwXgb, scale)->is_data_driven());
  EXPECT_TRUE(CreateModel(ModelId::kDeepDb, scale)->is_data_driven());
  EXPECT_TRUE(CreateModel(ModelId::kBayesCard, scale)->is_data_driven());
  EXPECT_TRUE(CreateModel(ModelId::kNeuroCard, scale)->is_data_driven());
  EXPECT_TRUE(CreateModel(ModelId::kUae, scale)->is_data_driven());
}

TEST(QErrorTest, Basics) {
  EXPECT_DOUBLE_EQ(QError(10, 10), 1.0);
  EXPECT_DOUBLE_EQ(QError(100, 10), 10.0);
  EXPECT_DOUBLE_EQ(QError(10, 100), 10.0);
  EXPECT_DOUBLE_EQ(QError(0, 0), 1.0);  // clamped
  auto s = SummarizeQErrors({1, 2, 3, 4});
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
}

class EveryModelTest : public ::testing::TestWithParam<ModelId> {};

TEST_P(EveryModelTest, TrainsAndEstimatesSingleTable) {
  Fixture f = MakeFixture(100 + static_cast<uint64_t>(GetParam()), 1, 1500);
  auto model = CreateModel(GetParam(), ModelTrainingScale::Fast());
  TrainContext ctx;
  ctx.dataset = &f.dataset;
  ctx.train_queries = &f.train_queries;
  ctx.train_cards = &f.train_cards;
  ASSERT_TRUE(model->Train(ctx).ok());
  for (const auto& q : f.test_queries) {
    double est = model->EstimateCardinality(q);
    EXPECT_TRUE(std::isfinite(est));
    EXPECT_GE(est, 0.0);
  }
  // Every learned model must beat wild guessing: mean Q-error under 50
  // on this easy single-table workload.
  EXPECT_LT(MeanQError(model.get(), f), 50.0) << model->name();
}

TEST_P(EveryModelTest, TrainsAndEstimatesMultiTable) {
  Fixture f = MakeFixture(200 + static_cast<uint64_t>(GetParam()), 3, 800);
  auto model = CreateModel(GetParam(), ModelTrainingScale::Fast());
  TrainContext ctx;
  ctx.dataset = &f.dataset;
  ctx.train_queries = &f.train_queries;
  ctx.train_cards = &f.train_cards;
  ASSERT_TRUE(model->Train(ctx).ok()) << model->name();
  for (const auto& q : f.test_queries) {
    double est = model->EstimateCardinality(q);
    EXPECT_TRUE(std::isfinite(est)) << model->name();
    EXPECT_GE(est, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSeven, EveryModelTest,
    ::testing::ValuesIn(AllModels()),
    [](const ::testing::TestParamInfo<ModelId>& info) {
      std::string n = ModelName(info.param);
      n.erase(std::remove(n.begin(), n.end(), '-'), n.end());
      return n;
    });

TEST(QueryDrivenModelsTest, RequireWorkload) {
  Fixture f = MakeFixture(300, 1, 300, 10, 5);
  for (ModelId id : {ModelId::kMscn, ModelId::kLwNn, ModelId::kLwXgb}) {
    auto model = CreateModel(id, ModelTrainingScale::Fast());
    TrainContext ctx;
    ctx.dataset = &f.dataset;  // no queries
    EXPECT_FALSE(model->Train(ctx).ok()) << model->name();
  }
}

TEST(DataDrivenModelsTest, TrainWithoutWorkload) {
  Fixture f = MakeFixture(301, 1, 500, 10, 5);
  for (ModelId id :
       {ModelId::kDeepDb, ModelId::kBayesCard, ModelId::kNeuroCard}) {
    auto model = CreateModel(id, ModelTrainingScale::Fast());
    TrainContext ctx;
    ctx.dataset = &f.dataset;  // data only
    EXPECT_TRUE(model->Train(ctx).ok()) << model->name();
  }
}

TEST(ModelAccuracyTest, DataDrivenBeatIndependenceOnCorrelatedData) {
  // Build a strongly correlated 2-column table; the product of marginals
  // (independence) is badly wrong on conjunctive predicates while
  // SPN/BN/AR models capture the correlation.
  Rng rng(400);
  data::SingleTableParams tp;
  tp.num_columns = 2;
  tp.num_rows = 3000;
  tp.min_domain = tp.max_domain = 100;
  tp.max_skew = 0.3;
  tp.max_correlation = 1.0;
  data::Dataset ds;
  // Force a highly correlated pair by rebuilding column 1 from column 0.
  data::Table t = data::GenerateSingleTable(tp, &rng);
  for (size_t i = 0; i < t.columns[1].values.size(); ++i) {
    if (rng.Bernoulli(0.9)) t.columns[1].values[i] = t.columns[0].values[i];
  }
  ds.AddTable(std::move(t));

  query::WorkloadParams wp;
  wp.num_queries = 120;
  wp.min_predicates_per_table = 2;
  auto qs = query::GenerateWorkload(ds, wp, &rng);
  auto cards = engine::TrueCardinalities(ds, qs);

  TrainContext ctx;
  ctx.dataset = &ds;
  for (ModelId id : {ModelId::kDeepDb, ModelId::kBayesCard}) {
    auto model = CreateModel(id, ModelTrainingScale::Fast());
    ASSERT_TRUE(model->Train(ctx).ok());
    std::vector<double> model_qe, indep_qe;
    for (size_t i = 0; i < qs.size(); ++i) {
      model_qe.push_back(
          QError(model->EstimateCardinality(qs[i]), cards[i]));
      // Independence estimate: rows * product of single-pred sels.
      double rows = static_cast<double>(ds.table(0).NumRows());
      double sel = 1.0;
      for (const auto& p : qs[i].predicates) {
        query::Query single;
        single.tables = {0};
        single.predicates = {p};
        auto r = engine::TrueCardinality(ds, single);
        sel *= static_cast<double>(*r) / rows;
      }
      indep_qe.push_back(QError(rows * sel, cards[i]));
    }
    EXPECT_LT(SummarizeQErrors(model_qe).mean,
              SummarizeQErrors(indep_qe).mean)
        << ModelName(id);
  }
}

TEST(ModelLatencyTest, LwNnFasterThanNeuroCard) {
  Fixture f = MakeFixture(500, 1, 1000);
  TrainContext ctx;
  ctx.dataset = &f.dataset;
  ctx.train_queries = &f.train_queries;
  ctx.train_cards = &f.train_cards;

  auto lwnn = CreateModel(ModelId::kLwNn, ModelTrainingScale::Fast());
  auto neuro = CreateModel(ModelId::kNeuroCard, ModelTrainingScale::Fast());
  ASSERT_TRUE(lwnn->Train(ctx).ok());
  ASSERT_TRUE(neuro->Train(ctx).ok());

  auto time_model = [&](CardinalityEstimator* m) {
    Timer timer;
    for (const auto& q : f.test_queries) m->EstimateCardinality(q);
    return timer.ElapsedSeconds();
  };
  // Warm up then measure.
  time_model(lwnn.get());
  double t_lwnn = time_model(lwnn.get());
  double t_neuro = time_model(neuro.get());
  // NeuroCard runs progressive sampling: it must be at least 3x slower
  // than the single-MLP LW-NN (in practice it is far slower).
  EXPECT_GT(t_neuro, 3.0 * t_lwnn);
}

}  // namespace
}  // namespace autoce::ce

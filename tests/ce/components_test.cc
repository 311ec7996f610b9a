#include <gtest/gtest.h>

#include <cmath>

#include "ce/bayescard.h"
#include "ce/extra_estimators.h"
#include "ce/join_stats.h"
#include "ce/spn.h"
#include "ce/testbed.h"
#include "data/generator.h"
#include "engine/executor.h"

namespace autoce::ce {
namespace {

TEST(SpnTest, UnconstrainedProbabilityIsOne) {
  Rng rng(1);
  data::SingleTableParams tp;
  tp.num_columns = 3;
  tp.num_rows = 1000;
  data::Table t = data::GenerateSingleTable(tp, &rng);
  SumProductNetwork spn;
  spn.Fit(t, {0, 1, 2}, {}, &rng);
  EXPECT_DOUBLE_EQ(spn.Probability({}), 1.0);
}

TEST(SpnTest, SingleColumnRangeMatchesData) {
  Rng rng(2);
  data::SingleTableParams tp;
  tp.num_columns = 2;
  tp.num_rows = 4000;
  tp.min_domain = tp.max_domain = 200;
  data::Table t = data::GenerateSingleTable(tp, &rng);
  SumProductNetwork spn;
  spn.Fit(t, {0, 1}, {}, &rng);
  query::Predicate p{0, 0, query::PredOp::kLe, 1, 100};
  double truth = static_cast<double>(engine::SingleTableCardinality(t, {p})) /
                 static_cast<double>(t.NumRows());
  double est = spn.Probability({p});
  EXPECT_NEAR(est, truth, 0.08);
}

TEST(SpnTest, BuildsSumAndOrProductNodes) {
  Rng rng(3);
  data::SingleTableParams tp;
  tp.num_columns = 4;
  tp.num_rows = 3000;
  tp.max_correlation = 0.2;  // mostly independent -> product splits likely
  data::Table t = data::GenerateSingleTable(tp, &rng);
  SumProductNetwork spn;
  SumProductNetwork::Params params;
  params.min_slice = 100;
  spn.Fit(t, {0, 1, 2, 3}, params, &rng);
  // Leaves have no children, so more than one node means the root is a
  // sum or product node.
  EXPECT_GT(spn.NumNodes(), 1u);
}

TEST(BayesNetTest, TreeStructure) {
  Rng rng(4);
  data::SingleTableParams tp;
  tp.num_columns = 4;
  tp.num_rows = 1500;
  data::Table t = data::GenerateSingleTable(tp, &rng);
  BayesNet bn;
  bn.Fit(t, {0, 1, 2, 3}, {});
  EXPECT_EQ(bn.NumNodes(), 4u);
  // Exactly one root; every other node has a parent.
  int roots = 0;
  for (size_t i = 0; i < bn.NumNodes(); ++i) {
    if (bn.ParentOf(i) < 0) ++roots;
  }
  EXPECT_EQ(roots, 1);
}

TEST(BayesNetTest, MarginalRangeProbability) {
  Rng rng(5);
  data::SingleTableParams tp;
  tp.num_columns = 2;
  tp.num_rows = 4000;
  tp.min_domain = tp.max_domain = 96;
  data::Table t = data::GenerateSingleTable(tp, &rng);
  BayesNet bn;
  bn.Fit(t, {0, 1}, {});
  query::Predicate p{0, 1, query::PredOp::kLe, 1, 48};
  double truth = static_cast<double>(engine::SingleTableCardinality(t, {p})) /
                 static_cast<double>(t.NumRows());
  EXPECT_NEAR(bn.Probability({p}), truth, 0.08);
}

TEST(BayesNetTest, CapturesStrongCorrelation) {
  // y == x always; P(x <= m AND y <= m) = P(x <= m), far from the product.
  data::Table t;
  t.name = "c";
  data::Column x, y;
  x.name = "x";
  y.name = "y";
  x.domain_size = y.domain_size = 64;
  Rng rng(6);
  for (int i = 0; i < 4000; ++i) {
    int32_t v = static_cast<int32_t>(rng.UniformInt(1, 64));
    x.values.push_back(v);
    y.values.push_back(v);
  }
  t.columns = {x, y};
  BayesNet bn;
  bn.Fit(t, {0, 1}, {});
  query::Predicate px{0, 0, query::PredOp::kLe, 1, 32};
  query::Predicate py{0, 1, query::PredOp::kLe, 1, 32};
  double joint = bn.Probability({px, py});
  EXPECT_NEAR(joint, 0.5, 0.08);       // true P = 0.5
  EXPECT_GT(joint, 0.34);              // clearly above independence (0.25)
}

TEST(JoinCardModelTest, FanoutMatchesExactJoinSize) {
  Rng rng(7);
  data::DatasetGenParams p;
  p.min_tables = p.max_tables = 2;
  p.min_rows = 500;
  p.max_rows = 1000;
  data::Dataset ds = data::GenerateDataset(p, &rng);
  JoinCardModel jm;
  jm.Build(ds);
  query::Query q;
  q.tables = {0, 1};
  q.joins = ds.foreign_keys();
  auto truth = engine::TrueCardinality(ds, q);
  ASSERT_TRUE(truth.ok());
  // For a single PK-FK edge the fan-out decomposition is exact.
  EXPECT_NEAR(jm.UnfilteredJoinSize(q), static_cast<double>(*truth),
              static_cast<double>(*truth) * 0.01 + 1.0);
}

TEST(JoinCardModelTest, ThreeTableChainApproximation) {
  Rng rng(8);
  data::DatasetGenParams p;
  p.min_tables = p.max_tables = 3;
  p.min_rows = 300;
  p.max_rows = 600;
  data::Dataset ds = data::GenerateDataset(p, &rng);
  JoinCardModel jm;
  jm.Build(ds);
  query::Query q;
  q.tables = {0, 1, 2};
  q.joins = ds.foreign_keys();
  auto truth = engine::TrueCardinality(ds, q);
  ASSERT_TRUE(truth.ok());
  double est = jm.UnfilteredJoinSize(q);
  double t = std::max(1.0, static_cast<double>(*truth));
  double qerr = std::max((est + 1) / t, t / (est + 1));
  EXPECT_LT(qerr, 5.0);  // multiplicative approximation stays close
}

TEST(EnsembleTest, WeightsFavorAccurateMembers) {
  Rng rng(9);
  data::DatasetGenParams p;
  p.min_tables = p.max_tables = 1;
  p.min_rows = p.max_rows = 1200;
  data::Dataset ds = data::GenerateDataset(p, &rng);
  query::WorkloadParams wp;
  wp.num_queries = 100;
  auto qs = query::GenerateWorkload(ds, wp, &rng);
  auto cards = engine::TrueCardinalities(ds, qs);

  TrainContext ctx;
  ctx.dataset = &ds;
  ctx.train_queries = &qs;
  ctx.train_cards = &cards;
  auto good = CreateModel(ModelId::kBayesCard, ModelTrainingScale::Fast());
  auto bad = CreateModel(ModelId::kLwXgb, ModelTrainingScale::Fast());
  ASSERT_TRUE(good->Train(ctx).ok());
  {
    // Cripple the "bad" member by training it on shuffled labels.
    auto shuffled = cards;
    rng.Shuffle(&shuffled);
    TrainContext bad_ctx = ctx;
    bad_ctx.train_cards = &shuffled;
    ASSERT_TRUE(bad->Train(bad_ctx).ok());
  }
  EnsembleEstimator ens({good.get(), bad.get()});
  ASSERT_TRUE(ens.Fit(qs, cards).ok());
  EXPECT_GT(ens.weights()[0], ens.weights()[1]);
  EXPECT_NEAR(ens.weights()[0] + ens.weights()[1], 1.0, 1e-9);
}

TEST(PostgresAdapterTest, WrapsHistogramEstimator) {
  Rng rng(10);
  data::DatasetGenParams p;
  p.min_tables = p.max_tables = 1;
  p.min_rows = p.max_rows = 800;
  data::Dataset ds = data::GenerateDataset(p, &rng);
  PostgresEstimatorAdapter pg;
  TrainContext ctx;
  ctx.dataset = &ds;
  ASSERT_TRUE(pg.Train(ctx).ok());
  query::Query q;
  q.tables = {0};
  EXPECT_NEAR(pg.EstimateCardinality(q), 800.0, 1.0);
}

TEST(TestbedTest, LabelsAllSevenModels) {
  Rng rng(11);
  data::DatasetGenParams p;
  p.min_tables = p.max_tables = 2;
  p.min_rows = 400;
  p.max_rows = 600;
  data::Dataset ds = data::GenerateDataset(p, &rng);
  TestbedConfig cfg;
  cfg.num_train_queries = 60;
  cfg.num_test_queries = 30;
  auto result = RunTestbed(ds, cfg);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->models.size(), static_cast<size_t>(kNumModels));
  for (const auto& perf : result->models) {
    EXPECT_TRUE(perf.trained_ok) << ModelName(perf.id);
    EXPECT_GE(perf.qerror.mean, 1.0);
    EXPECT_GT(perf.latency_mean_ms, 0.0);
  }
  EXPECT_EQ(result->test_queries.size(), 30u);
  EXPECT_EQ(result->test_cards.size(), 30u);
}

TEST(TestbedTest, ModelSubsetRespected) {
  Rng rng(12);
  data::DatasetGenParams p;
  p.min_tables = p.max_tables = 1;
  p.min_rows = p.max_rows = 300;
  data::Dataset ds = data::GenerateDataset(p, &rng);
  TestbedConfig cfg;
  cfg.num_train_queries = 30;
  cfg.num_test_queries = 15;
  cfg.models = {ModelId::kMscn, ModelId::kLwNn, ModelId::kLwXgb};
  auto result = RunTestbed(ds, cfg);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->models.size(), 3u);
}

}  // namespace
}  // namespace autoce::ce

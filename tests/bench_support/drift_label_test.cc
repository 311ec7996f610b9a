#include "bench/support/drift_label.h"

#include <gtest/gtest.h>

#include <array>

#include "ce/estimator.h"
#include "data/generator.h"
#include "featgraph/featgraph.h"
#include "util/rng.h"

namespace autoce::dyn {
namespace {

data::Dataset MakeDataset(uint64_t seed) {
  Rng rng(seed);
  data::DatasetGenParams p;
  p.min_tables = p.max_tables = 2;
  p.min_rows = 120;
  p.max_rows = 200;
  p.min_columns = p.max_columns = 2;
  p.min_domain = 10;
  p.max_domain = 80;
  return data::GenerateDataset(p, &rng);
}

DriftLabelConfig TinyConfig() {
  DriftLabelConfig cfg;
  cfg.testbed.num_train_queries = 24;
  cfg.testbed.num_test_queries = 12;
  cfg.testbed.scale = ce::ModelTrainingScale::Fast();
  cfg.testbed.seed = 4242;
  // Two cheap models keep the testbed pass fast; the label machinery is
  // model-agnostic.
  cfg.testbed.models = {ce::ModelId::kLwNn, ce::ModelId::kLwXgb};
  cfg.epochs = 2;
  return cfg;
}

bool SameLabel(const advisor::DatasetLabel& a, const advisor::DatasetLabel& b) {
  return a.accuracy_score == b.accuracy_score &&
         a.efficiency_score == b.efficiency_score &&
         a.qerror_mean == b.qerror_mean && a.latency_ms == b.latency_ms &&
         a.failed == b.failed;
}

TEST(DriftLabelTest, ZeroIntensityPostEqualsSnapshot) {
  const data::Dataset ds = MakeDataset(5);
  MutationConfig drift;
  drift.intensity = 0.0;
  auto label = MakeDriftLabel(ds, drift, TinyConfig());
  ASSERT_TRUE(label.ok()) << label.status().message();
  EXPECT_TRUE(SameLabel(label->snapshot, label->post_update));
}

TEST(DriftLabelTest, DeterministicAndCallerDatasetUntouched) {
  const data::Dataset ds = MakeDataset(6);
  const uint64_t fp_before = DatasetFingerprint(ds);
  MutationConfig drift;
  drift.intensity = 2.0;
  auto a = MakeDriftLabel(ds, drift, TinyConfig());
  auto b = MakeDriftLabel(ds, drift, TinyConfig());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(SameLabel(a->snapshot, b->snapshot));
  EXPECT_TRUE(SameLabel(a->post_update, b->post_update));
  EXPECT_EQ(DatasetFingerprint(ds), fp_before);
  EXPECT_EQ(ds.epoch(), 0u);
}

TEST(DriftLabelTest, HeavyDriftMovesTheQErrors) {
  const data::Dataset ds = MakeDataset(6);
  MutationConfig drift;
  drift.intensity = 3.0;
  DriftLabelConfig cfg = TinyConfig();
  cfg.epochs = 4;
  auto label = MakeDriftLabel(ds, drift, cfg);
  ASSERT_TRUE(label.ok()) << label.status().message();
  // Reference latency is a pure function of the model id, so the
  // substitution must survive the post-update pass untouched.
  EXPECT_EQ(label->snapshot.latency_ms, label->post_update.latency_ms);
  EXPECT_NE(label->snapshot.qerror_mean, label->post_update.qerror_mean)
      << "4 epochs of heavy drift should change at least one model's "
         "measured q-error";
}

TEST(DriftLabelTest, BlendedInterpolatesBetweenVariants) {
  const data::Dataset ds = MakeDataset(7);
  MutationConfig drift;
  drift.intensity = 2.0;
  auto label = MakeDriftLabel(ds, drift, TinyConfig());
  ASSERT_TRUE(label.ok());
  EXPECT_TRUE(SameLabel(label->Blended(0.0), label->snapshot));
  EXPECT_TRUE(SameLabel(label->Blended(1.0), label->post_update));
}

}  // namespace
}  // namespace autoce::dyn

#include <gtest/gtest.h>

#include <cctype>
#include <string>

#include "ce/testbed.h"
#include "data/generator.h"
#include "obs/metrics.h"
#include "util/fault.h"

namespace autoce::ce {
namespace {

TEST(QErrorMetricTest, SelectAggregate) {
  QErrorSummary s;
  s.mean = 2.0;
  s.p50 = 1.5;
  s.p95 = 9.0;
  s.p99 = 20.0;
  EXPECT_DOUBLE_EQ(SelectQErrorAggregate(s, QErrorMetric::kMean), 2.0);
  EXPECT_DOUBLE_EQ(SelectQErrorAggregate(s, QErrorMetric::kP50), 1.5);
  EXPECT_DOUBLE_EQ(SelectQErrorAggregate(s, QErrorMetric::kP95), 9.0);
  EXPECT_DOUBLE_EQ(SelectQErrorAggregate(s, QErrorMetric::kP99), 20.0);
}

TEST(QErrorMetricTest, TestbedHonorsPercentileChoice) {
  Rng rng(3);
  data::DatasetGenParams p;
  p.min_tables = p.max_tables = 1;
  p.min_rows = p.max_rows = 600;
  data::Dataset ds = data::GenerateDataset(p, &rng);

  TestbedConfig mean_cfg;
  mean_cfg.num_train_queries = 40;
  mean_cfg.num_test_queries = 30;
  mean_cfg.qerror_metric = QErrorMetric::kMean;
  TestbedConfig p95_cfg = mean_cfg;
  p95_cfg.qerror_metric = QErrorMetric::kP95;

  auto mean_result = RunTestbed(ds, mean_cfg);
  auto p95_result = RunTestbed(ds, p95_cfg);
  ASSERT_TRUE(mean_result.ok() && p95_result.ok());
  // Same training (seeds identical); the stored aggregate differs and the
  // p95 aggregate is >= the p50 and usually > the mean slot of the
  // mean-config run for at least one model.
  bool any_larger = false;
  for (size_t m = 0; m < mean_result->models.size(); ++m) {
    EXPECT_GE(p95_result->models[m].qerror.mean + 1e-9,
              p95_result->models[m].qerror.p50);
    if (p95_result->models[m].qerror.mean >
        mean_result->models[m].qerror.mean) {
      any_larger = true;
    }
  }
  EXPECT_TRUE(any_larger);
}

TEST(QErrorMetricTest, DeterministicLabelsWithEmulatedLatency) {
  Rng rng(5);
  data::DatasetGenParams p;
  p.min_tables = p.max_tables = 2;
  p.min_rows = p.max_rows = 400;
  data::Dataset ds = data::GenerateDataset(p, &rng);
  TestbedConfig cfg;
  cfg.num_train_queries = 30;
  cfg.num_test_queries = 20;
  auto a = RunTestbed(ds, cfg);
  auto b = RunTestbed(ds, cfg);
  ASSERT_TRUE(a.ok() && b.ok());
  for (size_t m = 0; m < a->models.size(); ++m) {
    // Q-errors are seeded-deterministic; emulated latencies are the
    // reference constants — labels must match bit for bit.
    EXPECT_DOUBLE_EQ(a->models[m].qerror.mean, b->models[m].qerror.mean);
    EXPECT_DOUBLE_EQ(a->models[m].latency_mean_ms,
                     b->models[m].latency_mean_ms);
  }
}

TEST(TestbedTelemetryTest, PerModelTimingsFollowTheRegistry) {
  // Cells run on worker threads, which record histograms but open no
  // spans: one training sample per attempt and one inference sample per
  // trained cell, keyed by perfbench's model names, only while metrics
  // are on, and recording changes no label. Injected training faults
  // make some cells retry.
  Rng rng(5);
  data::DatasetGenParams p;
  p.min_tables = p.max_tables = 2;
  p.min_rows = p.max_rows = 300;
  data::Dataset ds = data::GenerateDataset(p, &rng);
  TestbedConfig cfg;
  cfg.num_train_queries = 30;
  cfg.num_test_queries = 20;

  auto& reg = obs::MetricsRegistry::Instance();
  auto count = [&](const char* name, ModelId id) {
    std::string key = ModelName(id);
    for (char& c : key) {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    return reg.GetHistogram(name, {{"model", key}})->Snapshot().count;
  };
  ASSERT_TRUE(util::FaultInjection::Instance()
                  .Configure("ce.testbed.train:0.5", 11)
                  .ok());
  reg.Reset();
  reg.Disable();
  auto off = RunTestbed(ds, cfg);
  for (ModelId id : AllModels()) {
    EXPECT_EQ(count("testbed.train_ms", id), 0);
    EXPECT_EQ(count("testbed.infer_ms", id), 0);
  }
  reg.Enable();
  auto on = RunTestbed(ds, cfg);
  reg.Disable();
  util::FaultInjection::Instance().Disable();
  ASSERT_TRUE(off.ok() && on.ok());

  int64_t train_samples = 0;
  for (const ModelPerformance& m : on->models) {
    int64_t trains = count("testbed.train_ms", m.id);
    EXPECT_GE(trains, 1) << ModelName(m.id);
    EXPECT_LE(trains, kTestbedMaxAttempts) << ModelName(m.id);
    EXPECT_EQ(count("testbed.infer_ms", m.id), m.trained_ok ? 1 : 0)
        << ModelName(m.id);
    train_samples += trains;
  }
  const int64_t retries = reg.GetCounter("testbed.cell_retries")->value();
  EXPECT_GT(retries, 0);
  EXPECT_EQ(train_samples, reg.GetCounter("testbed.cells")->value() + retries);
  reg.Reset();

  ASSERT_EQ(off->models.size(), on->models.size());
  for (size_t m = 0; m < on->models.size(); ++m) {
    EXPECT_EQ(off->models[m].trained_ok, on->models[m].trained_ok);
    EXPECT_EQ(off->models[m].qerror.mean, on->models[m].qerror.mean);
    EXPECT_EQ(off->models[m].qerror.p99, on->models[m].qerror.p99);
    EXPECT_EQ(off->models[m].latency_mean_ms, on->models[m].latency_mean_ms);
  }
}

}  // namespace
}  // namespace autoce::ce

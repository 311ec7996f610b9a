#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/parallel.h"

namespace autoce::obs {
namespace {

// The registry is process-global; every test picks instrument names
// under a test-unique prefix and sets the enable flag it needs, so the
// suite passes both under ctest (one process per test) and when the
// binary runs all tests in one process.

TEST(MetricsTest, ZeroCostOffRecordsNothing) {
  auto& registry = MetricsRegistry::Instance();
  registry.Disable();
  Counter* c = registry.GetCounter("mt.off.counter");
  Gauge* g = registry.GetGauge("mt.off.gauge");
  Histogram* h = registry.GetHistogram("mt.off.hist");
  c->Add(5);
  g->Set(3.25);
  h->Observe(1.0);
  EXPECT_EQ(c->value(), 0);
  EXPECT_DOUBLE_EQ(g->value(), 0.0);
  EXPECT_EQ(h->Snapshot().count, 0);

  registry.Enable();
  c->Add(5);
  g->Set(3.25);
  h->Observe(1.0);
  EXPECT_EQ(c->value(), 5);
  EXPECT_DOUBLE_EQ(g->value(), 3.25);
  EXPECT_EQ(h->Snapshot().count, 1);
}

TEST(MetricsTest, HandlesAreInternedAndStable) {
  auto& registry = MetricsRegistry::Instance();
  Counter* a = registry.GetCounter("mt.intern", {{"site", "x"}});
  Counter* b = registry.GetCounter("mt.intern", {{"site", "x"}});
  Counter* other = registry.GetCounter("mt.intern", {{"site", "y"}});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, other);
}

TEST(MetricsTest, LabelOrderIsCanonicalized) {
  auto& registry = MetricsRegistry::Instance();
  Counter* ab = registry.GetCounter("mt.labels", {{"a", "1"}, {"b", "2"}});
  Counter* ba = registry.GetCounter("mt.labels", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(ab, ba);
}

TEST(MetricsTest, CounterDefaultIncrementIsOne) {
  auto& registry = MetricsRegistry::Instance();
  registry.Enable();
  Counter* c = registry.GetCounter("mt.counter.one");
  c->Add();
  c->Add();
  c->Add(3);
  EXPECT_EQ(c->value(), 5);
}

TEST(MetricsTest, StatCounterAlwaysCountsAndFeedsTheGatedRegistry) {
  auto& registry = MetricsRegistry::Instance();
  Counter* shared = registry.GetCounter("mt.stat");
  registry.Disable();
  {
    StatCounter a("mt.stat");
    a.Add();
    EXPECT_EQ(a.value(), 1u);
    EXPECT_EQ(shared->value(), 0);  // dormant: only the instance counts

    registry.Enable();
    StatCounter b("mt.stat");
    a.Add(2);
    b.Add(4);
    EXPECT_EQ(a.value(), 3u);
    EXPECT_EQ(b.value(), 4u);
    EXPECT_EQ(shared->value(), 6);  // the registry sums every instance
  }
  EXPECT_EQ(shared->value(), 6);  // and keeps the count after them
  registry.Reset();
  EXPECT_EQ(shared->value(), 0);
}

TEST(MetricsTest, HistogramQuantileEmptyIsZero) {
  auto& registry = MetricsRegistry::Instance();
  registry.Enable();
  Histogram* h = registry.GetHistogram("mt.hist.empty", {}, {1, 2, 4, 8});
  HistogramSnapshot s = h->Snapshot();
  EXPECT_EQ(s.count, 0);
  EXPECT_DOUBLE_EQ(s.p50(), 0.0);
  EXPECT_DOUBLE_EQ(s.p99(), 0.0);
}

TEST(MetricsTest, HistogramQuantileSingleSampleInterpolatesItsBucket) {
  auto& registry = MetricsRegistry::Instance();
  registry.Enable();
  Histogram* h = registry.GetHistogram("mt.hist.single", {}, {1, 2, 4, 8});
  h->Observe(1.5);  // bucket (1, 2]
  HistogramSnapshot s = h->Snapshot();
  EXPECT_EQ(s.count, 1);
  EXPECT_DOUBLE_EQ(s.sum, 1.5);
  // All mass in (1, 2]: every quantile interpolates inside that bucket.
  EXPECT_GE(s.p50(), 1.0);
  EXPECT_LE(s.p50(), 2.0);
  EXPECT_GE(s.p99(), 1.0);
  EXPECT_LE(s.p99(), 2.0);
}

TEST(MetricsTest, HistogramQuantileDuplicateHeavy) {
  auto& registry = MetricsRegistry::Instance();
  registry.Enable();
  Histogram* h = registry.GetHistogram("mt.hist.dup", {}, {1, 2, 4, 8});
  for (int i = 0; i < 100; ++i) h->Observe(3.0);  // all in (2, 4]
  HistogramSnapshot s = h->Snapshot();
  EXPECT_EQ(s.count, 100);
  EXPECT_DOUBLE_EQ(s.p50(), 3.0);  // linear midpoint of (2, 4]
  EXPECT_GE(s.p99(), 2.0);
  EXPECT_LE(s.p99(), 4.0);
}

TEST(MetricsTest, HistogramOverflowReportsLastFiniteBound) {
  auto& registry = MetricsRegistry::Instance();
  registry.Enable();
  Histogram* h = registry.GetHistogram("mt.hist.over", {}, {1, 2, 4, 8});
  h->Observe(1000.0);
  HistogramSnapshot s = h->Snapshot();
  EXPECT_EQ(s.bucket_counts.back(), 1);
  EXPECT_DOUBLE_EQ(s.p50(), 8.0);
  EXPECT_DOUBLE_EQ(s.p99(), 8.0);
}

TEST(MetricsTest, HistogramDefaultBoundsAndFirstRegistrationWins) {
  auto& registry = MetricsRegistry::Instance();
  Histogram* def = registry.GetHistogram("mt.hist.defaults");
  EXPECT_EQ(def->bounds(), DefaultLatencyBucketsMs());
  Histogram* first = registry.GetHistogram("mt.hist.first", {}, {1, 2});
  Histogram* again = registry.GetHistogram("mt.hist.first", {}, {10, 20, 30});
  EXPECT_EQ(first, again);
  EXPECT_EQ(again->bounds(), (std::vector<double>{1, 2}));
}

TEST(MetricsTest, HistogramBoundsSortedAndDeduped) {
  auto& registry = MetricsRegistry::Instance();
  Histogram* h =
      registry.GetHistogram("mt.hist.sorted", {}, {8, 2, 2, 1, 4, 8});
  EXPECT_EQ(h->bounds(), (std::vector<double>{1, 2, 4, 8}));
}

TEST(MetricsTest, ExponentialBucketsShape) {
  std::vector<double> b = ExponentialBuckets(0.5, 2.0, 4);
  ASSERT_EQ(b.size(), 4u);
  EXPECT_DOUBLE_EQ(b[0], 0.5);
  EXPECT_DOUBLE_EQ(b[1], 1.0);
  EXPECT_DOUBLE_EQ(b[2], 2.0);
  EXPECT_DOUBLE_EQ(b[3], 4.0);
  EXPECT_TRUE(ExponentialBuckets(1.0, 2.0, 0).empty());
}

TEST(MetricsTest, PrometheusExportLines) {
  auto& registry = MetricsRegistry::Instance();
  registry.Enable();
  registry.GetCounter("mt.prom.req", {{"kind", "a"}})->Add(3);
  registry.GetGauge("mt.prom-gauge")->Set(2.5);
  Histogram* h = registry.GetHistogram("mt.prom.lat", {}, {1, 2});
  h->Observe(0.5);
  h->Observe(1.5);
  h->Observe(1.5);
  h->Observe(5.0);
  std::string text = registry.ExportPrometheus();
  // Dots/dashes mangle to underscores; counters get the _total suffix.
  EXPECT_NE(text.find("mt_prom_req_total{kind=\"a\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("mt_prom_gauge 2.5\n"), std::string::npos);
  // Histogram buckets are cumulative and close with +Inf.
  EXPECT_NE(text.find("mt_prom_lat_bucket{le=\"1\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("mt_prom_lat_bucket{le=\"2\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("mt_prom_lat_bucket{le=\"+Inf\"} 4\n"),
            std::string::npos);
  EXPECT_NE(text.find("mt_prom_lat_sum 8.5\n"), std::string::npos);
  EXPECT_NE(text.find("mt_prom_lat_count 4\n"), std::string::npos);
  EXPECT_NE(text.find("mt_prom_lat_quantile{q=\"0.5\"} 1.5\n"),
            std::string::npos);
  // Two exports of the same state are byte-identical (sorted walk).
  EXPECT_EQ(text, registry.ExportPrometheus());
}

TEST(MetricsTest, JsonExportKeysAndHistogramShape) {
  auto& registry = MetricsRegistry::Instance();
  registry.Enable();
  registry.GetCounter("mt.json.c", {{"site", "s"}})->Add(7);
  Histogram* h = registry.GetHistogram("mt.json.h", {}, {1, 2});
  h->Observe(1.5);
  std::string json = registry.ExportJson();
  EXPECT_NE(json.find("\"mt.json.c{site=\"s\"}\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"mt.json.h\": {\"count\": 1, \"sum\": 1.5"),
            std::string::npos);
  EXPECT_NE(json.find("\"p50\":"), std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);
  EXPECT_EQ(json, registry.ExportJson());
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(MetricsTest, ResetZeroesEveryInstrument) {
  auto& registry = MetricsRegistry::Instance();
  registry.Enable();
  Counter* c = registry.GetCounter("mt.reset.c");
  Gauge* g = registry.GetGauge("mt.reset.g");
  Histogram* h = registry.GetHistogram("mt.reset.h", {}, {1, 2});
  c->Add(9);
  g->Set(4.5);
  h->Observe(1.5);
  registry.Reset();
  EXPECT_EQ(c->value(), 0);
  EXPECT_DOUBLE_EQ(g->value(), 0.0);
  HistogramSnapshot s = h->Snapshot();
  EXPECT_EQ(s.count, 0);
  EXPECT_DOUBLE_EQ(s.sum, 0.0);
  for (int64_t bc : s.bucket_counts) EXPECT_EQ(bc, 0);
}

// TSan hammer: counters, gauges, and one histogram pounded from the
// pool. Counter totals and histogram counts are exact (relaxed adds);
// the gauge just has to hold one of the written values.
TEST(MetricsTest, ConcurrentRecordingIsRaceFreeAndExact) {
  auto& registry = MetricsRegistry::Instance();
  registry.Enable();
  Counter* c = registry.GetCounter("mt.tsan.c");
  Gauge* g = registry.GetGauge("mt.tsan.g");
  Histogram* h = registry.GetHistogram("mt.tsan.h", {}, {1, 2, 4, 8});
  registry.Reset();
  const size_t n = 10000;
  util::ParallelFor(0, n, 64, [&](size_t i) {
    c->Add(2);
    g->Set(static_cast<double>(i % 7));
    h->Observe(static_cast<double>(i % 10));
    // Interning from workers must also be safe.
    registry.GetCounter("mt.tsan.intern", {{"w", i % 2 ? "a" : "b"}})->Add();
  });
  EXPECT_EQ(c->value(), static_cast<int64_t>(2 * n));
  HistogramSnapshot s = h->Snapshot();
  EXPECT_EQ(s.count, static_cast<int64_t>(n));
  double gv = g->value();
  EXPECT_GE(gv, 0.0);
  EXPECT_LE(gv, 6.0);
  int64_t interned =
      registry.GetCounter("mt.tsan.intern", {{"w", "a"}})->value() +
      registry.GetCounter("mt.tsan.intern", {{"w", "b"}})->value();
  EXPECT_EQ(interned, static_cast<int64_t>(n));
}

}  // namespace
}  // namespace autoce::obs

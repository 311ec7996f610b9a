// Focused tests of the NeuroCard/UAE pair: the autoregressive core, the
// progressive-sampling estimator, and UAE's query-driven calibration.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "ce/neurocard.h"
#include "data/generator.h"
#include "engine/executor.h"
#include "query/query.h"

namespace autoce::ce {
namespace {

TEST(AutoregressiveModelTest, BinningRoundTrip) {
  AutoregressiveModel model;
  AutoregressiveModel::Params params;
  params.max_bins = 8;
  Rng rng(1);
  std::vector<AutoregressiveModel::ColumnSpec> cols(1);
  cols[0].table = 0;
  cols[0].column = 0;
  cols[0].domain = 80;  // 8 bins of width 10
  model.Init(cols, params, &rng);
  EXPECT_EQ(model.BinOf(0, 1), 0);
  EXPECT_EQ(model.BinOf(0, 10), 0);
  EXPECT_EQ(model.BinOf(0, 11), 1);
  EXPECT_EQ(model.BinOf(0, 80), 7);
  // Out-of-domain values clamp.
  EXPECT_EQ(model.BinOf(0, -5), 0);
  EXPECT_EQ(model.BinOf(0, 999), 7);
}

TEST(AutoregressiveModelTest, UnconstrainedSelectivityIsOne) {
  AutoregressiveModel model;
  Rng rng(2);
  std::vector<AutoregressiveModel::ColumnSpec> cols(2);
  for (int c = 0; c < 2; ++c) {
    cols[static_cast<size_t>(c)].table = 0;
    cols[static_cast<size_t>(c)].column = c;
    cols[static_cast<size_t>(c)].domain = 50;
  }
  model.Init(cols, {}, &rng);
  std::vector<int32_t> lo{1, 1}, hi{50, 50};
  std::vector<char> constrained{0, 0};
  Rng srng(3);
  EXPECT_DOUBLE_EQ(
      model.EstimateSelectivity(lo, hi, constrained, 8, &srng), 1.0);
}

TEST(AutoregressiveModelTest, LearnsMarginalSkew) {
  // Train on data where 90% of values fall in the lower half; the
  // estimated selectivity of "lower half" must exceed that of the upper.
  AutoregressiveModel model;
  AutoregressiveModel::Params params;
  params.epochs = 6;
  params.hidden = 16;
  Rng rng(4);
  std::vector<AutoregressiveModel::ColumnSpec> cols(1);
  cols[0].table = 0;
  cols[0].column = 0;
  cols[0].domain = 64;
  model.Init(cols, params, &rng);
  std::vector<std::vector<int32_t>> rows;
  for (int i = 0; i < 1200; ++i) {
    int32_t v = rng.Bernoulli(0.9)
                    ? static_cast<int32_t>(rng.UniformInt(1, 32))
                    : static_cast<int32_t>(rng.UniformInt(33, 64));
    rows.push_back({v});
  }
  model.Train(rows);
  Rng srng(5);
  std::vector<char> constrained{1};
  double lower = model.EstimateSelectivity({1}, {32}, constrained, 64, &srng);
  double upper = model.EstimateSelectivity({33}, {64}, constrained, 64, &srng);
  EXPECT_GT(lower, upper);
  EXPECT_NEAR(lower, 0.9, 0.2);
}

struct TrainedPair {
  data::Dataset dataset;
  std::vector<query::Query> queries;
  std::vector<double> cards;
  std::unique_ptr<CardinalityEstimator> neurocard;
  std::unique_ptr<CardinalityEstimator> uae;
};

TrainedPair TrainBoth(uint64_t seed) {
  TrainedPair out;
  Rng rng(seed);
  data::DatasetGenParams p;
  p.min_tables = p.max_tables = 1;
  p.min_rows = p.max_rows = 1200;
  out.dataset = data::GenerateDataset(p, &rng);
  query::WorkloadParams wp;
  wp.num_queries = 140;
  out.queries = query::GenerateWorkload(out.dataset, wp, &rng);
  out.cards = engine::TrueCardinalities(out.dataset, out.queries);
  TrainContext ctx;
  ctx.dataset = &out.dataset;
  ctx.train_queries = &out.queries;
  ctx.train_cards = &out.cards;
  ctx.seed = seed;
  out.neurocard = CreateModel(ModelId::kNeuroCard, ModelTrainingScale::Fast());
  out.uae = CreateModel(ModelId::kUae, ModelTrainingScale::Fast());
  EXPECT_TRUE(out.neurocard->Train(ctx).ok());
  EXPECT_TRUE(out.uae->Train(ctx).ok());
  return out;
}

TEST(UaeTest, CalibrationChangesEstimates) {
  TrainedPair pair = TrainBoth(10);
  int differs = 0;
  for (size_t i = 100; i < pair.queries.size(); ++i) {
    double n = pair.neurocard->EstimateCardinality(pair.queries[i]);
    double u = pair.uae->EstimateCardinality(pair.queries[i]);
    if (std::abs(std::log(std::max(n, 1.0)) - std::log(std::max(u, 1.0))) >
        1e-6) {
      ++differs;
    }
  }
  // The calibration layer is a non-identity affine map on log-estimates
  // whenever the workload exposed systematic bias.
  EXPECT_GT(differs, 0);
}

TEST(UaeTest, CalibrationDoesNotExplodeEstimates) {
  TrainedPair pair = TrainBoth(11);
  for (size_t i = 100; i < pair.queries.size(); ++i) {
    double u = pair.uae->EstimateCardinality(pair.queries[i]);
    EXPECT_TRUE(std::isfinite(u));
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1e12);
  }
}

// Folds the bits of `v` into an FNV-1a digest.
uint64_t Fold(uint64_t h, double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return (h ^ bits) * 1099511628211ULL;
}

constexpr uint64_t kFnvBasis = 14695981039346656037ULL;

// Exposes the trained autoregressive core, so the test can drive
// EstimateSelectivity on a stream it owns and read the stream position.
class NeuroCardProbe : public NeuroCardEstimator {
 public:
  using NeuroCardEstimator::NeuroCardEstimator;
  const AutoregressiveModel& model() const { return model_; }
};

// Non-key columns of table t, in schema order: the estimator models them
// as consecutive AR columns, and table 0's come first.
std::vector<int> NonKeyColumns(const data::Dataset& ds, int t) {
  std::vector<int> out;
  const data::Table& tab = ds.table(t);
  for (int c = 0; c < tab.NumColumns(); ++c) {
    bool key = c == tab.primary_key;
    for (const auto& fk : ds.foreign_keys()) {
      key = key || (fk.fk_table == t && fk.fk_column == c);
    }
    if (!key) out.push_back(c);
  }
  return out;
}

query::Predicate Range(int table, int column, int32_t lo, int32_t hi) {
  query::Predicate p;
  p.table = table;
  p.column = column;
  p.lo = lo;
  p.hi = hi;
  return p;
}

TEST(NeuroCardTest, EstimatesArePinned) {
  // Progressive sampling advances its samples as one batch. Every
  // estimate, and the number of uniforms each one draws from the shared
  // stream, must stay those of the one-sample-at-a-time loop: the
  // testbed and UAE's calibration run many estimates on one stream.
  uint64_t nc_digest = kFnvBasis, uae_digest = kFnvBasis, ar_digest = kFnvBasis;
  for (int tables = 1; tables <= 4; ++tables) {
    Rng rng(600 + static_cast<uint64_t>(tables));
    data::DatasetGenParams p;
    p.min_tables = p.max_tables = tables;
    p.min_columns = 3;
    p.max_columns = 4;
    p.min_rows = 150;
    p.max_rows = 400;
    data::Dataset ds = data::GenerateDataset(p, &rng);
    query::WorkloadParams wp;
    wp.num_queries = 40;
    std::vector<query::Query> queries = query::GenerateWorkload(ds, wp, &rng);
    std::vector<double> cards = engine::TrueCardinalities(ds, queries);
    TrainContext ctx;
    ctx.dataset = &ds;
    ctx.train_queries = &queries;
    ctx.train_cards = &cards;
    ctx.seed = 700 + static_cast<uint64_t>(tables);
    ModelTrainingScale scale = ModelTrainingScale::Fast();
    scale.join_sample_rows = 400;
    NeuroCardProbe neurocard(scale);
    UaeEstimator uae(scale);
    ASSERT_TRUE(neurocard.Train(ctx).ok());
    ASSERT_TRUE(uae.Train(ctx).ok());

    // Single-table queries on table 0, whose non-key columns are AR
    // columns 0, 1, 2: an interval covering no bin (lo > hi) on column 0,
    // then on the middle one of three constrained columns.
    std::vector<int> cols = NonKeyColumns(ds, 0);
    ASSERT_GE(cols.size(), 3u);
    auto domain = [&](int c) {
      return ds.table(0).columns[static_cast<size_t>(cols[static_cast<size_t>(c)])]
          .domain_size;
    };
    query::Query empty_first, empty_middle, key_only;
    empty_first.tables = empty_middle.tables = key_only.tables = {0};
    empty_first.predicates = {Range(0, cols[0], 3, 2),
                              Range(0, cols[1], 1, domain(1) / 2)};
    empty_middle.predicates = {Range(0, cols[0], 1, domain(0) / 2),
                               Range(0, cols[1], 3, 2),
                               Range(0, cols[2], domain(2) / 2, domain(2))};
    int key = ds.table(0).primary_key;  // -1 on single-table datasets
    if (key >= 0) key_only.predicates = {Range(0, key, 1, 10)};

    auto run = [&](CardinalityEstimator* model, uint64_t* h) {
      // One stream, as in the testbed; the handcrafted queries sit among
      // workload queries so later estimates see where they left it.
      for (size_t i = 0; i < queries.size(); ++i) {
        *h = Fold(*h, model->EstimateCardinality(queries[i]));
        if (i == 5) *h = Fold(*h, model->EstimateCardinality(empty_first));
        if (i == 10) *h = Fold(*h, model->EstimateCardinality(empty_middle));
        if (i == 15 && key >= 0) {
          *h = Fold(*h, model->EstimateCardinality(key_only));
        }
      }
      // A reseeded stream per estimate, as in fss.
      for (size_t i = 0; i < queries.size(); ++i) {
        model->SeedInference(7919 * i + 1);
        *h = Fold(*h, model->EstimateCardinality(queries[i]));
      }
    };
    run(&neurocard, &nc_digest);
    run(&uae, &uae_digest);

    // The AR core on a stream the test owns: 1, 2 and 48 samples, each
    // estimate followed by the stream's next uniform.
    const AutoregressiveModel& ar = neurocard.model();
    size_t n = ar.columns().size();
    std::vector<int32_t> lo(n, 1), hi(n);
    std::vector<char> every_other(n, 0), last_only(n, 0);
    for (size_t c = 0; c < n; ++c) {
      hi[c] = ar.columns()[c].domain;
      if (c % 2 == 0) {
        every_other[c] = 1;
        lo[c] = 1 + hi[c] / 4;
      }
    }
    last_only[n - 1] = 1;
    Rng stream(800 + static_cast<uint64_t>(tables));
    for (int samples : {1, 2, 48}) {
      for (const std::vector<char>* constrained : {&every_other, &last_only}) {
        ar_digest = Fold(ar_digest, ar.EstimateSelectivity(lo, hi, *constrained,
                                                           samples, &stream));
        ar_digest = Fold(ar_digest, stream.Uniform());
      }
    }
  }
  EXPECT_EQ(nc_digest, 0x6B135EB7ACBB7C3EULL);
  EXPECT_EQ(uae_digest, 0x0184E843B94F7D7FULL);
  EXPECT_EQ(ar_digest, 0xCBEECA9879E45A3BULL);
}

// Trains the AR core on three 32-value columns where column 1 repeats
// column 0's choice of 1 or 32 and column 2 is uniform noise.
AutoregressiveModel TrainCopyModel(uint64_t seed, double learning_rate) {
  AutoregressiveModel model;
  AutoregressiveModel::Params params;
  params.learning_rate = learning_rate;
  params.epochs = 4;
  params.hidden = 8;
  Rng rng(seed);
  std::vector<AutoregressiveModel::ColumnSpec> cols(3);
  for (int c = 0; c < 3; ++c) {
    cols[static_cast<size_t>(c)].table = 0;
    cols[static_cast<size_t>(c)].column = c;
    cols[static_cast<size_t>(c)].domain = 32;
  }
  model.Init(cols, params, &rng);
  std::vector<std::vector<int32_t>> rows;
  for (int i = 0; i < 400; ++i) {
    int32_t first = rng.Bernoulli(0.5) ? 1 : 32;
    rows.push_back({first, first, static_cast<int32_t>(rng.UniformInt(1, 32))});
  }
  model.Train(rows);
  return model;
}

// Number of uniforms drawn between `from` and `to` on one stream.
int DrawsBetween(Rng from, const Rng& to) {
  for (int n = 0; n < 100000; ++n) {
    if (from.SaveState().s == to.SaveState().s) return n;
    from.Uniform();
  }
  return -1;
}

TEST(AutoregressiveModelTest, StoppedSamplesArePinned) {
  // A sample stops where its interval's mass is 0: at a column whose
  // interval covers no bin every sample stops, but an over-confident
  // model also rounds covered bins to probability 0 after some prefixes.
  // Estimates and the stream position after them must stay those of the
  // one-sample-at-a-time loop in both cases.
  AutoregressiveModel model = TrainCopyModel(2, 1.0);
  const std::vector<int32_t> lo{1, 1, 1}, hi{32, 1, 32};
  const std::vector<char> constrained{0, 1, 1};
  uint64_t h = kFnvBasis;
  Rng stream(9);
  for (int samples : {1, 7, 48}) {
    Rng before = stream;
    double est = model.EstimateSelectivity(lo, hi, constrained, samples, &stream);
    // Some samples stop at column 1 after one draw, the rest draw three.
    int draws = DrawsBetween(before, stream);
    EXPECT_LT(draws, 3 * samples);
    if (samples > 1) {
      EXPECT_GT(draws, samples);
      EXPECT_GT(est, 0.0);
    }
    h = Fold(Fold(h, est), stream.Uniform());
  }
  // Intervals covering no bin: on column 0, where every sample stops
  // before its first draw, and on the middle constrained column.
  h = Fold(h, model.EstimateSelectivity({3, 1, 1}, {2, 32, 32}, {1, 1, 1}, 48,
                                        &stream));
  h = Fold(h, stream.Uniform());
  h = Fold(h, model.EstimateSelectivity({1, 3, 1}, {16, 2, 32}, {1, 1, 1}, 48,
                                        &stream));
  h = Fold(h, stream.Uniform());
  EXPECT_EQ(h, 0x8D960DE5AAE5010DULL);

  // A diverged model has NaN probabilities, so a column covering no bin
  // has NaN mass and the samples do not stop there: each draws one
  // uniform per column, as the one-at-a-time loop did.
  AutoregressiveModel diverged = TrainCopyModel(2, 1e300);
  Rng before = stream;
  double est = diverged.EstimateSelectivity({1, 3, 1}, {16, 2, 32}, {1, 1, 1},
                                            48, &stream);
  EXPECT_TRUE(std::isnan(est));
  EXPECT_EQ(DrawsBetween(before, stream), 3 * 48);
}

// Trains the AR core on columns of the given domains, with values drawn
// uniformly from each domain.
AutoregressiveModel TrainUniformModel(const std::vector<int32_t>& domains,
                                      uint64_t seed) {
  AutoregressiveModel model;
  AutoregressiveModel::Params params;
  params.epochs = 2;
  params.hidden = 8;
  Rng rng(seed);
  std::vector<AutoregressiveModel::ColumnSpec> cols(domains.size());
  for (size_t c = 0; c < domains.size(); ++c) {
    cols[c].table = 0;
    cols[c].column = static_cast<int>(c);
    cols[c].domain = domains[c];
  }
  model.Init(cols, params, &rng);
  std::vector<std::vector<int32_t>> rows(200);
  for (auto& row : rows) {
    for (int32_t domain : domains) {
      row.push_back(static_cast<int32_t>(rng.UniformInt(1, domain)));
    }
  }
  model.Train(rows);
  return model;
}

// Progressive sampling evaluates each distinct prefix of drawn bins once
// (DESIGN.md §5.16). The pins below were taken from the loop that ran one
// context row per sample; each test sets up one regime of prefix sharing.

TEST(AutoregressiveModelTest, OneBinColumnsShareOnePrefixAndArePinned) {
  // A one-bin column leaves every sample on the same prefix, so all
  // samples share one context row up to the wide column 3.
  AutoregressiveModel model = TrainUniformModel({1, 1, 1, 40}, 21);
  uint64_t h = kFnvBasis;
  Rng stream(22);
  for (int samples : {1, 5, 48}) {
    Rng before = stream;
    h = Fold(h, model.EstimateSelectivity({1, 1, 1, 5}, {1, 1, 1, 20},
                                          {1, 0, 1, 1}, samples, &stream));
    EXPECT_EQ(DrawsBetween(before, stream), 4 * samples);
    h = Fold(h, model.EstimateSelectivity({1, 1, 1, 1}, {1, 1, 1, 40},
                                          {0, 1, 0, 0}, samples, &stream));
    h = Fold(h, stream.Uniform());
  }
  EXPECT_EQ(h, 0x828DE7AD38E4542CULL);
}

TEST(AutoregressiveModelTest, DistinctPrefixesArePinned) {
  // Few samples over 32-bin columns: past column 0, no two samples of a
  // batch drew the same bins, so every prefix is its own context row.
  AutoregressiveModel model = TrainUniformModel({32, 32, 32, 32}, 23);
  uint64_t h = kFnvBasis;
  Rng stream(24);
  for (int samples : {2, 3, 4}) {
    Rng before = stream;
    h = Fold(h, model.EstimateSelectivity({1, 1, 1, 9}, {32, 32, 32, 24},
                                          {0, 0, 0, 1}, samples, &stream));
    EXPECT_EQ(DrawsBetween(before, stream), 4 * samples);
    h = Fold(h, stream.Uniform());
  }
  EXPECT_EQ(h, 0xD45E4CEB07ED715DULL);
}

TEST(AutoregressiveModelTest, EarlyStopInsideASharedPrefixIsPinned) {
  // The over-confident copy model stops every sample that drew 32 on
  // column 0 at column 1. The first such sample cuts the batch: its
  // prefix's later members are batched again, and so are the later
  // members of the prefix that drew 1, whose earlier members go on to
  // column 2.
  AutoregressiveModel model = TrainCopyModel(2, 1.0);
  uint64_t h = kFnvBasis;
  Rng stream(25);
  for (int samples : {6, 16, 40}) {
    Rng before = stream;
    double est =
        model.EstimateSelectivity({1, 1, 1}, {32, 1, 16}, {0, 1, 1}, samples,
                                  &stream);
    int draws = DrawsBetween(before, stream);
    EXPECT_GT(draws, samples);
    EXPECT_LT(draws, 3 * samples);
    EXPECT_GT(est, 0.0);
    h = Fold(Fold(h, est), stream.Uniform());
  }
  EXPECT_EQ(h, 0xDAF29F0EE521EC94ULL);
}

TEST(AutoregressiveModelTest, NanOverrunRerunIsPinned) {
  // A diverged model's NaN mass does not stop a sample where every sample
  // was expected to stop (column 0 below, then column 2), so each one
  // reruns alone with one draw per column up to the last constrained one.
  AutoregressiveModel diverged = TrainCopyModel(2, 1e300);
  AutoregressiveModel sane = TrainCopyModel(2, 0.01);
  uint64_t h = kFnvBasis;
  Rng stream(26);
  for (int samples : {1, 9}) {
    Rng before = stream;
    EXPECT_TRUE(std::isnan(diverged.EstimateSelectivity(
        {3, 1, 1}, {2, 32, 16}, {1, 0, 1}, samples, &stream)));
    EXPECT_EQ(DrawsBetween(before, stream), 3 * samples);
    before = stream;
    EXPECT_TRUE(std::isnan(diverged.EstimateSelectivity(
        {1, 1, 3}, {32, 32, 2}, {0, 0, 1}, samples, &stream)));
    EXPECT_EQ(DrawsBetween(before, stream), 3 * samples);
    // The stream is where the one-at-a-time loop left it.
    h = Fold(h, sane.EstimateSelectivity({1, 1, 1}, {16, 32, 16}, {1, 0, 1},
                                         samples, &stream));
  }
  EXPECT_EQ(h, 0x5DEBBEC8C61EBA1AULL);
}

TEST(NeuroCardTest, JoinSizeCacheKeepsTablesPast31Apart) {
  // Table ids past 31 must get their own join-size cache entries: a
  // 32-bit table mask would shift table 33 onto table 1's bit and answer
  // with table 1's cached size.
  Rng rng(91);
  data::DatasetGenParams p;
  p.min_tables = p.max_tables = 34;
  p.min_columns = p.max_columns = 2;
  p.min_rows = 20;
  p.max_rows = 60;
  data::Dataset ds = data::GenerateDataset(p, &rng);
  ASSERT_NE(ds.table(1).NumRows(), ds.table(33).NumRows());
  ModelTrainingScale scale = ModelTrainingScale::Fast();
  scale.join_sample_rows = 100;
  scale.progressive_samples = 8;
  TrainContext ctx;
  ctx.dataset = &ds;
  ctx.seed = 5;
  NeuroCardEstimator warm(scale), fresh(scale);
  ASSERT_TRUE(warm.Train(ctx).ok());
  ASSERT_TRUE(fresh.Train(ctx).ok());
  query::Query t1, t33;
  t1.tables = {1};
  t33.tables = {33};
  warm.SeedInference(3);
  EXPECT_GT(warm.EstimateCardinality(t1), 0.0);  // caches table 1's size
  warm.SeedInference(3);
  fresh.SeedInference(3);
  EXPECT_EQ(warm.EstimateCardinality(t33), fresh.EstimateCardinality(t33));
}

}  // namespace
}  // namespace autoce::ce

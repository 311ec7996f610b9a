// CardBench-style regime evaluation for the dynamic-data subsystem
// (DESIGN.md §5.14): a regime grid over table count x skew x
// correlation x join fanout x drift intensity, every dataset labeled
// TWICE by the drift testbed — at the snapshot and after K mutation
// epochs — and the advisor compared per regime against the Fig-8
// selection baselines under the post-update ground truth. Two AutoCE
// fits run head to head: snapshot-only labels vs drift-blended labels;
// the bench requires the post-update variant to flip the recommended
// model in at least one drifted regime (the point of re-labeling).
// An end-to-end drill then drives the drifting corpus through the
// serve+adapt soak loop (SoakConfig.drift_intensity) and through an
// fss::EstimatorService with epoch aging and the observed-subplan
// drift-feedback hook bound to an AdaptationPipeline. Emits
// BENCH_regimes.json and self-checks that the evaluation digest is
// bit-identical at AUTOCE_THREADS=1 and 8 and across a repeated run.
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "adapt/pipeline.h"
#include "bench/common.h"
#include "bench/support/drift_feedback.h"
#include "bench/support/drift_label.h"
#include "bench/support/soak.h"
#include "dyn/mutation.h"
#include "dyn/regime.h"
#include "engine/executor.h"
#include "engine/optimizer.h"
#include "engine/plan_executor.h"
#include "fss/estimator_service.h"
#include "serve/server.h"
#include "util/fault.h"

namespace autoce::bench {
namespace {

constexpr uint64_t kSeed = 1203;
constexpr double kWa = 0.7;      // accuracy weight for the matrix
constexpr double kEpsilon = 0.1; // D-error tolerance for "accurate"
constexpr int kDriftEpochs = 3;  // the K of the post-update label

/// FNV-1a over raw double bits and strings (the cross-thread identity
/// witness).
class Digest {
 public:
  void Add(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int b = 0; b < 8; ++b) Byte((bits >> (8 * b)) & 0xFF);
  }
  void Add(uint64_t v) { Add(static_cast<double>(v)); }
  void Add(const std::string& s) {
    for (unsigned char c : s) Byte(c);
  }
  uint64_t value() const { return h_; }

 private:
  void Byte(uint64_t b) {
    h_ ^= b;
    h_ *= 0x100000001B3ULL;
  }
  uint64_t h_ = 0xCBF29CE484222325ULL;
};

/// Per-regime scoreboard: one row per grid cell, one slot per selector.
struct RegimeRow {
  dyn::RegimeVector regime;
  int n = 0;           ///< test datasets in this cell
  int flips = 0;       ///< snapshot-fit pick != drift-fit pick
  std::vector<double> derr_sum;
  std::vector<int> hits;
};

/// Counters from the end-to-end serve+adapt+fss drill.
struct DrillOut {
  uint64_t soak_digest = 0;
  uint64_t soak_drift_epochs = 0;
  uint64_t feedback = 0;
  uint64_t disagreements = 0;
  uint64_t age_evictions = 0;
  uint64_t knowledge_end = 0;
  uint64_t fast_forward_evictions = 0;
};

struct EvalOut {
  std::vector<std::string> selector_names;
  std::vector<RegimeRow> rows;
  std::vector<double> overall_derr;
  std::vector<double> overall_acc;
  int regimes_with_flips = 0;
  DrillOut drill;
  uint64_t digest = 0;
};

/// End-to-end drill: (1) the soak harness serving + adapting over a
/// persistently drifting dataset pool, then (2) an EstimatorService
/// with epoch aging answering a drifting dataset's workload while
/// executor feedback streams truths back in, NotifyEpoch ages the
/// knowledge tier, and the drift-disagreement hook feeds the
/// adaptation pipeline. Everything digested is a pure function of
/// content, so the 3-pass sweep pins it.
DrillOut RunDrill(const std::string& store_dir, Digest* digest) {
  DrillOut out;

  adapt::SoakConfig soak_cfg;
  soak_cfg.seed = kSeed;
  soak_cfg.ticks = PaperScale() ? 24 : 6;
  soak_cfg.items_per_tick = 2;
  soak_cfg.requests_per_tick = 2;
  soak_cfg.drift_intensity = 1.5;
  soak_cfg.drift_epochs_per_tick = 1;
  soak_cfg.chaos.phase_ticks = 3;
  soak_cfg.chaos.kill_events = 1;
  soak_cfg.chaos.min_probability = 0.02;
  soak_cfg.chaos.max_probability = 0.10;
  soak_cfg.store_dir = store_dir;
  auto soak = adapt::RunSoak(soak_cfg);
  AUTOCE_CHECK(soak.ok());
  out.soak_digest = soak->final_digest;
  out.soak_drift_epochs = soak->drift_epochs;
  digest->Add(out.soak_digest);
  digest->Add(out.soak_drift_epochs);

  // FSS aging + observed-subplan feedback over one drifting dataset.
  auto server = serve::AdvisorServer::Open(store_dir);
  AUTOCE_CHECK(server.ok());
  auto pipeline = adapt::AdaptationPipeline::Open(store_dir, server->get());
  AUTOCE_CHECK(pipeline.ok());

  data::DatasetGenParams gen;
  gen.min_tables = 3;
  gen.max_tables = 3;
  gen.min_rows = 300;
  gen.max_rows = 600;
  gen.min_columns = 2;
  gen.max_columns = 3;
  Rng rng(util::FaultKeyMix(kSeed, 0xd111ULL));
  data::Dataset ds = data::GenerateDataset(gen, &rng);
  featgraph::FeatureExtractor fx;
  featgraph::FeatureGraph graph = fx.Extract(ds);

  fss::EstimatorServiceOptions opts;
  opts.max_age_epochs = 2;
  opts.drift_disagreement_threshold = 0.4;
  auto service = fss::EstimatorService::Open("", nullptr, &ds, opts);
  AUTOCE_CHECK(service.ok());
  adapt::BindDriftFeedback(service->get(), pipeline->get(), &ds, &graph);

  query::WorkloadParams wp;
  wp.num_queries = PaperScale() ? 60 : 24;
  Rng qrng(util::FaultKeyMix(kSeed, 0xd112ULL));
  auto queries = query::GenerateWorkload(ds, wp, &qrng);

  dyn::MutationConfig drift;
  drift.intensity = 2.0;
  for (int epoch = 0; epoch < kDriftEpochs + 1; ++epoch) {
    engine::JoinOrderOptimizer opt(&ds);
    engine::PlanExecutor exec(&ds);
    exec.set_subplan_observer((*service)->MakeObserver());
    for (const auto& q : queries) {
      auto plan = opt.Optimize(q, service->get());
      if (!plan.ok()) continue;
      auto result = exec.Execute(q, **plan);
      (void)result;
    }
    auto applied = dyn::ApplyEpoch(&ds, drift);
    AUTOCE_CHECK(applied.ok());
    (*service)->NotifyEpoch(ds.epoch());
  }
  fss::ServiceStats stats = (*service)->stats();
  out.feedback = stats.feedback;
  out.disagreements = stats.drift_disagreements;
  out.age_evictions = stats.age_evictions;
  out.knowledge_end = stats.knowledge_entries;
  // Fast-forward far past the aging window: everything left ages out —
  // the eviction path is exercised even if every entry was re-observed
  // each epoch above.
  out.fast_forward_evictions =
      (*service)->NotifyEpoch(ds.epoch() + 10 * opts.max_age_epochs);
  adapt::UnbindDriftFeedback(service->get());
  AUTOCE_CHECK(out.feedback > 0);
  AUTOCE_CHECK(out.knowledge_end > 0);
  AUTOCE_CHECK(out.fast_forward_evictions > 0);

  digest->Add(out.feedback);
  digest->Add(out.disagreements);
  digest->Add(out.age_evictions);
  digest->Add(out.knowledge_end);
  digest->Add(out.fast_forward_evictions);
  return out;
}

/// One full evaluation pass at the current parallelism. Fitted
/// selectors come in from outside (their Recommend is pure); the
/// rng-stateful baselines (Rule, Sampling) are rebuilt per pass so a
/// repeated pass consumes an identical random stream.
EvalOut Evaluate(const dyn::DriftLabeledCorpus& test,
                 AutoCeSelector* snap_sel, AutoCeSelector* drift_sel,
                 advisor::MlpSelector* mlp, advisor::KnnSelector* knn,
                 const advisor::LabeledCorpus& snapshot_train,
                 const ce::TestbedConfig& testbed,
                 const std::string& store_dir) {
  EvalOut out;
  Digest digest;

  advisor::RuleSelector rule(kSeed);
  std::unique_ptr<advisor::SamplingSelector> sampling;
  if (PaperScale()) {
    advisor::SamplingSelector::Config scfg;
    scfg.testbed = testbed;
    sampling = std::make_unique<advisor::SamplingSelector>(scfg);
    AUTOCE_CHECK(sampling->Fit(snapshot_train).ok());
  }

  struct Sel {
    std::string name;
    advisor::ModelSelector* sel;
  };
  std::vector<Sel> selectors = {{"AutoCE", snap_sel},
                                {"AutoCE-drift", drift_sel},
                                {"MLP", mlp},
                                {"KNN", knn},
                                {"Rule", &rule}};
  if (sampling != nullptr) selectors.push_back({"Sampling", sampling.get()});
  for (const auto& s : selectors) out.selector_names.push_back(s.name);

  std::map<std::string, size_t> row_index;
  std::vector<std::vector<double>> all_derr(selectors.size());

  for (size_t i = 0; i < test.size(); ++i) {
    const std::string regime_name = test.regimes[i].Name();
    auto it = row_index.find(regime_name);
    if (it == row_index.end()) {
      it = row_index.emplace(regime_name, out.rows.size()).first;
      RegimeRow row;
      row.regime = test.regimes[i];
      row.derr_sum.assign(selectors.size(), 0.0);
      row.hits.assign(selectors.size(), 0);
      out.rows.push_back(std::move(row));
    }
    RegimeRow& row = out.rows[it->second];
    ++row.n;
    digest.Add(regime_name);

    // Ground truth after drift: the post-update label variant.
    const advisor::DatasetLabel& truth = test.post_labels[i];
    std::vector<ce::ModelId> picks(selectors.size());
    for (size_t s = 0; s < selectors.size(); ++s) {
      auto rec = selectors[s].sel->Recommend(test.datasets[i], test.graphs[i],
                                             kWa);
      AUTOCE_CHECK(rec.ok());
      picks[s] = *rec;
      double derr = truth.DError(*rec, kWa);
      row.derr_sum[s] += derr;
      if (derr <= kEpsilon) ++row.hits[s];
      all_derr[s].push_back(derr);
      digest.Add(static_cast<uint64_t>(*rec));
      digest.Add(derr);
    }
    if (picks[0] != picks[1]) ++row.flips;  // snapshot fit vs drift fit
  }

  for (const auto& row : out.rows) {
    if (row.flips > 0) ++out.regimes_with_flips;
  }
  out.overall_derr.reserve(selectors.size());
  out.overall_acc.reserve(selectors.size());
  for (size_t s = 0; s < selectors.size(); ++s) {
    out.overall_derr.push_back(stats::Mean(all_derr[s]));
    int hits = 0, n = 0;
    for (const auto& row : out.rows) {
      hits += row.hits[s];
      n += row.n;
    }
    out.overall_acc.push_back(n == 0 ? 0.0
                                     : static_cast<double>(hits) / n);
  }
  digest.Add(static_cast<uint64_t>(out.regimes_with_flips));

  // Each evaluation pass drills against the same cold starting state.
  std::filesystem::remove_all(store_dir);
  out.drill = RunDrill(store_dir, &digest);
  out.digest = digest.value();
  return out;
}

int Run() {
  std::printf("== Regime matrix: drift-aware advisor evaluation over the "
              "dynamic-data grid ==\n");

  // The grid: 2 levels on each of the 5 axes = 32 regimes.
  dyn::RegimeAxes axes;
  data::DatasetGenParams base;
  base.min_rows = PaperScale() ? 4000 : 150;
  base.max_rows = PaperScale() ? 12000 : 320;
  base.min_columns = 2;
  base.max_columns = 4;
  base.min_domain = 20;
  base.max_domain = PaperScale() ? 2000 : 300;

  dyn::DriftLabelConfig label_cfg;
  label_cfg.testbed.num_train_queries = PaperScale() ? 400 : 60;
  label_cfg.testbed.num_test_queries = PaperScale() ? 100 : 30;
  label_cfg.testbed.scale = ce::ModelTrainingScale::Fast();
  label_cfg.testbed.seed = kSeed;
  label_cfg.epochs = kDriftEpochs;

  const int per_cell_train = PaperScale() ? 4 : 2;
  const int per_cell_test = PaperScale() ? 2 : 1;

  Rng rng(kSeed);
  Rng train_rng = rng.Fork(1);
  Rng test_rng = rng.Fork(2);
  auto train_rd =
      dyn::GenerateRegimeCorpus(axes, base, per_cell_train, &train_rng);
  auto test_rd =
      dyn::GenerateRegimeCorpus(axes, base, per_cell_test, &test_rng);
  const size_t num_regimes = train_rd.size() / per_cell_train;

  featgraph::FeatureExtractor fx;
  Timer label_timer;
  std::printf("# drift-labeling %zu train + %zu test datasets across %zu "
              "regimes (%d epochs each)...\n",
              train_rd.size(), test_rd.size(), num_regimes,
              label_cfg.epochs);
  auto train = dyn::LabelCorpusUnderDrift(std::move(train_rd), label_cfg, fx,
                                          /*verbose=*/true);
  dyn::DriftLabelConfig test_cfg = label_cfg;
  test_cfg.testbed.seed = kSeed ^ 0xABCDEFULL;
  auto test = dyn::LabelCorpusUnderDrift(std::move(test_rd), test_cfg, fx,
                                         /*verbose=*/true);
  std::printf("# labeled in %.1fs\n", label_timer.ElapsedSeconds());

  // Two AutoCE fits: snapshot-only labels vs drift-blended labels (the
  // post-update variant folded in at weight 0.7).
  advisor::LabeledCorpus snapshot_train = train.AsCorpus(0.0);
  advisor::LabeledCorpus blended_train = train.AsCorpus(0.7);
  AutoCeSelector snap_sel;
  AutoCeSelector drift_sel;
  Timer fit_timer;
  AUTOCE_CHECK(snap_sel.Fit(snapshot_train).ok());
  AUTOCE_CHECK(drift_sel.Fit(blended_train).ok());
  advisor::MlpSelector mlp;
  advisor::KnnSelector knn;
  AUTOCE_CHECK(mlp.Fit(snapshot_train).ok());
  AUTOCE_CHECK(knn.Fit(snapshot_train).ok());
  std::printf("# fitted 2x AutoCE + MLP + KNN in %.1fs\n",
              fit_timer.ElapsedSeconds());
  if (!PaperScale()) {
    std::printf("# Sampling baseline skipped at small scale (it re-runs the "
                "testbed per dataset); AUTOCE_BENCH_SCALE=paper includes "
                "it\n");
  }

  const std::string store_dir = "BENCH_regime_store.tmp";
  // The determinism sweep: same evaluation (matrix + e2e drill) at 1
  // and 8 threads plus a repeat; digests must agree bit-for-bit.
  std::printf("# evaluating the matrix + e2e drill (threads 1/8/8)...\n");
  util::SetGlobalParallelism(1);
  EvalOut at1 = Evaluate(test, &snap_sel, &drift_sel, &mlp, &knn,
                         snapshot_train, label_cfg.testbed, store_dir);
  util::SetGlobalParallelism(8);
  EvalOut at8 = Evaluate(test, &snap_sel, &drift_sel, &mlp, &knn,
                         snapshot_train, label_cfg.testbed, store_dir);
  EvalOut again = Evaluate(test, &snap_sel, &drift_sel, &mlp, &knn,
                           snapshot_train, label_cfg.testbed, store_dir);
  util::SetGlobalParallelism(util::DefaultParallelism());
  bool identical = at1.digest == at8.digest && at8.digest == again.digest;
  AUTOCE_CHECK(identical);  // thread- or order-dependence is a bug

  // ---- The matrix -------------------------------------------------
  std::printf("\n-- per-regime mean D-error under the post-update label "
              "(w_a=%.1f) --\n", kWa);
  std::vector<std::string> header{"regime"};
  for (const auto& name : at8.selector_names) header.push_back(name);
  header.push_back("flip");
  PrintRow(header, 16);
  for (const auto& row : at8.rows) {
    std::vector<std::string> cells{row.regime.Name()};
    for (size_t s = 0; s < at8.selector_names.size(); ++s) {
      cells.push_back(Fmt(row.derr_sum[s] / std::max(1, row.n), 3));
    }
    cells.push_back(row.flips > 0 ? "Y" : "-");
    PrintRow(cells, 16);
  }
  std::printf("\n-- overall (accuracy = D-error <= %.2f) --\n", kEpsilon);
  PrintRow({"selector", "mean-derr", "accuracy"});
  for (size_t s = 0; s < at8.selector_names.size(); ++s) {
    PrintRow({at8.selector_names[s], Fmt(at8.overall_derr[s], 3),
              Pct(at8.overall_acc[s])});
  }
  std::printf("\nregimes where the drift-blended fit changed the pick: "
              "%d of %zu\n",
              at8.regimes_with_flips, at8.rows.size());
  std::printf("e2e drill: soak applied %llu drift epochs; fss served %llu "
              "feedback obs,\n  %llu drift disagreements, %llu aged-out "
              "entries (+%llu on fast-forward)\n",
              static_cast<unsigned long long>(at8.drill.soak_drift_epochs),
              static_cast<unsigned long long>(at8.drill.feedback),
              static_cast<unsigned long long>(at8.drill.disagreements),
              static_cast<unsigned long long>(at8.drill.age_evictions),
              static_cast<unsigned long long>(
                  at8.drill.fast_forward_evictions));
  // The acceptance gate: re-labeling after drift must matter somewhere.
  AUTOCE_CHECK(at8.regimes_with_flips >= 1);

  // ---- BENCH_regimes.json -----------------------------------------
  obs::RunManifest manifest = BenchManifest("bench_regime_matrix", kSeed);
  char digest_hex[32];
  std::snprintf(digest_hex, sizeof(digest_hex), "%016llx",
                static_cast<unsigned long long>(at8.digest));
  manifest.AddInt("chaos_seed", static_cast<int64_t>(kSeed))
      .AddInt("num_regimes", static_cast<int64_t>(at8.rows.size()))
      .AddInt("regime_axes", dyn::kNumRegimeAxes)
      .AddInt("drift_epochs", label_cfg.epochs)
      .AddDouble("w_a", kWa)
      .AddDouble("epsilon", kEpsilon)
      .AddInt("regimes_with_flips",
              static_cast<int64_t>(at8.regimes_with_flips))
      .AddString("eval_digest", digest_hex)
      .AddBool("digests_identical_threads_1_8_repeat", identical)
      .AddInt("soak_drift_epochs",
              static_cast<int64_t>(at8.drill.soak_drift_epochs))
      .AddInt("fss_feedback", static_cast<int64_t>(at8.drill.feedback))
      .AddInt("fss_drift_disagreements",
              static_cast<int64_t>(at8.drill.disagreements))
      .AddInt("fss_age_evictions",
              static_cast<int64_t>(at8.drill.age_evictions))
      .AddInt("fss_fast_forward_evictions",
              static_cast<int64_t>(at8.drill.fast_forward_evictions));
  for (size_t s = 0; s < at8.selector_names.size(); ++s) {
    std::string key = at8.selector_names[s];
    for (char& c : key) {
      if (c == '-' || c == ' ') c = '_';
    }
    manifest.AddDouble(key + "_mean_derror", at8.overall_derr[s])
        .AddDouble(key + "_accuracy", at8.overall_acc[s]);
  }
  for (const auto& row : at8.rows) {
    const std::string prefix = "regime_" + row.regime.Name();
    for (size_t s = 0; s < at8.selector_names.size(); ++s) {
      std::string key = at8.selector_names[s];
      for (char& c : key) {
        if (c == '-' || c == ' ') c = '_';
      }
      manifest
          .AddDouble(prefix + "_" + key + "_derror",
                     row.derr_sum[s] / std::max(1, row.n))
          .AddDouble(prefix + "_" + key + "_accuracy",
                     row.n == 0 ? 0.0
                                : static_cast<double>(row.hits[s]) / row.n);
    }
    manifest.AddBool(prefix + "_flip", row.flips > 0);
  }
  manifest.AddMetricsSnapshot();
  AUTOCE_CHECK(manifest.WriteTo("BENCH_regimes.json"));
  std::printf("\nwrote BENCH_regimes.json (digest %s)\n", digest_hex);
  std::filesystem::remove_all(store_dir);
  return 0;
}

}  // namespace
}  // namespace autoce::bench

int main() { return autoce::bench::Run(); }

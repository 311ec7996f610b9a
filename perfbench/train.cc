// The `train` workload: Stage 1 labeling (the 7-model testbed over a
// seeded corpus) plus the advisor fit, i.e. `autoce train`. It never
// touches serving, KNN serving or the fss service.
#include <cctype>
#include <cmath>
#include <cstdio>

#include "advisor/label.h"
#include "ce/testbed.h"
#include "engine/executor.h"
#include "harness.h"
#include "obs/metrics.h"
#include "util/fault.h"
#include "util/parallel.h"

namespace autoce::perfbench {

namespace {

constexpr int kCorpusSize = 20;
/// Every kHeldOutEvery-th dataset is held out of the fit and scored.
constexpr int kHeldOutEvery = 4;

std::string ModelKey(ce::ModelId id) {
  std::string key = ce::ModelName(id);
  for (char& c : key) c = static_cast<char>(std::tolower(c));
  return key;
}

/// The corpus: CorpusShape() with at most 3 tables per dataset, so a pass
/// takes a few seconds at 4 threads and a run times several passes.
std::vector<data::Dataset> MakeCorpus(uint64_t seed) {
  data::DatasetGenParams gen = CorpusShape();
  gen.max_tables = 3;
  Rng rng(seed);
  return GenerateStratified(gen, "train", kCorpusSize, &rng);
}

ce::TestbedConfig Testbed(uint64_t seed) {
  ce::TestbedConfig cfg;  // 160 train / 80 test queries, fast model scale
  cfg.seed = seed;
  return cfg;
}

void AddLabel(const advisor::DatasetLabel& l, Digest* d) {
  for (size_t m = 0; m < ce::kNumModels; ++m) {
    d->Add(l.accuracy_score[m]);
    d->Add(l.efficiency_score[m]);
    d->Add(l.qerror_mean[m]);
    d->Add(l.latency_ms[m]);
    d->Add(static_cast<uint64_t>(l.failed[m]));
  }
}

uint64_t LabelDigest(const advisor::DatasetLabel& l) {
  Digest d;
  AddLabel(l, &d);
  return d.value();
}

struct Pass {
  double label_s = 0.0;
  double fit_s = 0.0;
  double cpu_s = 0.0;  ///< process CPU seconds over LabelCorpus
  uint64_t label_digest = 0;
  uint64_t model_digest = 0;
  int failed_cells = 0;
  size_t rcs_size = 0;  ///< fitted samples plus incremental-learning Mixups
  /// Geometric mean of the testbed's mean Q-error over trained cells: the
  /// accuracy of the labels, which every labeling change moves.
  double qerror_geomean = 0.0;
  /// 1 + held-out D-error of the fitted advisor (5 datasets, so it varies
  /// too much across seeds to bound; reported from the traced run).
  double score_ratio = 0.0;
  advisor::LabeledCorpus corpus;
};

/// One `autoce train`: LabelCorpus over the whole corpus, then Fit on the
/// non-held-out part. Scoring on the held-out part is untimed.
Pass RunPass(const std::vector<data::Dataset>& datasets, uint64_t seed,
             Tracer* tracer) {
  Pass pass;
  featgraph::FeatureExtractor extractor;
  Timer timer;
  double cpu0 = ProcessCpuSeconds();
  {
    ScopedSpan span(tracer, "advisor.label_corpus");
    pass.corpus = advisor::LabelCorpus(datasets, Testbed(seed), extractor);
  }
  pass.label_s = timer.ElapsedSeconds();
  pass.cpu_s = ProcessCpuSeconds() - cpu0;

  std::vector<featgraph::FeatureGraph> fit_graphs, held_graphs;
  std::vector<advisor::DatasetLabel> fit_labels, held_labels;
  for (size_t i = 0; i < pass.corpus.size(); ++i) {
    bool held = i % kHeldOutEvery == kHeldOutEvery - 1;
    (held ? held_graphs : fit_graphs).push_back(pass.corpus.graphs[i]);
    (held ? held_labels : fit_labels).push_back(pass.corpus.labels[i]);
  }
  advisor::AutoCe advisor(AdvisorConfig(seed));
  timer.Reset();
  Status st;
  {
    ScopedSpan span(tracer, "advisor.fit");
    st = advisor.Fit(fit_graphs, fit_labels);
  }
  pass.fit_s = timer.ElapsedSeconds();
  if (!st.ok()) {
    std::printf("# fit failed: %s\n", st.ToString().c_str());
    return pass;
  }
  Digest labels;
  double log_qerror = 0.0;
  int trained = 0;
  for (const auto& l : pass.corpus.labels) {
    AddLabel(l, &labels);
    pass.failed_cells += l.NumFailed();
    for (size_t m = 0; m < ce::kNumModels; ++m) {
      if (l.failed[m]) continue;
      log_qerror += std::log(l.qerror_mean[m]);
      ++trained;
    }
  }
  pass.label_digest = labels.value();
  pass.model_digest = advisor.ModelDigest();
  pass.rcs_size = advisor.RcsSize();
  pass.qerror_geomean = trained > 0 ? std::exp(log_qerror / trained) : 0.0;
  pass.score_ratio = ScoreRatio(advisor, held_graphs, held_labels);
  return pass;
}

/// Replays one dataset's labeling through the public steps on the calling
/// thread, with the per-dataset and per-cell seeds of LabelCorpus and
/// RunTestbed, so each step gets its own span.
advisor::DatasetLabel ReplayDataset(const data::Dataset& ds,
                                    const ce::TestbedConfig& base, size_t i,
                                    Tracer* tracer) {
  ce::TestbedConfig cfg = base;
  cfg.seed = base.seed ^ (0x9E3779B97F4A7C15ULL * (i + 1));
  Rng rng(cfg.seed);
  query::WorkloadParams wp = cfg.workload;
  wp.num_queries = cfg.num_train_queries + cfg.num_test_queries;
  std::vector<query::Query> all;
  {
    ScopedSpan span(tracer, "query.workload", i);
    all = query::GenerateWorkload(ds, wp, &rng);
  }
  std::vector<double> cards;
  {
    ScopedSpan span(tracer, "engine.true_cards", i);
    cards = engine::TrueCardinalities(ds, all);
  }
  const size_t n_train = static_cast<size_t>(cfg.num_train_queries);
  std::vector<query::Query> train_q(all.begin(), all.begin() + n_train);
  std::vector<double> train_c(cards.begin(), cards.begin() + n_train);
  ce::TrainContext ctx;
  ctx.dataset = &ds;
  ctx.train_queries = &train_q;
  ctx.train_cards = &train_c;

  ce::TestbedResult result;
  for (ce::ModelId id : ce::AllModels()) {
    const std::string key = ModelKey(id);
    ce::ModelPerformance perf;
    perf.id = id;
    const uint64_t base_seed =
        cfg.seed ^ (static_cast<uint64_t>(id) * 0x9E3779B9ULL);
    for (int attempt = 0; attempt < ce::kTestbedMaxAttempts && !perf.trained_ok;
         ++attempt) {
      ctx.seed = attempt == 0 ? base_seed
                              : util::FaultKeyMix(base_seed, 0x52455452ULL);
      auto model = ce::CreateModel(id, cfg.scale);
      Status st;
      {
        ScopedSpan span(tracer, "ce.train." + key, i);
        st = model->Train(ctx);
      }
      if (!st.ok()) continue;
      std::vector<double> qerrors;
      bool finite = true;
      {
        ScopedSpan span(tracer, "ce.infer." + key, i);
        for (size_t q = n_train; q < all.size() && finite; ++q) {
          double est = model->EstimateCardinality(all[q]);
          finite = std::isfinite(est);
          qerrors.push_back(ce::QError(est, cards[q]));
        }
      }
      if (!finite) continue;
      perf.qerror = ce::SummarizeQErrors(qerrors);
      perf.qerror.mean = ce::SelectQErrorAggregate(perf.qerror, cfg.qerror_metric);
      perf.latency_mean_ms = ce::ReferenceInferenceLatencyMs(id);
      perf.trained_ok = std::isfinite(perf.qerror.mean);
    }
    result.models.push_back(perf);
  }
  ScopedSpan span(tracer, "advisor.make_label", i);
  return advisor::MakeLabel(result);
}

}  // namespace

void RunTrain(const Args& args, Report* report) {
  const int threads = util::GlobalParallelism();
  std::vector<double> setup_s;
  std::vector<data::Dataset> datasets;
  for (int rep = 0; rep < 9; ++rep) {  // milliseconds each: take a median of many
    Timer t;
    datasets = MakeCorpus(args.seed);
    setup_s.push_back(t.ElapsedSeconds());
  }
  int tables = 0;
  for (const auto& d : datasets) tables += d.NumTables();
  report->Header("datasets", static_cast<int64_t>(datasets.size()));
  report->Header("tables", static_cast<int64_t>(tables));
  report->Header("held_out_datasets",
                 static_cast<int64_t>(datasets.size() / kHeldOutEvery));
  report->Header("testbed_queries", static_cast<int64_t>(
      Testbed(0).num_train_queries + Testbed(0).num_test_queries));

  // Timed phase: whole passes until the time is used. Every pass trains
  // the same corpus, so labels and the model digest must repeat exactly.
  std::vector<Pass> passes;
  Timer phase;
  while (passes.empty() || phase.ElapsedSeconds() < args.seconds) {
    passes.push_back(RunPass(datasets, args.seed, nullptr));
    const Pass& p = passes.back();
    std::printf("# pass %zu: label %.3fs fit %.3fs\n", passes.size(), p.label_s,
                p.fit_s);
    report->attempted += datasets.size() * ce::kNumModels;
    report->failed += static_cast<uint64_t>(p.failed_cells);
    report->Check(p.model_digest != 0, "fit failed");
    report->Check(p.label_digest == passes[0].label_digest,
                  "labels differ between passes at one seed");
    report->Check(p.model_digest == passes[0].model_digest,
                  "ModelDigest differs between passes at one seed");
  }

  if (!args.trace) {
    std::vector<double> pass_ms, label_s;
    for (const Pass& p : passes) {
      pass_ms.push_back(1e3 * (p.label_s + p.fit_s));
      label_s.push_back(p.label_s);
    }
    report->Set("setup_s", Median(setup_s), "s");
    report->Set("latency_p50_ms", Median(pass_ms), "ms");
    report->Set("latency_p99_ms", Pct(pass_ms, 99.0), "ms");
    // Testbed cells labeled per second of LabelCorpus.
    report->Set("throughput",
                static_cast<double>(datasets.size() * ce::kNumModels) /
                    Median(label_s),
                "1/s");
    report->Set("quality_ratio", passes[0].qerror_geomean, "ratio");
    return;
  }

  // Tracing overhead is measured against an untraced rerun of the same
  // passes made right before the traced one, so both run warm.
  phase.Reset();
  for (size_t k = 0; k < passes.size(); ++k) RunPass(datasets, args.seed, nullptr);
  const double untraced_wall = phase.ElapsedSeconds();

  // Traced phase: the same passes with a span around each call and the
  // metrics registry on.
  Tracer tracer;
  auto& registry = obs::MetricsRegistry::Instance();
  registry.Reset();
  registry.Enable();
  tracer.set_enabled(true);
  phase.Reset();
  for (size_t k = 0; k < passes.size(); ++k) {
    ScopedSpan span(&tracer, "trace.train_pass", k);
    Pass p = RunPass(datasets, args.seed, &tracer);
    report->Check(p.model_digest == passes[0].model_digest,
                  "ModelDigest differs between traced and untraced passes");
  }
  const double traced_wall = phase.ElapsedSeconds();
  registry.Disable();

  // Replay: labeling step by step on one thread, one root per dataset.
  util::SetGlobalParallelism(1);
  const ce::TestbedConfig testbed = Testbed(args.seed);
  const featgraph::FeatureExtractor extractor;
  size_t replay_mismatch = 0;
  for (size_t i = 0; i < datasets.size(); ++i) {
    ScopedSpan root(&tracer, "client.label_dataset", i);
    advisor::DatasetLabel label = ReplayDataset(datasets[i], testbed, i, &tracer);
    {
      ScopedSpan span(&tracer, "featgraph.extract", i);
      (void)extractor.Extract(datasets[i]);
    }
    if (LabelDigest(label) != LabelDigest(passes[0].corpus.labels[i])) {
      ++replay_mismatch;
    }
  }
  util::SetGlobalParallelism(threads);
  report->Check(replay_mismatch == 0,
                std::to_string(replay_mismatch) +
                    " replayed labels differ from LabelCorpus");

  ReportLayerTable(tracer, report);
  double label_s = tracer.TotalSeconds("advisor.label_corpus");
  double pass_s = tracer.TotalSeconds("trace.train_pass");
  report->Set("advisor.label_corpus_share", pass_s > 0 ? label_s / pass_s : 0,
              "ratio");
  report->Set("advisor.heldout_score_ratio", passes[0].score_ratio, "ratio");
  report->Set("advisor.fit_s",
              tracer.TotalSeconds("advisor.fit") / passes.size(), "s");
  report->Set("advisor.rcs_size", static_cast<double>(passes[0].rcs_size), "count");
  report->Set("data.generate_s", Median(setup_s), "s");
  report->Set("query.workload_s", tracer.TotalSeconds("query.workload"), "s");
  report->Set("engine.true_cards_s", tracer.TotalSeconds("engine.true_cards"),
              "s");
  for (ce::ModelId id : ce::AllModels()) {
    const std::string key = ModelKey(id);
    report->Set("ce.train_s." + key, tracer.TotalSeconds("ce.train." + key), "s");
    report->Set("ce.infer_s." + key, tracer.TotalSeconds("ce.infer." + key), "s");
  }
  report->Set("ce.cells", registry.GetCounter("testbed.cells")->value(), "count");
  report->Set("ce.cell_retries",
              registry.GetCounter("testbed.cell_retries")->value(), "count");
  report->Set("ce.cell_failures",
              registry.GetCounter("testbed.cell_failures")->value(), "count");
  ReportExtract(tracer, report);

  // Utilization of the pool over LabelCorpus, from the untraced passes:
  // idle workers waiting behind the slowest cells lower it.
  double cpu = 0.0, wall = 0.0;
  for (const Pass& p : passes) {
    cpu += p.cpu_s;
    wall += p.label_s;
  }
  report->Set("util.parallel.utilization", cpu / (wall * threads), "ratio");
  report->Set("trace.overhead_s", traced_wall - untraced_wall, "s");
  report->Set("trace.spans", static_cast<double>(tracer.spans().size()), "count");
  tracer.WriteJson(args.out_dir + "/trace_train_seed" +
                   std::to_string(args.seed) + ".json");
}

}  // namespace autoce::perfbench

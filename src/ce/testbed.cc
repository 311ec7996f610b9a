#include "ce/testbed.h"

#include <array>
#include <cctype>
#include <cmath>
#include <limits>
#include <string>

#include "engine/executor.h"
#include "obs/metrics.h"
#include "util/fault.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/timer.h"

namespace autoce::ce {

double ReferenceInferenceLatencyMs(ModelId id) {
  switch (id) {
    case ModelId::kMscn:
      return 3.3;
    case ModelId::kLwNn:
      return 0.1;
    case ModelId::kLwXgb:
      return 4.0;
    case ModelId::kDeepDb:
      return 50.3;
    case ModelId::kBayesCard:
      return 67.8;
    case ModelId::kNeuroCard:
      return 137.3;
    case ModelId::kUae:
      return 130.7;
  }
  return 1.0;
}

double SelectQErrorAggregate(const QErrorSummary& s, QErrorMetric metric) {
  switch (metric) {
    case QErrorMetric::kMean:
      return s.mean;
    case QErrorMetric::kP50:
      return s.p50;
    case QErrorMetric::kP95:
      return s.p95;
    case QErrorMetric::kP99:
      return s.p99;
  }
  return s.mean;
}

namespace {

/// Shared implementation of `RunTestbed` (post == nullptr) and
/// `RunDriftTestbed`. With a post-update dataset, every cell evaluates
/// its ONE trained model twice: against snapshot truth (exactly the
/// plain-testbed sequence, so snapshot results are bit-identical to
/// `RunTestbed`) and then against truth recomputed on the drifted data.
Result<DriftTestbedResult> RunTestbedImpl(const data::Dataset& dataset,
                                          const data::Dataset* post_ds,
                                          const TestbedConfig& config) {
  DriftTestbedResult result;
  TestbedResult& out = result.snapshot;
  Rng rng(config.seed);

  query::WorkloadParams wp = config.workload;
  wp.num_queries = config.num_train_queries + config.num_test_queries;
  std::vector<query::Query> all =
      query::GenerateWorkload(dataset, wp, &rng);
  std::vector<double> cards = engine::TrueCardinalities(dataset, all);

  out.train_queries.assign(
      all.begin(), all.begin() + config.num_train_queries);
  out.train_cards.assign(cards.begin(),
                         cards.begin() + config.num_train_queries);
  out.test_queries.assign(all.begin() + config.num_train_queries, all.end());
  out.test_cards.assign(cards.begin() + config.num_train_queries,
                        cards.end());
  if (post_ds != nullptr) {
    result.post_cards =
        engine::TrueCardinalities(*post_ds, out.test_queries);
  }

  TrainContext ctx;
  ctx.dataset = &dataset;
  ctx.train_queries = &out.train_queries;
  ctx.train_cards = &out.train_cards;

  std::vector<ModelId> ids =
      config.models.empty() ? AllModels() : config.models;

  // Counters and histograms only inside the parallel region (never
  // spans): cells run on worker threads, and trace streams must not
  // depend on thread count (DESIGN.md §5.9). The per-model timing
  // histograms carry perfbench's lowercase model keys.
  struct CellMetrics {
    obs::Counter* cells;
    obs::Counter* failures;
    obs::Counter* retries;
    std::array<obs::Histogram*, kNumModels> train_ms;  ///< by ModelId
    std::array<obs::Histogram*, kNumModels> infer_ms;
  };
  static const CellMetrics cell_metrics = [] {
    auto& reg = obs::MetricsRegistry::Instance();
    CellMetrics m{reg.GetCounter("testbed.cells"),
                  reg.GetCounter("testbed.cell_failures"),
                  reg.GetCounter("testbed.cell_retries"), {}, {}};
    for (ModelId id : AllModels()) {
      std::string key = ModelName(id);
      for (char& c : key) {
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
      }
      m.train_ms[static_cast<size_t>(id)] =
          reg.GetHistogram("testbed.train_ms", {{"model", key}});
      m.infer_ms[static_cast<size_t>(id)] =
          reg.GetHistogram("testbed.infer_ms", {{"model", key}});
    }
    return m;
  }();

  // Trains and measures one candidate on one attempt. Any failure —
  // a Train() error, an injected fault, or a non-finite estimate or
  // aggregate from a diverged model — comes back as a Status with the
  // failing site recorded in perf->failure.
  auto evaluate_cell = [&](ModelId id, const TrainContext& cell_ctx,
                           int attempt, ModelPerformance* perf,
                           ModelPerformance* post_perf) -> Status {
    auto model = CreateModel(id, config.scale);
    Timer train_timer;
    Status st = model->Train(cell_ctx);
    const double train_s = train_timer.ElapsedSeconds();
    perf->train_seconds += train_s;
    cell_metrics.train_ms[static_cast<size_t>(id)]->Observe(1e3 * train_s);
    if (st.ok() &&
        util::FaultPoint(util::fault_sites::kTestbedTrain,
                         util::FaultKeyMix(cell_ctx.seed,
                                           static_cast<uint64_t>(attempt)))) {
      st = Status::Internal("injected training fault");
    }
    if (!st.ok()) {
      perf->failure.site = util::fault_sites::kTestbedTrain;
      return st;
    }

    std::vector<double> qerrors;
    qerrors.reserve(out.test_queries.size());
    Timer infer_timer;
    for (size_t i = 0; i < out.test_queries.size(); ++i) {
      double est = model->EstimateCardinality(out.test_queries[i]);
      if (util::FaultPoint(util::fault_sites::kTestbedEstimate,
                           util::FaultKeyMix(cell_ctx.seed, i))) {
        est = std::numeric_limits<double>::quiet_NaN();
      }
      if (!std::isfinite(est)) {
        perf->failure.site = util::fault_sites::kTestbedEstimate;
        return Status::Internal("non-finite estimate for test query " +
                                std::to_string(i));
      }
      qerrors.push_back(QError(est, out.test_cards[i]));
    }
    const double infer_ms = infer_timer.ElapsedMillis();
    cell_metrics.infer_ms[static_cast<size_t>(id)]->Observe(infer_ms);
    perf->latency_mean_ms =
        infer_ms /
        static_cast<double>(std::max<size_t>(1, out.test_queries.size()));
    if (config.emulate_reference_latency) {
      // Use the reference cost alone: labels become fully
      // deterministic (measured wall-clock varies run to run and the
      // advisor experiments are sensitive to label perturbations).
      perf->latency_mean_ms = ReferenceInferenceLatencyMs(id);
    }
    perf->qerror = SummarizeQErrors(qerrors);
    // The advisor's accuracy score reads qerror.mean; fold the chosen
    // aggregate into that slot so the rest of the pipeline is
    // metric-agnostic.
    perf->qerror.mean =
        SelectQErrorAggregate(perf->qerror, config.qerror_metric);
    if (!std::isfinite(perf->qerror.mean) ||
        !std::isfinite(perf->latency_mean_ms)) {
      perf->failure.site = util::fault_sites::kTestbedEstimate;
      return Status::Internal("non-finite Q-error/latency aggregate");
    }
    if (post_perf == nullptr) return Status::OK();

    // Post-update pass: the SAME trained model, the SAME test queries,
    // truth recomputed on the drifted data. Reference latency is kept —
    // drift changes the data a model faces, not the original system's
    // per-query inference cost (the DESIGN.md substitution).
    std::vector<double> post_qerrors;
    post_qerrors.reserve(out.test_queries.size());
    for (size_t i = 0; i < out.test_queries.size(); ++i) {
      double est = model->EstimateCardinality(out.test_queries[i]);
      if (util::FaultPoint(util::fault_sites::kTestbedEstimate,
                           util::FaultKeyMix(cell_ctx.seed ^ 0xD81F7ULL, i))) {
        est = std::numeric_limits<double>::quiet_NaN();
      }
      if (!std::isfinite(est)) {
        perf->failure.site = util::fault_sites::kTestbedEstimate;
        return Status::Internal("non-finite post-update estimate for query " +
                                std::to_string(i));
      }
      post_qerrors.push_back(QError(est, result.post_cards[i]));
    }
    post_perf->id = id;
    post_perf->train_seconds = perf->train_seconds;
    post_perf->latency_mean_ms = perf->latency_mean_ms;
    post_perf->qerror = SummarizeQErrors(post_qerrors);
    post_perf->qerror.mean =
        SelectQErrorAggregate(post_perf->qerror, config.qerror_metric);
    if (!std::isfinite(post_perf->qerror.mean)) {
      perf->failure.site = util::fault_sites::kTestbedEstimate;
      return Status::Internal("non-finite post-update Q-error aggregate");
    }
    return Status::OK();
  };

  // Candidate models are independent testbed cells: each gets its own
  // seed (a pure function of config.seed and the model id) and its own
  // copy of the shared read-only context, so cells evaluate in parallel
  // with results landing in id order. A failing cell gets one retry
  // with a derived seed (so an unlucky initialization does not repeat
  // verbatim); a cell that still fails is recorded trained_ok = false
  // with its FailureInfo and sentinel metrics.
  struct CellOut {
    ModelPerformance snap;
    ModelPerformance post;
  };
  std::vector<CellOut> cells =
      util::ParallelMap(0, ids.size(), 1, [&](size_t cell) {
    ModelId id = ids[cell];
    CellOut co;
    ModelPerformance& perf = co.snap;
    perf.id = id;
    co.post.id = id;
    TrainContext cell_ctx = ctx;
    const uint64_t base_seed =
        config.seed ^ (static_cast<uint64_t>(id) * 0x9E3779B9ULL);

    cell_metrics.cells->Add();
    Status last;
    for (int attempt = 0; attempt < kTestbedMaxAttempts; ++attempt) {
      cell_ctx.seed = attempt == 0
                          ? base_seed
                          : util::FaultKeyMix(base_seed, 0x52455452ULL);
      if (attempt > 0) cell_metrics.retries->Add();
      perf.failure = FailureInfo{};
      last = evaluate_cell(id, cell_ctx, attempt, &perf,
                           post_ds != nullptr ? &co.post : nullptr);
      perf.failure.attempts = attempt + 1;
      if (last.ok()) break;
    }
    perf.trained_ok = last.ok();
    co.post.trained_ok = last.ok();
    if (!last.ok()) {
      cell_metrics.failures->Add();
      perf.failure.cause = last.ToString();
      // A model that fails to train is maximally penalized so the
      // advisor never recommends it for this dataset; MakeLabel maps
      // these sentinels to the worst-normalized score without letting
      // them contaminate the other models' normalization.
      perf.qerror = QErrorSummary{};
      perf.qerror.mean = 1e9;
      perf.latency_mean_ms = 1e9;
      co.post.failure = perf.failure;
      co.post.qerror = perf.qerror;
      co.post.latency_mean_ms = perf.latency_mean_ms;
    } else {
      perf.failure = FailureInfo{};
    }
    return co;
  });
  out.models.reserve(cells.size());
  if (post_ds != nullptr) result.post_update.reserve(cells.size());
  for (CellOut& co : cells) {
    out.models.push_back(std::move(co.snap));
    if (post_ds != nullptr) result.post_update.push_back(std::move(co.post));
  }
  return result;
}

}  // namespace

Result<TestbedResult> RunTestbed(const data::Dataset& dataset,
                                 const TestbedConfig& config) {
  auto result = RunTestbedImpl(dataset, nullptr, config);
  if (!result.ok()) return result.status();
  return std::move(result->snapshot);
}

Result<DriftTestbedResult> RunDriftTestbed(const data::Dataset& snapshot_ds,
                                           const data::Dataset& drifted_ds,
                                           const TestbedConfig& config) {
  if (drifted_ds.NumTables() != snapshot_ds.NumTables()) {
    return Status::InvalidArgument(
        "drifted dataset has a different table count than the snapshot");
  }
  for (int t = 0; t < snapshot_ds.NumTables(); ++t) {
    if (drifted_ds.table(t).NumColumns() != snapshot_ds.table(t).NumColumns()) {
      return Status::InvalidArgument(
          "drifted dataset has a different schema than the snapshot");
    }
  }
  return RunTestbedImpl(snapshot_ds, &drifted_ds, config);
}

}  // namespace autoce::ce

#include "advisor/label.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/parallel.h"

namespace autoce::advisor {

std::vector<double> DatasetLabel::ScoreVector(double w_a) const {
  w_a = std::clamp(w_a, 0.0, 1.0);
  std::vector<double> out(ce::kNumModels);
  for (int m = 0; m < ce::kNumModels; ++m) {
    out[static_cast<size_t>(m)] =
        w_a * accuracy_score[static_cast<size_t>(m)] +
        (1.0 - w_a) * efficiency_score[static_cast<size_t>(m)];
  }
  return out;
}

ce::ModelId DatasetLabel::BestModel(double w_a) const {
  auto s = ScoreVector(w_a);
  size_t best = 0;
  for (size_t m = 1; m < s.size(); ++m) {
    if (s[m] > s[best]) best = m;
  }
  return static_cast<ce::ModelId>(best);
}

double DatasetLabel::DError(ce::ModelId chosen, double w_a) const {
  auto s = ScoreVector(w_a);
  double s_opt = *std::max_element(s.begin(), s.end());
  double s_m = std::max(s[static_cast<size_t>(chosen)], 1e-6);
  return (s_opt - s_m) / s_m;
}

std::vector<double> DatasetLabel::ConcatScores(
    const std::vector<double>& weights) const {
  std::vector<double> out;
  out.reserve(weights.size() * ce::kNumModels);
  for (double w : weights) {
    auto s = ScoreVector(w);
    out.insert(out.end(), s.begin(), s.end());
  }
  return out;
}

DatasetLabel DatasetLabel::Mixup(const DatasetLabel& a, const DatasetLabel& b,
                                 double lambda) {
  lambda = std::clamp(lambda, 0.0, 1.0);
  DatasetLabel out;
  for (size_t m = 0; m < ce::kNumModels; ++m) {
    out.accuracy_score[m] =
        lambda * a.accuracy_score[m] + (1 - lambda) * b.accuracy_score[m];
    out.efficiency_score[m] =
        lambda * a.efficiency_score[m] + (1 - lambda) * b.efficiency_score[m];
    out.qerror_mean[m] =
        lambda * a.qerror_mean[m] + (1 - lambda) * b.qerror_mean[m];
    out.latency_ms[m] =
        lambda * a.latency_ms[m] + (1 - lambda) * b.latency_ms[m];
    // A virtual sample interpolated from a failed cell inherits the
    // failure: its score is part sentinel, not a real measurement.
    out.failed[m] = a.failed[m] || b.failed[m];
  }
  return out;
}

int DatasetLabel::NumFailed() const {
  int n = 0;
  for (bool f : failed) n += f ? 1 : 0;
  return n;
}

DatasetLabel MakeLabel(const ce::TestbedResult& result) {
  DatasetLabel label;
  AUTOCE_CHECK(result.models.size() <= ce::kNumModels);

  // Start from the sentinel: every model is failed with the worst
  // normalized score and capped raw metrics; measured-ok cells below
  // overwrite their slots. Models the testbed never ran (subset
  // configs) therefore stay sentinel-scored too.
  for (size_t m = 0; m < ce::kNumModels; ++m) {
    label.failed[m] = true;
    label.accuracy_score[m] = kScoreFloor;
    label.efficiency_score[m] = kScoreFloor;
    label.qerror_mean[m] = kQErrorCap;
    label.latency_ms[m] = kLatencyCapMs;
  }

  // Eq. 3-4 normalization over the cells that actually trained; a
  // failed cell's garbage metrics must not move anyone's min/max.
  std::vector<double> log_qe, log_lat;
  for (const auto& perf : result.models) {
    if (!perf.trained_ok || !std::isfinite(perf.qerror.mean) ||
        !std::isfinite(perf.latency_mean_ms)) {
      continue;
    }
    log_qe.push_back(
        std::log(std::clamp(perf.qerror.mean, 1.0, kQErrorCap)));
    log_lat.push_back(
        std::log(std::clamp(perf.latency_mean_ms, 1e-6, kLatencyCapMs)));
  }
  if (log_qe.empty()) return label;  // all cells failed: pure sentinel
  double qe_max = *std::max_element(log_qe.begin(), log_qe.end());
  double qe_min = *std::min_element(log_qe.begin(), log_qe.end());
  double lat_max = *std::max_element(log_lat.begin(), log_lat.end());
  double lat_min = *std::min_element(log_lat.begin(), log_lat.end());

  size_t ok_idx = 0;
  for (const auto& perf : result.models) {
    size_t m = static_cast<size_t>(perf.id);
    if (!perf.trained_ok || !std::isfinite(perf.qerror.mean) ||
        !std::isfinite(perf.latency_mean_ms)) {
      continue;
    }
    label.failed[m] = false;
    label.qerror_mean[m] = perf.qerror.mean;
    label.latency_ms[m] = perf.latency_mean_ms;
    double sa = (qe_max - qe_min < 1e-12)
                    ? 1.0
                    : (qe_max - log_qe[ok_idx]) / (qe_max - qe_min);
    double se = (lat_max - lat_min < 1e-12)
                    ? 1.0
                    : (lat_max - log_lat[ok_idx]) / (lat_max - lat_min);
    label.accuracy_score[m] = kScoreFloor + (1.0 - kScoreFloor) * sa;
    label.efficiency_score[m] = kScoreFloor + (1.0 - kScoreFloor) * se;
    ++ok_idx;
  }
  return label;
}

LabeledCorpus LabelCorpus(std::vector<data::Dataset> datasets,
                          const ce::TestbedConfig& testbed,
                          const featgraph::FeatureExtractor& extractor,
                          bool verbose) {
  LabeledCorpus corpus;
  corpus.datasets = std::move(datasets);
  const size_t n = corpus.datasets.size();
  // Span on the calling thread only; per-dataset work inside the
  // ParallelMap records counters (testbed.* in ce/testbed.cc), never
  // spans, so simulated-clock traces stay thread-count invariant.
  obs::TraceSpan span("advisor.label_corpus");
  obs::Counter* labeled =
      obs::MetricsRegistry::Instance().GetCounter("advisor.labeled_datasets");

  // Stage-1 labeling is embarrassingly parallel across datasets: every
  // testbed run derives its seed purely from (corpus seed, dataset
  // index), so cells compute identical labels at any thread count and
  // land in index-addressed slots. Within a worker, RunTestbed's own
  // model-level parallelism degrades to the sequential path (nested
  // regions run inline), so the decomposition stays deterministic.
  struct LabeledCell {
    featgraph::FeatureGraph graph;
    DatasetLabel label;
  };
  std::atomic<size_t> progress{0};
  auto cells = util::ParallelMap(0, n, 1, [&](size_t i) {
    const data::Dataset& ds = corpus.datasets[i];
    ce::TestbedConfig cfg = testbed;
    cfg.seed = testbed.seed ^ (0x9E3779B97F4A7C15ULL * (i + 1));
    auto result = ce::RunTestbed(ds, cfg);
    if (!result.ok()) {
      // A testbed that cannot even generate its workload yields a pure
      // sentinel label (every cell failed) instead of aborting the
      // whole corpus; the sentinel is constant, so determinism holds.
      AUTOCE_LOG(Warning) << "testbed failed for dataset " << ds.name()
                          << ": " << result.status().ToString();
      return LabeledCell{extractor.Extract(ds),
                         MakeLabel(ce::TestbedResult{})};
    }
    LabeledCell cell{extractor.Extract(ds), MakeLabel(*result)};
    labeled->Add();
    size_t done = progress.fetch_add(1, std::memory_order_relaxed) + 1;
    if (verbose && done % 25 == 0) {
      AUTOCE_LOG(Info) << "labeled " << done << "/" << n << " datasets";
    }
    return cell;
  });

  corpus.graphs.reserve(n);
  corpus.labels.reserve(n);
  for (auto& cell : cells) {
    corpus.graphs.push_back(std::move(cell.graph));
    corpus.labels.push_back(std::move(cell.label));
  }
  return corpus;
}

}  // namespace autoce::advisor

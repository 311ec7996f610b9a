#include "bench/support/drift_label.h"

#include <atomic>
#include <utility>

#include "obs/metrics.h"
#include "util/logging.h"
#include "util/parallel.h"

namespace autoce::dyn {

Result<DriftLabel> MakeDriftLabel(const data::Dataset& dataset,
                                  const MutationConfig& drift,
                                  const DriftLabelConfig& config) {
  data::Dataset drifted = dataset;
  auto applied = ApplyEpochs(&drifted, drift, config.epochs);
  if (!applied.ok()) return applied.status();
  auto result = ce::RunDriftTestbed(dataset, drifted, config.testbed);
  if (!result.ok()) return result.status();
  DriftLabel out;
  out.snapshot = advisor::MakeLabel(result->snapshot);
  ce::TestbedResult post;
  post.models = std::move(result->post_update);
  out.post_update = advisor::MakeLabel(post);
  return out;
}

advisor::LabeledCorpus DriftLabeledCorpus::AsCorpus(double drift_weight) const {
  advisor::LabeledCorpus out;
  out.datasets = datasets;
  out.graphs = graphs;
  out.labels.reserve(size());
  for (size_t i = 0; i < size(); ++i) {
    out.labels.push_back(advisor::DatasetLabel::Mixup(
        snapshot_labels[i], post_labels[i], 1.0 - drift_weight));
  }
  return out;
}

DriftLabeledCorpus LabelCorpusUnderDrift(std::vector<RegimeDataset> corpus,
                                         const DriftLabelConfig& config,
                                         const featgraph::FeatureExtractor&
                                             extractor,
                                         bool verbose) {
  DriftLabeledCorpus out;
  const size_t n = corpus.size();
  obs::Counter* labeled = obs::MetricsRegistry::Instance().GetCounter(
      "dyn.drift_labeled_datasets");

  struct LabeledCell {
    featgraph::FeatureGraph graph;
    DriftLabel label;
  };
  // The LabelCorpus decomposition: per-dataset seeds are pure functions
  // of (corpus seed, index), so labels land in index-addressed slots
  // identically at any thread count. Each worker copies + drifts its
  // own dataset; the source corpus is read-only here.
  std::atomic<size_t> progress{0};
  auto cells = util::ParallelMap(0, n, 1, [&](size_t i) {
    const RegimeDataset& rd = corpus[i];
    DriftLabelConfig cfg = config;
    cfg.testbed.seed =
        config.testbed.seed ^ (0x9E3779B97F4A7C15ULL * (i + 1));
    auto label = MakeDriftLabel(rd.dataset, rd.drift, cfg);
    if (!label.ok()) {
      AUTOCE_LOG(Warning) << "drift testbed failed for dataset "
                          << rd.dataset.name() << ": "
                          << label.status().ToString();
      DriftLabel sentinel;
      sentinel.snapshot = advisor::MakeLabel(ce::TestbedResult{});
      sentinel.post_update = sentinel.snapshot;
      return LabeledCell{extractor.Extract(rd.dataset), sentinel};
    }
    labeled->Add();
    size_t done = progress.fetch_add(1, std::memory_order_relaxed) + 1;
    if (verbose && done % 25 == 0) {
      AUTOCE_LOG(Info) << "drift-labeled " << done << "/" << n << " datasets";
    }
    return LabeledCell{extractor.Extract(rd.dataset), *std::move(label)};
  });

  out.datasets.reserve(n);
  out.graphs.reserve(n);
  out.regimes.reserve(n);
  out.snapshot_labels.reserve(n);
  out.post_labels.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.datasets.push_back(std::move(corpus[i].dataset));
    out.regimes.push_back(corpus[i].regime);
    out.graphs.push_back(std::move(cells[i].graph));
    out.snapshot_labels.push_back(std::move(cells[i].label.snapshot));
    out.post_labels.push_back(std::move(cells[i].label.post_update));
  }
  return out;
}

}  // namespace autoce::dyn

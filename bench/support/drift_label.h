#ifndef AUTOCE_BENCH_SUPPORT_DRIFT_LABEL_H_
#define AUTOCE_BENCH_SUPPORT_DRIFT_LABEL_H_

#include <vector>

#include "advisor/label.h"
#include "ce/testbed.h"
#include "dyn/mutation.h"
#include "dyn/regime.h"
#include "featgraph/featgraph.h"
#include "util/result.h"

namespace autoce::dyn {

/// \brief One dataset's score vectors at the snapshot AND after K drift
/// epochs (DESIGN.md §5.14): both go through `advisor::MakeLabel`, so
/// the post-update variant keeps every substitution the snapshot label
/// carries (reference latency, sentinel scoring of failed cells).
struct DriftLabel {
  advisor::DatasetLabel snapshot;
  advisor::DatasetLabel post_update;

  /// Robustness-blended label: element-wise Mixup with `drift_weight`
  /// on the post-update side (0 = snapshot-only, 1 = post-only). This
  /// is what a drift-aware advisor fits on: models that look good at
  /// the snapshot but collapse under drift lose score mass.
  advisor::DatasetLabel Blended(double drift_weight) const {
    return advisor::DatasetLabel::Mixup(snapshot, post_update,
                                        1.0 - drift_weight);
  }
};

/// Drift-labeling knobs.
struct DriftLabelConfig {
  ce::TestbedConfig testbed;
  /// Epochs applied before re-scoring (the "K" of the post-update
  /// variant; the acceptance drill uses >= 3).
  int epochs = 3;
  /// Drift model for datasets without a per-dataset config.
  MutationConfig drift;
};

/// Labels one dataset under drift: copies it, applies `config.epochs`
/// mutation epochs, then runs `ce::RunDriftTestbed` (train once on the
/// snapshot, score against both snapshots of the truth). The caller's
/// dataset is NOT mutated.
Result<DriftLabel> MakeDriftLabel(const data::Dataset& dataset,
                                  const MutationConfig& drift,
                                  const DriftLabelConfig& config);

/// A regime-tagged, drift-labeled corpus (the bench substrate):
/// index-aligned datasets, graphs, regimes, and both label variants.
struct DriftLabeledCorpus {
  std::vector<data::Dataset> datasets;
  std::vector<featgraph::FeatureGraph> graphs;
  std::vector<RegimeVector> regimes;
  std::vector<advisor::DatasetLabel> snapshot_labels;
  std::vector<advisor::DatasetLabel> post_labels;

  size_t size() const { return snapshot_labels.size(); }

  /// View as a plain labeled corpus under either label variant
  /// (datasets/graphs copied; labels per `drift_weight` blend).
  advisor::LabeledCorpus AsCorpus(double drift_weight) const;
};

/// Drift-labels a regime corpus (ParallelMap with content-derived
/// per-dataset seeds — bit-identical at any `AUTOCE_THREADS`). A
/// dataset whose testbed fails entirely gets the constant all-failed
/// sentinel label in both variants. Each dataset drifts under its own
/// regime's `MutationConfig`.
DriftLabeledCorpus LabelCorpusUnderDrift(std::vector<RegimeDataset> corpus,
                                         const DriftLabelConfig& config,
                                         const featgraph::FeatureExtractor&
                                             extractor,
                                         bool verbose = false);

}  // namespace autoce::dyn

#endif  // AUTOCE_BENCH_SUPPORT_DRIFT_LABEL_H_

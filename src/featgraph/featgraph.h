#ifndef AUTOCE_FEATGRAPH_FEATGRAPH_H_
#define AUTOCE_FEATGRAPH_FEATGRAPH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "nn/matrix.h"

namespace autoce::featgraph {

/// Layout configuration of feature graphs. The vertex dimension must be
/// identical for every dataset an encoder sees, so `max_columns` is a
/// corpus-level constant (tables with more columns contribute their first
/// `max_columns` columns; smaller tables are zero-padded), mirroring the
/// paper's padding scheme (Sec. V-A2).
struct FeatureGraphConfig {
  int max_columns = 8;

  /// Per-column features: skewness, kurtosis, log-domain, log-range,
  /// normalized stddev, normalized mean (k = 6, as in paper Example 3).
  static constexpr int kFeaturesPerColumn = 6;

  /// Vertex vector width: (k + m) * m + 2.
  int VertexDim() const {
    return (kFeaturesPerColumn + max_columns) * max_columns + 2;
  }
};

/// \brief A dataset modeled as a graph: one vertex per table (flattened
/// column features + table features), one weighted edge per PK-FK join
/// (weight = join correlation).
struct FeatureGraph {
  std::string dataset_name;
  nn::Matrix vertices;  ///< n x VertexDim()
  nn::Matrix edges;     ///< n x n, symmetric; 0 = no join

  int NumVertices() const { return static_cast<int>(vertices.rows()); }
};

/// FNV-1a fingerprint of a feature graph's content (name, shape,
/// vertex/edge bytes). The serving embedding cache and the adaptation
/// loop key on it: queue dedup, fault/kill decisions, per-item labeler
/// seeds, the replay dedup against the trainer's RCS, and the
/// persisted `QUARANTINE.log`, so its values must never change.
uint64_t GraphFingerprint(const FeatureGraph& graph);

/// \brief Extracts feature graphs from datasets (paper Sec. V-A).
///
/// Feature extraction is the inverse of the dataset generator: per-column
/// skewness/kurtosis/domain/range/deviation statistics, positional
/// pairwise column correlations (inverse of F2), and PK-FK join
/// correlations (inverse of F3).
class FeatureExtractor {
 public:
  explicit FeatureExtractor(FeatureGraphConfig config = {});

  const FeatureGraphConfig& config() const { return config_; }
  size_t vertex_dim() const {
    return static_cast<size_t>(config_.VertexDim());
  }

  FeatureGraph Extract(const data::Dataset& dataset) const;

  /// Flattens a feature graph into a fixed-width vector (vertices padded
  /// to `max_tables` plus the padded edge matrix) — used by the Knn
  /// baseline, raw-feature drift detection, and Mixup.
  std::vector<double> Flatten(const FeatureGraph& graph,
                              int max_tables) const;

 private:
  FeatureGraphConfig config_;
};

/// Validates a feature graph against the extractor layout it must have
/// been produced with: non-empty vertex set, vertex width equal to
/// `expected_vertex_dim`, a square n x n edge matrix, and all-finite
/// entries. Returns InvalidArgument with a specific diagnosis — the
/// shared gate `AutoCe::Fit` and `Recommend` apply before touching
/// encoder weights.
Status ValidateGraph(const FeatureGraph& graph, size_t expected_vertex_dim);

/// Linear interpolation of two feature graphs (Mixup, paper Eq. 14):
/// graphs are zero-padded to a common vertex count, then
/// G' = lambda * G_a + (1 - lambda) * G_b.
FeatureGraph MixupGraphs(const FeatureGraph& a, const FeatureGraph& b,
                         double lambda);

}  // namespace autoce::featgraph

#endif  // AUTOCE_FEATGRAPH_FEATGRAPH_H_

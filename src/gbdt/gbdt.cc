#include "gbdt/gbdt.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/logging.h"

namespace autoce::gbdt {

namespace {

constexpr int kMinSamplesLeaf = 4;
/// Candidate thresholds (feature quantiles) tried per feature.
constexpr int kNumCandidateSplits = 16;
/// Shrinkage applied to every boosted tree.
constexpr double kLearningRate = 0.2;

double MeanOf(const std::vector<double>& targets,
              const std::vector<int>& rows) {
  if (rows.empty()) return 0.0;
  double s = 0.0;
  for (int r : rows) s += targets[static_cast<size_t>(r)];
  return s / static_cast<double>(rows.size());
}

double SseOf(const std::vector<double>& targets, const std::vector<int>& rows,
             double mean) {
  double s = 0.0;
  for (int r : rows) {
    double d = targets[static_cast<size_t>(r)] - mean;
    s += d * d;
  }
  return s;
}

}  // namespace

int RegressionTree::BuildNode(
    const std::vector<std::vector<double>>& features,
    const std::vector<double>& targets, std::vector<int>* rows, int depth,
    const GbdtParams& params) {
  int node_id = static_cast<int>(nodes_.size());
  nodes_.emplace_back();
  double mean = MeanOf(targets, *rows);
  nodes_[static_cast<size_t>(node_id)].value = mean;

  if (depth >= params.max_depth ||
      static_cast<int>(rows->size()) < 2 * kMinSamplesLeaf) {
    return node_id;
  }

  double parent_sse = SseOf(targets, *rows, mean);
  if (parent_sse < 1e-12) return node_id;

  size_t num_features = features[static_cast<size_t>((*rows)[0])].size();
  int best_feature = -1;
  double best_threshold = 0.0;
  double best_gain = 1e-9;

  std::vector<double> values;
  values.reserve(rows->size());
  for (size_t f = 0; f < num_features; ++f) {
    values.clear();
    for (int r : *rows) {
      values.push_back(features[static_cast<size_t>(r)][f]);
    }
    std::sort(values.begin(), values.end());
    if (values.front() == values.back()) continue;

    for (int q = 1; q <= kNumCandidateSplits; ++q) {
      size_t pos = values.size() * static_cast<size_t>(q) /
                   static_cast<size_t>(kNumCandidateSplits + 1);
      pos = std::min(pos, values.size() - 1);
      double threshold = values[pos];
      if (threshold == values.back()) continue;  // nothing on the right

      // Evaluate split: left = (x <= threshold).
      double left_sum = 0.0, right_sum = 0.0;
      int left_n = 0, right_n = 0;
      for (int r : *rows) {
        double v = features[static_cast<size_t>(r)][f];
        if (v <= threshold) {
          left_sum += targets[static_cast<size_t>(r)];
          ++left_n;
        } else {
          right_sum += targets[static_cast<size_t>(r)];
          ++right_n;
        }
      }
      if (left_n < kMinSamplesLeaf || right_n < kMinSamplesLeaf) {
        continue;
      }
      double left_mean = left_sum / left_n;
      double right_mean = right_sum / right_n;
      double child_sse = 0.0;
      for (int r : *rows) {
        double v = features[static_cast<size_t>(r)][f];
        double m = (v <= threshold) ? left_mean : right_mean;
        double d = targets[static_cast<size_t>(r)] - m;
        child_sse += d * d;
      }
      double gain = parent_sse - child_sse;
      if (gain > best_gain) {
        best_gain = gain;
        best_feature = static_cast<int>(f);
        best_threshold = threshold;
      }
    }
  }

  if (best_feature < 0) return node_id;

  std::vector<int> left_rows, right_rows;
  for (int r : *rows) {
    if (features[static_cast<size_t>(r)][static_cast<size_t>(best_feature)] <=
        best_threshold) {
      left_rows.push_back(r);
    } else {
      right_rows.push_back(r);
    }
  }
  rows->clear();
  rows->shrink_to_fit();

  int left_id = BuildNode(features, targets, &left_rows, depth + 1, params);
  int right_id = BuildNode(features, targets, &right_rows, depth + 1, params);

  Node& node = nodes_[static_cast<size_t>(node_id)];
  node.is_leaf = false;
  node.feature = best_feature;
  node.threshold = best_threshold;
  node.left = left_id;
  node.right = right_id;
  return node_id;
}

void RegressionTree::Fit(const std::vector<std::vector<double>>& features,
                         const std::vector<double>& targets,
                         const std::vector<int>& row_indices,
                         const GbdtParams& params) {
  AUTOCE_CHECK(features.size() == targets.size());
  nodes_.clear();
  if (row_indices.empty()) {
    nodes_.emplace_back();  // single zero leaf
    return;
  }
  std::vector<int> rows = row_indices;
  BuildNode(features, targets, &rows, 0, params);
}

double RegressionTree::Predict(const std::vector<double>& row) const {
  if (nodes_.empty()) return 0.0;
  int id = 0;
  while (!nodes_[static_cast<size_t>(id)].is_leaf) {
    const Node& n = nodes_[static_cast<size_t>(id)];
    id = (row[static_cast<size_t>(n.feature)] <= n.threshold) ? n.left
                                                              : n.right;
  }
  return nodes_[static_cast<size_t>(id)].value;
}

GradientBoosting::GradientBoosting(GbdtParams params)
    : params_(std::move(params)) {}

void GradientBoosting::Fit(const std::vector<std::vector<double>>& features,
                           const std::vector<double>& targets) {
  AUTOCE_CHECK(features.size() == targets.size());
  trees_.clear();
  if (features.empty()) {
    base_prediction_ = 0.0;
    return;
  }

  double s = 0.0;
  for (double t : targets) s += t;
  base_prediction_ = s / static_cast<double>(targets.size());

  std::vector<double> residuals(targets.size());
  std::vector<double> current(targets.size(), base_prediction_);

  std::vector<int> all_rows(features.size());
  for (size_t i = 0; i < all_rows.size(); ++i) all_rows[i] = static_cast<int>(i);

  for (int t = 0; t < params_.num_trees; ++t) {
    for (size_t i = 0; i < targets.size(); ++i) {
      residuals[i] = targets[i] - current[i];
    }
    RegressionTree tree;
    tree.Fit(features, residuals, all_rows, params_);
    for (size_t i = 0; i < features.size(); ++i) {
      current[i] += kLearningRate * tree.Predict(features[i]);
    }
    trees_.push_back(std::move(tree));
  }
}

double GradientBoosting::Predict(const std::vector<double>& row) const {
  double out = base_prediction_;
  for (const auto& tree : trees_) {
    out += kLearningRate * tree.Predict(row);
  }
  return out;
}

}  // namespace autoce::gbdt

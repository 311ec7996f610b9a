#ifndef AUTOCE_GBDT_GBDT_H_
#define AUTOCE_GBDT_GBDT_H_

#include <cstddef>
#include <vector>

namespace autoce::gbdt {

/// Hyperparameters for regression trees and gradient boosting. Leaves
/// hold at least 4 rows, each feature tries 16 quantile thresholds, and
/// boosting shrinks every tree by 0.2 (constants in gbdt.cc).
struct GbdtParams {
  int num_trees = 40;
  int max_depth = 5;
};

/// \brief A binary regression tree trained with variance-reduction splits.
///
/// Nodes are stored in a flat vector; this is the weak learner of
/// `GradientBoosting` and is also usable standalone.
class RegressionTree {
 public:
  /// Fits the tree to (features, targets); `row_indices` selects the
  /// training subset.
  void Fit(const std::vector<std::vector<double>>& features,
           const std::vector<double>& targets,
           const std::vector<int>& row_indices, const GbdtParams& params);

  /// Predicted value for one feature row.
  double Predict(const std::vector<double>& row) const;

  size_t NumNodes() const { return nodes_.size(); }

 private:
  struct Node {
    bool is_leaf = true;
    int feature = -1;
    double threshold = 0.0;
    double value = 0.0;  // leaf prediction
    int left = -1;
    int right = -1;
  };

  int BuildNode(const std::vector<std::vector<double>>& features,
                const std::vector<double>& targets, std::vector<int>* rows,
                int depth, const GbdtParams& params);

  std::vector<Node> nodes_;
};

/// \brief Gradient boosting with squared loss — the tree-ensemble engine
/// behind the LW-XGB cardinality estimator (paper baseline (2)).
///
/// With squared loss, each stage fits a regression tree to the current
/// residuals, exactly the classic XGBoost-style additive model without
/// second-order terms (sufficient at the scales of this library).
class GradientBoosting {
 public:
  explicit GradientBoosting(GbdtParams params = {});

  /// Trains on a dense feature matrix; `features.size()` rows.
  void Fit(const std::vector<std::vector<double>>& features,
           const std::vector<double>& targets);

  /// Predicted value for one feature row.
  double Predict(const std::vector<double>& row) const;

  size_t NumTrees() const { return trees_.size(); }

 private:
  GbdtParams params_;
  double base_prediction_ = 0.0;
  std::vector<RegressionTree> trees_;
};

}  // namespace autoce::gbdt

#endif  // AUTOCE_GBDT_GBDT_H_

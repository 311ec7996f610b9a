#ifndef AUTOCE_CE_SPN_H_
#define AUTOCE_CE_SPN_H_

#include <vector>

#include "data/dataset.h"
#include "engine/histogram.h"
#include "query/query.h"
#include "util/rng.h"

namespace autoce::ce {

/// \brief A sum-product network over one table — the density model of the
/// DeepDB estimator (Hilprecht et al.).
///
/// Structure learning follows the RSPN recipe: sum nodes partition rows
/// (2-means clustering), product nodes partition columns (connected
/// components of |Pearson correlation| above a threshold), leaves hold
/// per-column histograms with an independence assumption inside the leaf.
class SumProductNetwork {
 public:
  struct Params {
    int min_slice = 150;       ///< stop splitting below this many rows
    int max_depth = 6;
    double corr_threshold = 0.3;
    int num_bins = 8;
    int corr_sample = 400;     ///< rows sampled for correlation tests
    int kmeans_iters = 5;
  };

  SumProductNetwork() = default;

  /// Learns the SPN over the given columns of `table`.
  void Fit(const data::Table& table, const std::vector<int>& columns,
           const Params& params, Rng* rng);

  /// Probability that a random row satisfies all `preds` (each predicate's
  /// `column` must be one of the fitted columns).
  double Probability(const std::vector<query::Predicate>& preds) const;

  /// Number of nodes (diagnostics / tests).
  size_t NumNodes() const { return nodes_.size(); }

 private:
  enum class NodeKind { kLeaf, kSum, kProduct };

  struct Node {
    NodeKind kind = NodeKind::kLeaf;
    std::vector<int> columns;            // table-column ids in scope
    std::vector<int> children;           // node ids
    std::vector<double> weights;         // for sum nodes
    // Leaf payload: one histogram per column in `columns`.
    std::vector<engine::EquiDepthHistogram> histograms;
  };

  int Build(const data::Table& table, const std::vector<int>& columns,
            std::vector<int32_t> rows, int depth, const Params& params,
            Rng* rng);
  int MakeLeaf(const data::Table& table, const std::vector<int>& columns,
               const std::vector<int32_t>& rows, const Params& params);
  double NodeProbability(int node,
                         const std::vector<query::Predicate>& preds) const;

  std::vector<Node> nodes_;
  int root_ = -1;
};

}  // namespace autoce::ce

#endif  // AUTOCE_CE_SPN_H_

#ifndef AUTOCE_KNN_INDEX_H_
#define AUTOCE_KNN_INDEX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "nn/matrix.h"

namespace autoce::knn {

/// One retrieved neighbor: Euclidean distance and the member index the
/// index was built with.
struct Neighbor {
  double distance = 0.0;
  size_t index = 0;
};

/// Search backend. Both are *exact* and return bit-identical neighbor
/// lists; they only differ in how much work a query does.
enum class Backend {
  kLinear,  ///< scan every usable member (the reference path)
  kVpTree,  ///< vantage-point tree with triangle-inequality pruning
};

struct IndexConfig {
  Backend backend = Backend::kVpTree;
  /// Subsets at most this large become leaves of the VP-tree.
  int leaf_size = 12;
};

/// Per-query work counters, filled when a `QueryStats*` is passed to
/// `Query`. The serving bench reports them to quantify pruning.
struct QueryStats {
  size_t distance_evals = 0;  ///< exact float distance evaluations
  size_t nodes_visited = 0;
};

/// \brief Deterministic exact K-nearest-neighbor index over embeddings.
///
/// This is the one home of neighbor-selection semantics for the advisor
/// (Stage 4 / Eq. 13), the validation D-error, and the serving layer:
///
/// * Members flagged unusable at build time (non-finite embeddings) are
///   never retrieved — the `embedding_ok_` skip rule that used to live
///   separately in `AutoCe::Recommend` and `HoldOutDError`.
/// * Neighbors are ordered by the pair `(distance, index)`, so ties
///   break on the smaller member index — the same deterministic order
///   the historical `partial_sort` over `(distance, index)` pairs
///   produced, at any thread count and with any backend. Internally the
///   order is tracked as `(squared distance, index)`: sqrt is monotone,
///   so this refines the historical order — the only divergence is when
///   two *distinct* squared distances round to the same sqrt, where the
///   smaller squared distance now wins before the index tie-break. The
///   reported distance is the same `sqrt(SquaredL2)` bits as before.
/// * A non-finite query embedding retrieves nothing (callers degrade).
///
/// The VP-tree is built deterministically (pivot choice is a pure
/// function of the member ids in a subtree) and performs exact search:
/// a subtree is pruned only when the triangle inequality proves it
/// cannot contain a neighbor at least as good — under the same
/// `(distance, index)` order — as the current k-th candidate.
class Index {
 public:
  Index() = default;

  /// Builds an index over `points` (all rows must share one dimension).
  /// `usable` (empty = all usable) marks members that may be retrieved;
  /// the advisor passes its non-finite-embedding mask here.
  static Index Build(std::vector<std::vector<double>> points,
                     std::vector<char> usable = {}, IndexConfig config = {});

  /// Total number of members, including unusable ones.
  size_t size() const { return points_.size(); }

  /// Number of members eligible for retrieval.
  size_t usable_size() const { return usable_count_; }

  const IndexConfig& config() const { return config_; }

  /// The member embeddings the index was built over.
  const std::vector<std::vector<double>>& points() const { return points_; }

  /// The k nearest usable members to `query` in `(distance, index)`
  /// order. `exclude` (optional) skips one member — leave-one-out
  /// queries; `allowed` (optional, size() entries) restricts retrieval
  /// to members with a non-zero entry — the validation split filter.
  /// A non-finite query returns an empty list.
  std::vector<Neighbor> Query(std::span<const double> query, size_t k,
                              size_t exclude = SIZE_MAX,
                              const std::vector<char>* allowed = nullptr,
                              QueryStats* stats = nullptr) const;

 private:
  struct Node {
    size_t pivot = 0;       ///< member index of the vantage point
    double radius = 0.0;    ///< median pivot distance of the subtree
    int32_t inside = -1;    ///< child holding distance <= radius
    int32_t outside = -1;   ///< child holding distance > radius
    uint32_t leaf_begin = 0;  ///< leaf: range into leaf_items_
    uint32_t leaf_end = 0;
    bool is_leaf = false;
  };

  /// Running k-best entry in squared-distance space.
  struct Candidate {
    double sq = 0.0;
    size_t index = 0;
  };

  /// Flattens points_ into flat_/dim_ and builds the VP-tree nodes when
  /// that backend is selected.
  void FinishBuild();

  int32_t BuildNode(std::vector<size_t>* ids, size_t begin, size_t end);

  void SearchNode(int32_t node_id, std::span<const double> query, size_t k,
                  size_t exclude, const std::vector<char>* allowed,
                  std::vector<Candidate>* best, QueryStats* stats) const;

  /// Offers member `i` at squared distance `sq` to the running k-best
  /// list (lexicographic (sq, index) order; non-finite rejected).
  static void Offer(size_t i, double sq, size_t k,
                    std::vector<Candidate>* best);

  std::span<const double> PointSpan(size_t i) const {
    return std::span<const double>(flat_.data() + i * dim_, dim_);
  }

  std::vector<std::vector<double>> points_;
  std::vector<char> usable_;
  size_t usable_count_ = 0;
  IndexConfig config_;
  size_t dim_ = 0;
  /// Contiguous row-major copy of points_ — the scan/leaf kernels read
  /// this, not the per-member vectors.
  std::vector<double> flat_;
  std::vector<Node> nodes_;        // [0] is the root when non-empty
  std::vector<size_t> leaf_items_;
};

}  // namespace autoce::knn

#endif  // AUTOCE_KNN_INDEX_H_

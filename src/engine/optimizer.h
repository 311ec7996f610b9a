#ifndef AUTOCE_ENGINE_OPTIMIZER_H_
#define AUTOCE_ENGINE_OPTIMIZER_H_

#include <functional>
#include <memory>
#include <vector>

#include "data/dataset.h"
#include "query/query.h"
#include "util/result.h"

namespace autoce::engine {

/// \brief A physical plan node: table scan or hash join.
struct PlanNode {
  enum class Kind { kScan, kHashJoin };

  Kind kind = Kind::kScan;
  int table = -1;  ///< for kScan
  std::unique_ptr<PlanNode> left;   ///< probe side
  std::unique_ptr<PlanNode> right;  ///< build side
  data::ForeignKey edge;            ///< join edge (for kHashJoin)

  /// Cardinality the optimizer believed this node outputs (drives both
  /// join ordering and the scan-operator choice in the executor).
  double estimated_cardinality = 0.0;
  double cost = 0.0;

  /// Tables covered by this subtree, ascending.
  std::vector<int> Tables() const;

  /// Render as e.g. "HJ(HJ(Scan(t0),Scan(t1)),Scan(t2))".
  std::string ToString() const;
};

/// Callback estimating COUNT(*) of a sub-query; the optimizer builds
/// sub-queries (connected table subsets with their induced joins and
/// predicates) and asks the provider. Injecting different providers —
/// true counts, the PostgreSQL-style estimator, or any learned CE model —
/// is exactly the paper's cardinality-injection methodology (Sec. VII-D).
using CardinalityFn = std::function<double(const query::Query&)>;

/// \brief Injectable per-subplan cardinality provider.
///
/// The stateful sibling of `CardinalityFn`: implementations may cache,
/// consult persistent knowledge, or fall back across tiers (see
/// `fss::EstimatorService`). The optimizer only ever calls
/// `EstimateSubplan`, which must be infallible — providers degrade to a
/// coarse estimate rather than erroring out of join enumeration.
class CardinalitySource {
 public:
  virtual ~CardinalitySource() = default;

  /// Estimated COUNT(*) of a sub-query (>= 0; never fails).
  virtual double EstimateSubplan(const query::Query& q) = 0;
};

/// Cost-model constants (abstract units ~ row touches).
struct CostModel {
  double scan_cost_per_row = 1.0;
  double build_cost_per_row = 2.0;
  double probe_cost_per_row = 1.2;
  double output_cost_per_row = 0.3;
};

/// \brief Selinger-style dynamic-programming join-order optimizer over
/// connected subsets, with hash-join costing.
class JoinOrderOptimizer {
 public:
  JoinOrderOptimizer(const data::Dataset* dataset, CostModel cost_model = {});

  /// Builds the cheapest plan for `q` under `card_fn`. The query's joins
  /// must be a spanning tree of its tables; otherwise `CheckJoinTree`'s
  /// `InvalidArgument` surfaces, as from `TrueCardinality` and
  /// `JoinSampler`.
  Result<std::unique_ptr<PlanNode>> Optimize(const query::Query& q,
                                             const CardinalityFn& card_fn);

  /// Same, consulting a stateful `CardinalitySource` (e.g. the live
  /// `fss::EstimatorService`) for every sub-plan cardinality.
  Result<std::unique_ptr<PlanNode>> Optimize(const query::Query& q,
                                             CardinalitySource* source);

  /// The sub-query over a subset of `q`'s tables (induced joins +
  /// per-table predicates). Exposed for estimators and tests.
  static query::Query SubQuery(const query::Query& q,
                               const std::vector<int>& tables);

 private:
  const data::Dataset* dataset_;
  CostModel cost_;
};

}  // namespace autoce::engine

#endif  // AUTOCE_ENGINE_OPTIMIZER_H_

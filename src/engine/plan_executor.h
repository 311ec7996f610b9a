#ifndef AUTOCE_ENGINE_PLAN_EXECUTOR_H_
#define AUTOCE_ENGINE_PLAN_EXECUTOR_H_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "data/dataset.h"
#include "engine/optimizer.h"
#include "query/query.h"

namespace autoce::engine {

/// Observes the EXACT cardinality of every completed plan node as a
/// sub-query (the node's table subset with induced joins/predicates)
/// plus its true row count. The feedback channel the fss knowledge
/// store learns from; never called for nodes cut short by the
/// intermediate-row cap (their counts would be partial).
using SubplanObserver =
    std::function<void(const query::Query& subquery, int64_t rows)>;

/// Outcome of executing a physical plan.
struct ExecutionResult {
  int64_t output_rows = 0;
  double seconds = 0.0;
  bool completed = true;  ///< false when the intermediate cap was hit
};

/// Execution knobs.
struct ExecOptions {
  /// Abort (completed = false) once an intermediate result exceeds this
  /// many rows — the engine's statement_timeout analogue.
  int64_t max_intermediate_rows = 20'000'000;
};

/// \brief Executes physical plans for real: filtered scans (sequential or
/// index-assisted, chosen by the plan's *estimated* cardinalities) and
/// hash joins materializing row-id tuples (DESIGN.md §5.17). Wall-clock
/// time of `Execute` is the end-to-end running-time measurement of the
/// paper's Table V.
class PlanExecutor {
 public:
  explicit PlanExecutor(const data::Dataset* dataset, ExecOptions opts = {});

  /// Runs `plan` for query `q`; returns exact output count, elapsed time,
  /// and whether execution completed within the intermediate cap.
  ExecutionResult Execute(const query::Query& q, const PlanNode& plan);

  /// Installs (or clears, with nullptr semantics via an empty function)
  /// the per-node true-cardinality observer.
  void set_subplan_observer(SubplanObserver observer) {
    observer_ = std::move(observer);
  }

 private:
  /// Intermediate result: one row-id column per joined table, stored
  /// one after another in `row_ids`. A join cut short by the cap keeps
  /// only its partial tuple count.
  struct Intermediate {
    std::vector<int> tables;       // table ids
    std::vector<int32_t> row_ids;  // [table * num_tuples + tuple]
    int64_t num_tuples = 0;
    const int32_t* column(size_t i) const {
      return row_ids.data() + i * static_cast<size_t>(num_tuples);
    }
  };

  Intermediate ExecuteNode(const query::Query& q, const PlanNode& node,
                           bool* aborted);
  Intermediate ExecuteScan(const query::Query& q, const PlanNode& node);
  Intermediate ExecuteHashJoin(const PlanNode& node, const Intermediate& probe,
                               const Intermediate& build, bool* aborted);

  /// Sorted (value, row) index for one column, built lazily.
  const std::vector<std::pair<int32_t, int32_t>>& Index(int table, int column);

  const data::Dataset* dataset_;
  ExecOptions opts_;
  SubplanObserver observer_;
  std::unordered_map<int64_t, std::vector<std::pair<int32_t, int32_t>>>
      indexes_;
};

}  // namespace autoce::engine

#endif  // AUTOCE_ENGINE_PLAN_EXECUTOR_H_

#ifndef AUTOCE_ENGINE_EXECUTOR_H_
#define AUTOCE_ENGINE_EXECUTOR_H_

#include <cstdint>
#include <vector>

#include "data/dataset.h"
#include "query/query.h"
#include "util/result.h"

namespace autoce::engine {

/// Row indices passing the conjunction of `predicates`, ascending. A row
/// past the end of a predicate's (shorter) column does not pass it.
std::vector<int32_t> FilterRows(
    const data::Table& table,
    const std::vector<query::Predicate>& predicates);

/// OK when `joins` form a spanning tree of `tables`: every table is one of
/// `dataset`'s, every join's two tables are in `tables`, and the
/// |tables| - 1 joins connect them. The join-graph check of
/// `TrueCardinality`, `JoinSampler::Create` and `JoinOrderOptimizer`.
Status CheckJoinTree(const data::Dataset& dataset,
                     const std::vector<int>& tables,
                     const std::vector<data::ForeignKey>& joins);

/// \brief Exact COUNT(*) of an SPJ query.
///
/// Exploits the fact that generated join graphs are trees: cardinalities
/// are computed by bottom-up message passing (per-join-key weights),
/// which is exact and runs in O(total rows × join degree) without
/// materializing intermediate results. Returns `CheckJoinTree`'s error
/// if the query's joins are not a spanning tree of its tables.
Result<int64_t> TrueCardinality(const data::Dataset& dataset,
                                const query::Query& q);

/// Exact count over a single table with predicates.
int64_t SingleTableCardinality(const data::Table& table,
                               const std::vector<query::Predicate>& preds);

/// Computes true cardinalities for a whole workload (convenience for
/// labeling/benchmarks); queries with invalid join graphs yield 0.
std::vector<double> TrueCardinalities(const data::Dataset& dataset,
                                      const std::vector<query::Query>& qs);

}  // namespace autoce::engine

#endif  // AUTOCE_ENGINE_EXECUTOR_H_

#ifndef AUTOCE_QUERY_QUERY_H_
#define AUTOCE_QUERY_QUERY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "util/rng.h"

namespace autoce::query {

/// Predicate operator over a coded column.
enum class PredOp { kEq, kLe, kGe, kRange };

/// \brief A single-column predicate. The effective interval is always
/// [lo, hi] inclusive; `op` records the surface form for featurization.
struct Predicate {
  int table = -1;
  int column = -1;
  PredOp op = PredOp::kRange;
  int32_t lo = 1;
  int32_t hi = 1;

  /// True when the coded value satisfies the predicate.
  bool Matches(int32_t v) const { return v >= lo && v <= hi; }
};

/// \brief A select-project-join (SPJ) COUNT(*) query over a dataset:
/// a connected set of tables, the PK-FK equi-joins among them, and
/// conjunctive range/equality predicates.
struct Query {
  std::vector<int> tables;
  std::vector<data::ForeignKey> joins;
  std::vector<Predicate> predicates;

  bool IsSingleTable() const { return tables.size() == 1; }

  /// Predicates restricted to table `t`.
  std::vector<Predicate> PredicatesOn(int t) const;

  /// Readable SQL-ish rendering for logs and examples.
  std::string ToString(const data::Dataset& dataset) const;
};

/// Workload-generation knobs (paper Sec. VII-A: SPJ queries in the style
/// of the NeuroCard/UAE workloads).
struct WorkloadParams {
  int num_queries = 100;
  /// Queries touch 1..max_tables connected tables (capped by the dataset).
  int max_tables = 5;
  /// At least this many predicates per selected table; at most 2 per
  /// table and at least 1 per query overall (constants in query.cc).
  int min_predicates_per_table = 0;
  /// Probability a predicate is an equality (vs. a range).
  double eq_probability = 0.3;
};

/// Generates a random SPJ workload against `dataset`. Literal values are
/// sampled from the data so predicates are rarely empty.
std::vector<Query> GenerateWorkload(const data::Dataset& dataset,
                                    const WorkloadParams& params, Rng* rng);

/// Generates a CEB-style templated workload: `num_templates` fixed
/// (tables, joins, predicate-column) shapes, each instantiated
/// `queries_per_template` times with fresh literals. Returns queries
/// grouped template-by-template; `template_ids` (optional out) receives
/// the template index of each query.
std::vector<Query> MakeCebLikeWorkload(const data::Dataset& dataset,
                                       int num_templates,
                                       int queries_per_template, Rng* rng,
                                       std::vector<int>* template_ids);

}  // namespace autoce::query

#endif  // AUTOCE_QUERY_QUERY_H_

#ifndef AUTOCE_ENGINE_JOIN_SAMPLER_H_
#define AUTOCE_ENGINE_JOIN_SAMPLER_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "data/dataset.h"
#include "util/result.h"
#include "util/rng.h"

namespace autoce::engine {

/// \brief Uniform sampler over the rows of an (unfiltered) tree join —
/// the training-data source of the NeuroCard-style autoregressive
/// estimator, which learns from samples of the full join of the base
/// tables.
///
/// Construction runs the same bottom-up weighting as the exact counter:
/// every row's subtree weight (number of full-join rows it participates
/// in, looking away from the root) is computed once; sampling then walks
/// the join tree root-to-leaves drawing rows proportionally to subtree
/// weights, which yields exactly uniform full-join tuples.
class JoinSampler {
 public:
  /// Builds a sampler for the join over `tables` with `joins` (must form
  /// a spanning tree of `tables`, see `CheckJoinTree`; a single table
  /// with no joins is also valid).
  static Result<JoinSampler> Create(const data::Dataset* dataset,
                                    std::vector<int> tables,
                                    std::vector<data::ForeignKey> joins);

  /// Exact COUNT(*) of the unfiltered join.
  double TotalJoinSize() const { return total_size_; }

  /// Tables in output order.
  const std::vector<int>& tables() const { return tables_; }

  /// Samples one uniform full-join tuple; out[i] is a row id of
  /// tables()[i]. Returns an empty vector when the join is empty.
  std::vector<int32_t> Sample(Rng* rng) const;

 private:
  struct ChildLink {
    int child_table;        // table id
    int my_column;          // key column on this table
    // For each key value: rows of the child with that key, with
    // cumulative subtree weights for proportional sampling.
    std::unordered_map<int32_t,
                       std::vector<std::pair<int32_t, double>>>
        rows_by_key;
  };

  JoinSampler() = default;

  void SampleInto(int table, int32_t row,
                  std::vector<int32_t>* out, Rng* rng) const;

  const data::Dataset* dataset_ = nullptr;
  std::vector<int> tables_;
  std::unordered_map<int, size_t> table_pos_;
  std::unordered_map<int, std::vector<ChildLink>> links_;  // per table
  std::vector<std::pair<int32_t, double>> root_rows_;  // (row, cum weight)
  int root_ = -1;
  double total_size_ = 0.0;
};

}  // namespace autoce::engine

#endif  // AUTOCE_ENGINE_JOIN_SAMPLER_H_

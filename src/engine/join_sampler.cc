#include "engine/join_sampler.h"

#include <algorithm>
#include <functional>

#include "engine/executor.h"
#include "util/logging.h"

namespace autoce::engine {

namespace {

struct TreeEdge {
  int other;
  int my_column;
  int other_column;
};

using Adjacency = std::unordered_map<int, std::vector<TreeEdge>>;

}  // namespace

Result<JoinSampler> JoinSampler::Create(const data::Dataset* dataset,
                                        std::vector<int> tables,
                                        std::vector<data::ForeignKey> joins) {
  if (tables.empty()) return Status::InvalidArgument("no tables");
  AUTOCE_RETURN_NOT_OK(CheckJoinTree(*dataset, tables, joins));

  JoinSampler s;
  s.dataset_ = dataset;
  s.tables_ = tables;
  for (size_t i = 0; i < tables.size(); ++i) s.table_pos_[tables[i]] = i;
  s.root_ = tables[0];

  Adjacency adj;
  for (const auto& j : joins) {
    adj[j.fk_table].push_back({j.pk_table, j.fk_column, j.pk_column});
    adj[j.pk_table].push_back({j.fk_table, j.pk_column, j.fk_column});
  }

  // Recursive bottom-up weighting. Returns per-row subtree weights of `t`.
  std::function<std::vector<double>(int, int)> weigh =
      [&](int t, int parent) -> std::vector<double> {
    const data::Table& table = dataset->table(t);
    size_t n = static_cast<size_t>(table.NumRows());
    std::vector<double> w(n, 1.0);
    auto it = adj.find(t);
    if (it != adj.end()) {
      for (const auto& e : it->second) {
        if (e.other == parent) continue;
        std::vector<double> child_w = weigh(e.other, t);
        // Group child rows by their key toward us and cumulate weights.
        ChildLink link;
        link.child_table = e.other;
        link.my_column = e.my_column;
        const auto& child_keys =
            dataset->table(e.other)
                .columns[static_cast<size_t>(e.other_column)]
                .values;
        std::unordered_map<int32_t, double> key_total;
        for (size_t r = 0; r < child_keys.size(); ++r) {
          if (child_w[r] <= 0.0) continue;
          auto& vec = link.rows_by_key[child_keys[r]];
          double prev = vec.empty() ? 0.0 : vec.back().second;
          vec.emplace_back(static_cast<int32_t>(r), prev + child_w[r]);
          key_total[child_keys[r]] += child_w[r];
        }
        const auto& my_keys =
            table.columns[static_cast<size_t>(e.my_column)].values;
        for (size_t r = 0; r < n; ++r) {
          auto kt = key_total.find(my_keys[r]);
          w[r] *= (kt == key_total.end()) ? 0.0 : kt->second;
        }
        s.links_[t].push_back(std::move(link));
      }
    }
    return w;
  };

  std::vector<double> root_w = weigh(s.root_, -1);
  double cum = 0.0;
  for (size_t r = 0; r < root_w.size(); ++r) {
    if (root_w[r] <= 0.0) continue;
    cum += root_w[r];
    s.root_rows_.emplace_back(static_cast<int32_t>(r), cum);
  }
  s.total_size_ = cum;
  return s;
}

void JoinSampler::SampleInto(int table, int32_t row,
                             std::vector<int32_t>* out, Rng* rng) const {
  (*out)[table_pos_.at(table)] = row;
  auto it = links_.find(table);
  if (it == links_.end()) return;
  for (const auto& link : it->second) {
    int32_t key = dataset_->table(table)
                      .columns[static_cast<size_t>(link.my_column)]
                      .values[static_cast<size_t>(row)];
    const auto& vec = link.rows_by_key.at(key);
    double total = vec.back().second;
    double u = rng->Uniform() * total;
    auto pick = std::lower_bound(
        vec.begin(), vec.end(), u,
        [](const std::pair<int32_t, double>& a, double v) {
          return a.second < v;
        });
    AUTOCE_CHECK(pick != vec.end());
    SampleInto(link.child_table, pick->first, out, rng);
  }
}

std::vector<int32_t> JoinSampler::Sample(Rng* rng) const {
  if (root_rows_.empty()) return {};
  std::vector<int32_t> out(tables_.size(), -1);
  double u = rng->Uniform() * total_size_;
  auto pick = std::lower_bound(
      root_rows_.begin(), root_rows_.end(), u,
      [](const std::pair<int32_t, double>& a, double v) {
        return a.second < v;
      });
  if (pick == root_rows_.end()) pick = std::prev(root_rows_.end());
  SampleInto(root_, pick->first, &out, rng);
  return out;
}

}  // namespace autoce::engine

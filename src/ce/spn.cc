#include "ce/spn.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/logging.h"
#include "util/stats.h"

namespace autoce::ce {

namespace {

/// Union-find for column grouping at product nodes.
class UnionFind {
 public:
  explicit UnionFind(size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  size_t Find(size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Union(size_t a, size_t b) { parent_[Find(a)] = Find(b); }

 private:
  std::vector<size_t> parent_;
};

}  // namespace

int SumProductNetwork::MakeLeaf(const data::Table& table,
                                const std::vector<int>& columns,
                                const std::vector<int32_t>& rows,
                                const Params& params) {
  Node leaf;
  leaf.kind = NodeKind::kLeaf;
  leaf.columns = columns;
  std::vector<int32_t> slice;
  slice.reserve(rows.size());
  for (int c : columns) {
    slice.clear();
    const auto& values = table.columns[static_cast<size_t>(c)].values;
    for (int32_t r : rows) slice.push_back(values[static_cast<size_t>(r)]);
    leaf.histograms.push_back(
        engine::EquiDepthHistogram::Build(slice, params.num_bins));
  }
  nodes_.push_back(std::move(leaf));
  return static_cast<int>(nodes_.size()) - 1;
}

int SumProductNetwork::Build(const data::Table& table,
                             const std::vector<int>& columns,
                             std::vector<int32_t> rows, int depth,
                             const Params& params, Rng* rng) {
  if (static_cast<int>(rows.size()) < params.min_slice ||
      columns.size() <= 1 || depth >= params.max_depth) {
    return MakeLeaf(table, columns, rows, params);
  }

  // --- Try a product split: group columns by correlation. ---
  size_t sample_n = std::min<size_t>(rows.size(),
                                     static_cast<size_t>(params.corr_sample));
  std::vector<std::vector<double>> sampled(columns.size());
  for (size_t ci = 0; ci < columns.size(); ++ci) {
    const auto& values =
        table.columns[static_cast<size_t>(columns[ci])].values;
    sampled[ci].reserve(sample_n);
    for (size_t i = 0; i < sample_n; ++i) {
      // Deterministic stride sampling keeps this cheap and reproducible.
      size_t r = i * rows.size() / sample_n;
      sampled[ci].push_back(
          static_cast<double>(values[static_cast<size_t>(rows[r])]));
    }
  }
  UnionFind uf(columns.size());
  for (size_t a = 0; a < columns.size(); ++a) {
    for (size_t b = a + 1; b < columns.size(); ++b) {
      double corr = stats::PearsonCorrelation(sampled[a], sampled[b]);
      if (std::abs(corr) > params.corr_threshold) uf.Union(a, b);
    }
  }
  std::vector<std::vector<int>> groups;
  {
    std::vector<int> group_of_root(columns.size(), -1);
    for (size_t ci = 0; ci < columns.size(); ++ci) {
      size_t root = uf.Find(ci);
      if (group_of_root[root] < 0) {
        group_of_root[root] = static_cast<int>(groups.size());
        groups.emplace_back();
      }
      groups[static_cast<size_t>(group_of_root[root])].push_back(columns[ci]);
    }
  }
  if (groups.size() > 1) {
    Node prod;
    prod.kind = NodeKind::kProduct;
    prod.columns = columns;
    int id = static_cast<int>(nodes_.size());
    nodes_.push_back(std::move(prod));
    std::vector<int> children;
    for (const auto& g : groups) {
      children.push_back(Build(table, g, rows, depth + 1, params, rng));
    }
    nodes_[static_cast<size_t>(id)].children = std::move(children);
    return id;
  }

  // --- Sum split: 2-means over normalized column values. ---
  auto normalized = [&](int c, int32_t r) {
    const auto& col = table.columns[static_cast<size_t>(c)];
    if (col.domain_size <= 1) return 0.0;
    return static_cast<double>(col.values[static_cast<size_t>(r)] - 1) /
           static_cast<double>(col.domain_size - 1);
  };
  // Initialize centroids from two random rows.
  std::vector<double> c0(columns.size()), c1(columns.size());
  int32_t r0 = rows[static_cast<size_t>(
      rng->UniformInt(0, static_cast<int64_t>(rows.size()) - 1))];
  int32_t r1 = rows[static_cast<size_t>(
      rng->UniformInt(0, static_cast<int64_t>(rows.size()) - 1))];
  for (size_t ci = 0; ci < columns.size(); ++ci) {
    c0[ci] = normalized(columns[ci], r0);
    c1[ci] = normalized(columns[ci], r1) + 1e-6;
  }
  std::vector<char> assign(rows.size(), 0);
  for (int iter = 0; iter < params.kmeans_iters; ++iter) {
    // Assign.
    for (size_t i = 0; i < rows.size(); ++i) {
      double d0 = 0, d1 = 0;
      for (size_t ci = 0; ci < columns.size(); ++ci) {
        double v = normalized(columns[ci], rows[i]);
        d0 += (v - c0[ci]) * (v - c0[ci]);
        d1 += (v - c1[ci]) * (v - c1[ci]);
      }
      assign[i] = d1 < d0;
    }
    // Update.
    std::fill(c0.begin(), c0.end(), 0.0);
    std::fill(c1.begin(), c1.end(), 0.0);
    size_t n0 = 0, n1 = 0;
    for (size_t i = 0; i < rows.size(); ++i) {
      auto& c = assign[i] ? c1 : c0;
      (assign[i] ? n1 : n0)++;
      for (size_t ci = 0; ci < columns.size(); ++ci) {
        c[ci] += normalized(columns[ci], rows[i]);
      }
    }
    if (n0 == 0 || n1 == 0) break;
    for (size_t ci = 0; ci < columns.size(); ++ci) {
      c0[ci] /= static_cast<double>(n0);
      c1[ci] /= static_cast<double>(n1);
    }
  }
  std::vector<int32_t> rows0, rows1;
  for (size_t i = 0; i < rows.size(); ++i) {
    (assign[i] ? rows1 : rows0).push_back(rows[i]);
  }
  if (rows0.empty() || rows1.empty()) {
    return MakeLeaf(table, columns, rows, params);
  }

  Node sum;
  sum.kind = NodeKind::kSum;
  sum.columns = columns;
  double total = static_cast<double>(rows.size());
  sum.weights = {static_cast<double>(rows0.size()) / total,
                 static_cast<double>(rows1.size()) / total};
  int id = static_cast<int>(nodes_.size());
  nodes_.push_back(std::move(sum));
  rows.clear();
  rows.shrink_to_fit();
  int left = Build(table, columns, std::move(rows0), depth + 1, params, rng);
  int right = Build(table, columns, std::move(rows1), depth + 1, params, rng);
  nodes_[static_cast<size_t>(id)].children = {left, right};
  return id;
}

void SumProductNetwork::Fit(const data::Table& table,
                            const std::vector<int>& columns,
                            const Params& params, Rng* rng) {
  nodes_.clear();
  std::vector<int32_t> rows(static_cast<size_t>(table.NumRows()));
  std::iota(rows.begin(), rows.end(), 0);
  root_ = Build(table, columns, std::move(rows), 0, params, rng);
}

double SumProductNetwork::NodeProbability(
    int node, const std::vector<query::Predicate>& preds) const {
  const Node& n = nodes_[static_cast<size_t>(node)];
  switch (n.kind) {
    case NodeKind::kLeaf: {
      double p = 1.0;
      for (const auto& pred : preds) {
        auto it = std::find(n.columns.begin(), n.columns.end(), pred.column);
        if (it == n.columns.end()) continue;
        size_t idx = static_cast<size_t>(it - n.columns.begin());
        p *= n.histograms[idx].RangeSelectivity(pred.lo, pred.hi);
      }
      return p;
    }
    case NodeKind::kProduct: {
      double p = 1.0;
      for (int child : n.children) {
        const Node& cn = nodes_[static_cast<size_t>(child)];
        std::vector<query::Predicate> child_preds;
        for (const auto& pred : preds) {
          if (std::find(cn.columns.begin(), cn.columns.end(), pred.column) !=
              cn.columns.end()) {
            child_preds.push_back(pred);
          }
        }
        if (!child_preds.empty()) p *= NodeProbability(child, child_preds);
      }
      return p;
    }
    case NodeKind::kSum: {
      double p = 0.0;
      for (size_t i = 0; i < n.children.size(); ++i) {
        p += n.weights[i] * NodeProbability(n.children[i], preds);
      }
      return p;
    }
  }
  return 0.0;
}

double SumProductNetwork::Probability(
    const std::vector<query::Predicate>& preds) const {
  if (root_ < 0) return 0.0;
  if (preds.empty()) return 1.0;
  return NodeProbability(root_, preds);
}

}  // namespace autoce::ce

#include "engine/executor.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>

#include "util/logging.h"

namespace autoce::engine {

std::vector<int32_t> FilterRows(
    const data::Table& table,
    const std::vector<query::Predicate>& predicates) {
  size_t n = static_cast<size_t>(table.NumRows());
  for (const auto& p : predicates) {
    if (p.lo > p.hi) return {};
    n = std::min(n, table.columns[static_cast<size_t>(p.column)].values.size());
  }
  // The first predicate writes the ids of the rows it passes in one pass
  // over the table; each further one narrows that list in place, so it
  // stays ascending. v is in [lo, hi] iff v - lo <= hi - lo in unsigned
  // arithmetic: one compare and no branch per row.
  std::vector<int32_t> out(n);
  if (predicates.empty()) {
    std::iota(out.begin(), out.end(), 0);
    return out;
  }
  size_t kept = 0;
  for (size_t i = 0; i < predicates.size(); ++i) {
    const auto& p = predicates[i];
    const int32_t* values =
        table.columns[static_cast<size_t>(p.column)].values.data();
    const uint32_t lo = static_cast<uint32_t>(p.lo);
    const uint32_t width = static_cast<uint32_t>(p.hi) - lo;
    auto passes = [&](size_t r) {
      return static_cast<uint32_t>(values[r]) - lo <= width;
    };
    size_t k = 0;
    if (i == 0) {
      for (size_t r = 0; r < n; ++r) {
        out[k] = static_cast<int32_t>(r);
        k += passes(r);
      }
    } else {
      for (size_t j = 0; j < kept; ++j) {
        const int32_t r = out[j];
        out[k] = r;
        k += passes(static_cast<size_t>(r));
      }
    }
    kept = k;
  }
  out.resize(kept);
  return out;
}

int64_t SingleTableCardinality(const data::Table& table,
                               const std::vector<query::Predicate>& preds) {
  return static_cast<int64_t>(FilterRows(table, preds).size());
}

Status CheckJoinTree(const data::Dataset& dataset,
                     const std::vector<int>& tables,
                     const std::vector<data::ForeignKey>& joins) {
  for (int t : tables) {
    if (t < 0 || t >= dataset.NumTables()) {
      return Status::InvalidArgument(
          "query references a table not in the dataset");
    }
  }
  if (joins.size() + 1 != tables.size()) {
    return Status::InvalidArgument(
        "query join graph is not a tree (|joins| != |tables| - 1)");
  }
  // Union-find over positions in `tables`: |tables| - 1 joins connect
  // them exactly when each join merges two components.
  std::vector<size_t> root(tables.size());
  for (size_t i = 0; i < root.size(); ++i) root[i] = i;
  auto find = [&](size_t i) {
    while (root[i] != i) i = root[i] = root[root[i]];
    return i;
  };
  auto position = [&](int t) {
    return static_cast<size_t>(std::find(tables.begin(), tables.end(), t) -
                               tables.begin());
  };
  for (const auto& j : joins) {
    size_t a = position(j.fk_table), b = position(j.pk_table);
    if (a == tables.size() || b == tables.size()) {
      return Status::InvalidArgument("join references a table not in query");
    }
    a = find(a);
    b = find(b);
    if (a == b) {
      return Status::InvalidArgument("query join graph is not connected");
    }
    root[a] = b;
  }
  return Status::OK();
}

namespace {

struct JoinTree {
  // adjacency[t] = list of (neighbor table, this table's key column,
  // neighbor's key column).
  struct Edge {
    int other;
    int my_column;
    int other_column;
  };
  std::unordered_map<int, std::vector<Edge>> adjacency;
};

/// Bottom-up weight computation: returns, for table `t` (reached from
/// `parent`), a map join-key-value -> total weight of matching filtered
/// sub-join rows rooted at t. `parent_col` is t's key column toward the
/// parent; for the root it is -1 and the function returns the total count
/// in the single map entry under key 0.
bool ComputeWeights(const data::Dataset& dataset, const query::Query& q,
                    const JoinTree& tree, int t, int parent, int parent_col,
                    std::unordered_map<int32_t, double>* out) {
  const data::Table& table = dataset.table(t);

  // Recurse into children first.
  struct ChildInfo {
    int my_column;
    std::unordered_map<int32_t, double> weights;
  };
  std::vector<ChildInfo> children;
  auto it = tree.adjacency.find(t);
  if (it != tree.adjacency.end()) {
    for (const auto& e : it->second) {
      if (e.other == parent) continue;
      ChildInfo ci;
      ci.my_column = e.my_column;
      if (!ComputeWeights(dataset, q, tree, e.other, t, e.other_column,
                          &ci.weights)) {
        return false;
      }
      children.push_back(std::move(ci));
    }
  }

  out->clear();
  for (int32_t r : FilterRows(table, q.PredicatesOn(t))) {
    double w = 1.0;
    for (const auto& ci : children) {
      int32_t key =
          table.columns[static_cast<size_t>(ci.my_column)]
              .values[static_cast<size_t>(r)];
      auto wit = ci.weights.find(key);
      if (wit == ci.weights.end()) {
        w = 0.0;
        break;
      }
      w *= wit->second;
    }
    if (w == 0.0) continue;
    int32_t out_key =
        parent_col >= 0
            ? table.columns[static_cast<size_t>(parent_col)]
                  .values[static_cast<size_t>(r)]
            : 0;
    (*out)[out_key] += w;
  }
  return true;
}

}  // namespace

Result<int64_t> TrueCardinality(const data::Dataset& dataset,
                                const query::Query& q) {
  if (q.tables.empty()) {
    return Status::InvalidArgument("query has no tables");
  }
  AUTOCE_RETURN_NOT_OK(CheckJoinTree(dataset, q.tables, q.joins));
  if (q.tables.size() == 1) {
    return SingleTableCardinality(dataset.table(q.tables[0]),
                                  q.PredicatesOn(q.tables[0]));
  }
  JoinTree tree;
  for (const auto& j : q.joins) {
    tree.adjacency[j.fk_table].push_back(
        {j.pk_table, j.fk_column, j.pk_column});
    tree.adjacency[j.pk_table].push_back(
        {j.fk_table, j.pk_column, j.fk_column});
  }

  int root = q.tables[0];
  std::unordered_map<int32_t, double> total;
  if (!ComputeWeights(dataset, q, tree, root, /*parent=*/-1,
                      /*parent_col=*/-1, &total)) {
    return Status::Internal("weight computation failed");
  }
  double sum = 0.0;
  for (const auto& [k, w] : total) sum += w;
  return static_cast<int64_t>(sum + 0.5);
}

std::vector<double> TrueCardinalities(const data::Dataset& dataset,
                                      const std::vector<query::Query>& qs) {
  std::vector<double> out;
  out.reserve(qs.size());
  for (const auto& q : qs) {
    auto r = TrueCardinality(dataset, q);
    out.push_back(r.ok() ? static_cast<double>(*r) : 0.0);
  }
  return out;
}

}  // namespace autoce::engine

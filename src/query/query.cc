#include "query/query.h"

#include <algorithm>
#include <sstream>
#include <unordered_set>

#include "util/logging.h"

namespace autoce::query {

std::vector<Predicate> Query::PredicatesOn(int t) const {
  std::vector<Predicate> out;
  for (const auto& p : predicates) {
    if (p.table == t) out.push_back(p);
  }
  return out;
}

std::string Query::ToString(const data::Dataset& dataset) const {
  std::ostringstream os;
  os << "SELECT COUNT(*) FROM ";
  for (size_t i = 0; i < tables.size(); ++i) {
    if (i > 0) os << ", ";
    os << dataset.table(tables[i]).name;
  }
  bool first = true;
  for (const auto& j : joins) {
    os << (first ? " WHERE " : " AND ");
    first = false;
    os << dataset.table(j.fk_table).name << "."
       << dataset.table(j.fk_table).columns[static_cast<size_t>(j.fk_column)].name
       << " = " << dataset.table(j.pk_table).name << "."
       << dataset.table(j.pk_table).columns[static_cast<size_t>(j.pk_column)].name;
  }
  for (const auto& p : predicates) {
    os << (first ? " WHERE " : " AND ");
    first = false;
    const auto& col =
        dataset.table(p.table).columns[static_cast<size_t>(p.column)];
    switch (p.op) {
      case PredOp::kEq:
        os << col.name << " = " << p.lo;
        break;
      case PredOp::kLe:
        os << col.name << " <= " << p.hi;
        break;
      case PredOp::kGe:
        os << col.name << " >= " << p.lo;
        break;
      case PredOp::kRange:
        os << col.name << " BETWEEN " << p.lo << " AND " << p.hi;
        break;
    }
  }
  return os.str();
}

namespace {

/// Predicates drawn per selected table are at most this many.
constexpr int kMaxPredicatesPerTable = 2;
/// Every query gets at least this many predicates overall.
constexpr int kMinTotalPredicates = 1;

/// Chooses a random connected set of `target` tables over the join graph.
std::vector<int> PickConnectedTables(const data::Dataset& dataset, int target,
                                     Rng* rng) {
  std::vector<int> chosen{
      static_cast<int>(rng->UniformInt(0, dataset.NumTables() - 1))};
  std::unordered_set<int> in_set(chosen.begin(), chosen.end());
  while (static_cast<int>(chosen.size()) < target) {
    std::vector<int> frontier;
    for (int t : chosen) {
      for (const auto& fk : dataset.JoinsOf(t)) {
        int other = (fk.fk_table == t) ? fk.pk_table : fk.fk_table;
        if (!in_set.count(other)) frontier.push_back(other);
      }
    }
    if (frontier.empty()) break;
    int pick = frontier[static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(frontier.size()) - 1))];
    chosen.push_back(pick);
    in_set.insert(pick);
  }
  std::sort(chosen.begin(), chosen.end());
  return chosen;
}

/// Induced join edges over a table set.
std::vector<data::ForeignKey> InducedJoins(const data::Dataset& dataset,
                                           const std::vector<int>& tables) {
  std::unordered_set<int> in_set(tables.begin(), tables.end());
  std::vector<data::ForeignKey> out;
  for (const auto& fk : dataset.foreign_keys()) {
    if (in_set.count(fk.fk_table) && in_set.count(fk.pk_table)) {
      out.push_back(fk);
    }
  }
  return out;
}

/// Columns of `t` usable for predicates (not the PK, not an FK).
std::vector<int> PredicateColumns(const data::Dataset& dataset, int t) {
  const data::Table& tab = dataset.table(t);
  std::vector<int> out;
  for (int c = 0; c < tab.NumColumns(); ++c) {
    bool is_key = (c == tab.primary_key);
    for (const auto& fk : dataset.foreign_keys()) {
      if (fk.fk_table == t && fk.fk_column == c) is_key = true;
    }
    if (!is_key) out.push_back(c);
  }
  return out;
}

/// Draws a predicate on (t, c) with literals sampled from the data.
Predicate DrawPredicate(const data::Dataset& dataset, int t, int c,
                        double eq_probability, Rng* rng) {
  const data::Column& col =
      dataset.table(t).columns[static_cast<size_t>(c)];
  Predicate p;
  p.table = t;
  p.column = c;
  int64_t n = static_cast<int64_t>(col.values.size());
  int32_t v1 = col.values[static_cast<size_t>(rng->UniformInt(0, n - 1))];
  if (rng->Bernoulli(eq_probability)) {
    p.op = PredOp::kEq;
    p.lo = p.hi = v1;
    return p;
  }
  int32_t v2 = col.values[static_cast<size_t>(rng->UniformInt(0, n - 1))];
  int32_t lo = std::min(v1, v2), hi = std::max(v1, v2);
  switch (rng->UniformInt(0, 2)) {
    case 0:
      p.op = PredOp::kLe;
      p.lo = 1;
      p.hi = hi;
      break;
    case 1:
      p.op = PredOp::kGe;
      p.lo = lo;
      p.hi = col.domain_size;
      break;
    default:
      p.op = PredOp::kRange;
      p.lo = lo;
      p.hi = hi;
      break;
  }
  return p;
}

}  // namespace

std::vector<Query> GenerateWorkload(const data::Dataset& dataset,
                                    const WorkloadParams& params, Rng* rng) {
  AUTOCE_CHECK(dataset.NumTables() >= 1);
  std::vector<Query> out;
  out.reserve(static_cast<size_t>(params.num_queries));
  for (int qi = 0; qi < params.num_queries; ++qi) {
    Query q;
    int target = static_cast<int>(rng->UniformInt(
        1, std::min(params.max_tables, dataset.NumTables())));
    q.tables = PickConnectedTables(dataset, target, rng);
    q.joins = InducedJoins(dataset, q.tables);
    for (int t : q.tables) {
      auto cols = PredicateColumns(dataset, t);
      if (cols.empty()) continue;
      int want = static_cast<int>(rng->UniformInt(
          params.min_predicates_per_table, kMaxPredicatesPerTable));
      rng->Shuffle(&cols);
      for (int i = 0; i < std::min<int>(want, static_cast<int>(cols.size()));
           ++i) {
        q.predicates.push_back(DrawPredicate(
            dataset, t, cols[static_cast<size_t>(i)], params.eq_probability,
            rng));
      }
    }
    // Guarantee the minimum number of predicates.
    int guard = 0;
    while (static_cast<int>(q.predicates.size()) < kMinTotalPredicates &&
           guard++ < 32) {
      int t = q.tables[static_cast<size_t>(
          rng->UniformInt(0, static_cast<int64_t>(q.tables.size()) - 1))];
      auto cols = PredicateColumns(dataset, t);
      if (cols.empty()) continue;
      int c = cols[static_cast<size_t>(
          rng->UniformInt(0, static_cast<int64_t>(cols.size()) - 1))];
      q.predicates.push_back(
          DrawPredicate(dataset, t, c, params.eq_probability, rng));
    }
    out.push_back(std::move(q));
  }
  return out;
}

std::vector<Query> MakeCebLikeWorkload(const data::Dataset& dataset,
                                       int num_templates,
                                       int queries_per_template, Rng* rng,
                                       std::vector<int>* template_ids) {
  struct Template {
    std::vector<int> tables;
    std::vector<data::ForeignKey> joins;
    std::vector<std::pair<int, int>> pred_cols;  // (table, column)
    double eq_probability;
  };
  std::vector<Template> templates;
  for (int i = 0; i < num_templates; ++i) {
    Template tpl;
    int target = static_cast<int>(
        rng->UniformInt(2, std::max(2, std::min(5, dataset.NumTables()))));
    tpl.tables = PickConnectedTables(dataset, target, rng);
    tpl.joins = InducedJoins(dataset, tpl.tables);
    for (int t : tpl.tables) {
      auto cols = PredicateColumns(dataset, t);
      rng->Shuffle(&cols);
      int want = static_cast<int>(rng->UniformInt(1, 2));
      for (int c = 0; c < std::min<int>(want, static_cast<int>(cols.size()));
           ++c) {
        tpl.pred_cols.emplace_back(t, cols[static_cast<size_t>(c)]);
      }
    }
    tpl.eq_probability = rng->Uniform(0.1, 0.6);
    templates.push_back(std::move(tpl));
  }

  std::vector<Query> out;
  if (template_ids != nullptr) template_ids->clear();
  for (int ti = 0; ti < num_templates; ++ti) {
    const Template& tpl = templates[static_cast<size_t>(ti)];
    for (int qi = 0; qi < queries_per_template; ++qi) {
      Query q;
      q.tables = tpl.tables;
      q.joins = tpl.joins;
      for (const auto& [t, c] : tpl.pred_cols) {
        q.predicates.push_back(
            DrawPredicate(dataset, t, c, tpl.eq_probability, rng));
      }
      out.push_back(std::move(q));
      if (template_ids != nullptr) template_ids->push_back(ti);
    }
  }
  return out;
}

}  // namespace autoce::query

#include "engine/optimizer.h"

#include <algorithm>
#include <sstream>

#include "engine/executor.h"
#include "util/logging.h"

namespace autoce::engine {

std::vector<int> PlanNode::Tables() const {
  std::vector<int> out;
  if (kind == Kind::kScan) {
    out.push_back(table);
    return out;
  }
  auto l = left->Tables();
  auto r = right->Tables();
  out.insert(out.end(), l.begin(), l.end());
  out.insert(out.end(), r.begin(), r.end());
  std::sort(out.begin(), out.end());
  return out;
}

std::string PlanNode::ToString() const {
  if (kind == Kind::kScan) {
    std::ostringstream os;
    os << "Scan(t" << table << ")";
    return os.str();
  }
  return "HJ(" + left->ToString() + "," + right->ToString() + ")";
}

JoinOrderOptimizer::JoinOrderOptimizer(const data::Dataset* dataset,
                                       CostModel cost_model)
    : dataset_(dataset), cost_(cost_model) {}

query::Query JoinOrderOptimizer::SubQuery(const query::Query& q,
                                          const std::vector<int>& tables) {
  query::Query sub;
  sub.tables = tables;
  // A subplan joins a handful of tables: a linear scan beats hashing.
  auto in_set = [&tables](int t) {
    return std::find(tables.begin(), tables.end(), t) != tables.end();
  };
  for (const auto& j : q.joins) {
    if (in_set(j.fk_table) && in_set(j.pk_table)) sub.joins.push_back(j);
  }
  for (const auto& p : q.predicates) {
    if (in_set(p.table)) sub.predicates.push_back(p);
  }
  return sub;
}

namespace {

/// The cheapest plan of one connected subset of a query's tables: its
/// estimate and cost, and for a join the split that achieved them. The
/// DP keeps only these; the plan tree is built once, from the full set.
struct DpEntry {
  double card = 0.0;
  double cost = 0.0;
  bool valid = false;
  uint32_t probe = 0;  ///< probe-side subset; 0 for a single table
  uint32_t build = 0;  ///< build-side subset
  const data::ForeignKey* edge = nullptr;
};

std::unique_ptr<PlanNode> BuildPlan(const std::vector<DpEntry>& dp,
                                    uint32_t s,
                                    const std::vector<int>& tables) {
  const DpEntry& e = dp[s];
  auto node = std::make_unique<PlanNode>();
  node->estimated_cardinality = e.card;
  node->cost = e.cost;
  if (e.probe == 0) {
    node->table = tables[static_cast<size_t>(__builtin_ctz(s))];
    return node;
  }
  node->kind = PlanNode::Kind::kHashJoin;
  node->edge = *e.edge;
  node->left = BuildPlan(dp, e.probe, tables);
  node->right = BuildPlan(dp, e.build, tables);
  return node;
}

}  // namespace

Result<std::unique_ptr<PlanNode>> JoinOrderOptimizer::Optimize(
    const query::Query& q, CardinalitySource* source) {
  AUTOCE_CHECK(source != nullptr);
  return Optimize(q, [source](const query::Query& sub) {
    return source->EstimateSubplan(sub);
  });
}

Result<std::unique_ptr<PlanNode>> JoinOrderOptimizer::Optimize(
    const query::Query& q, const CardinalityFn& card_fn) {
  size_t n = q.tables.size();
  if (n == 0) return Status::InvalidArgument("empty query");
  if (n > 12) return Status::InvalidArgument("too many tables for DP");
  AUTOCE_RETURN_NOT_OK(CheckJoinTree(*dataset_, q.tables, q.joins));

  // Local index <-> table id.
  const std::vector<int>& tables = q.tables;
  auto index_of = [&](int table) {
    for (size_t i = 0; i < n; ++i) {
      if (tables[i] == table) return static_cast<int>(i);
    }
    return -1;
  };

  // Edge bitmask connectivity: edges[i] = bitmask of neighbors of i.
  std::vector<uint32_t> neighbor_mask(n, 0);
  for (const auto& j : q.joins) {
    int a = index_of(j.fk_table), b = index_of(j.pk_table);
    neighbor_mask[static_cast<size_t>(a)] |= 1u << b;
    neighbor_mask[static_cast<size_t>(b)] |= 1u << a;
  }

  const uint32_t full = (1u << n) - 1;

  auto is_connected = [&](uint32_t s) {
    if (s == 0) return false;
    uint32_t start = s & (~s + 1);  // lowest set bit
    uint32_t visited = start;
    uint32_t frontier = start;
    while (frontier != 0) {
      uint32_t next = 0;
      for (size_t i = 0; i < n; ++i) {
        if (frontier & (1u << i)) next |= neighbor_mask[i] & s;
      }
      next &= ~visited;
      visited |= next;
      frontier = next;
    }
    return visited == s;
  };

  auto tables_of = [&](uint32_t s) {
    std::vector<int> out;
    for (size_t i = 0; i < n; ++i) {
      if (s & (1u << i)) out.push_back(tables[i]);
    }
    return out;
  };

  std::vector<DpEntry> dp(static_cast<size_t>(full) + 1);

  // Base: single tables.
  for (size_t i = 0; i < n; ++i) {
    DpEntry& e = dp[1u << i];
    e.card = std::max(0.0, card_fn(SubQuery(q, {tables[i]})));
    double base_rows =
        static_cast<double>(dataset_->table(tables[i]).NumRows());
    e.cost = cost_.scan_cost_per_row * base_rows;
    e.valid = true;
  }

  // DP over connected subsets in increasing popcount order.
  for (uint32_t s = 1; s <= full; ++s) {
    if (__builtin_popcount(s) < 2 || !is_connected(s)) continue;
    DpEntry& best = dp[s];
    double subset_card = -1.0;
    // Enumerate proper sub-splits: s1 strict non-empty subset of s.
    for (uint32_t s1 = (s - 1) & s; s1 != 0; s1 = (s1 - 1) & s) {
      uint32_t s2 = s & ~s1;
      if (s1 > s2) continue;  // each split once
      if (!dp[s1].valid || !dp[s2].valid) continue;
      if (!is_connected(s1) || !is_connected(s2)) continue;
      // Must be joinable: an edge across the cut.
      const data::ForeignKey* cut_edge = nullptr;
      for (const auto& j : q.joins) {
        int a = index_of(j.fk_table), b = index_of(j.pk_table);
        bool a1 = (s1 >> a) & 1, b1 = (s1 >> b) & 1;
        bool a2 = (s2 >> a) & 1, b2 = (s2 >> b) & 1;
        if ((a1 && b2) || (a2 && b1)) {
          cut_edge = &j;
          break;
        }
      }
      if (cut_edge == nullptr) continue;

      if (subset_card < 0.0) {
        subset_card = std::max(0.0, card_fn(SubQuery(q, tables_of(s))));
      }
      // Build on the smaller estimated side.
      uint32_t probe = s1, build = s2;
      if (dp[probe].card < dp[build].card) std::swap(probe, build);
      double cost = dp[probe].cost + dp[build].cost +
                    cost_.build_cost_per_row * dp[build].card +
                    cost_.probe_cost_per_row * dp[probe].card +
                    cost_.output_cost_per_row * subset_card;
      if (!best.valid || cost < best.cost) {
        best = {subset_card, cost, true, probe, build, cut_edge};
      }
    }
  }

  // A spanning tree joins every connected subset, the full set included.
  AUTOCE_CHECK(dp[full].valid);
  return BuildPlan(dp, full, tables);
}

}  // namespace autoce::engine

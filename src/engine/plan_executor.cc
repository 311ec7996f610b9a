#include "engine/plan_executor.h"

#include <algorithm>
#include <limits>

#include "engine/executor.h"
#include "util/logging.h"
#include "util/timer.h"

namespace autoce::engine {

namespace {

/// A scan whose estimated output is below this fraction of the table
/// uses the sorted index path ("index scan"); otherwise it scans
/// sequentially. Mirrors how injected cardinalities flip scan choices
/// in PostgreSQL (paper Table V discussion).
constexpr double kIndexScanSelectivity = 0.05;

/// A hash join's build tuples grouped by join key. A flat open-addressing
/// table (linear probing over a power of two of at least 2n slots) maps
/// each distinct key to a group, and a counting sort stores each group's
/// tuples together in build order, so a probe emits its matches in the
/// order the build side holds them.
class KeyGroups {
 public:
  /// Groups build tuples 0..n-1, whose keys are `values[rows[i]]`.
  KeyGroups(const std::vector<int32_t>& values, const int32_t* rows,
            size_t n) {
    int bits = 4;
    while ((size_t{1} << bits) < 2 * n) ++bits;
    slots_.assign(size_t{1} << bits, Slot{0, -1});
    shift_ = 64 - bits;
    start_.reserve(n + 1);
    std::vector<int32_t> group(n);
    for (size_t i = 0; i < n; ++i) {
      const int32_t key = values[static_cast<size_t>(rows[i])];
      Slot& slot = slots_[Find(key)];
      if (slot.group < 0) {
        slot = {key, static_cast<int32_t>(start_.size())};
        start_.push_back(0);
      }
      group[i] = slot.group;
      ++start_[static_cast<size_t>(slot.group)];
    }
    // Counting sort: turn counts into group end offsets, then place the
    // tuples last to first, which leaves each offset at its group's start
    // and each group in build order.
    for (size_t g = 1; g < start_.size(); ++g) start_[g] += start_[g - 1];
    tuples_.resize(n);
    for (size_t i = n; i-- > 0;) {
      tuples_[static_cast<size_t>(--start_[static_cast<size_t>(group[i])])] =
          static_cast<int32_t>(i);
    }
    start_.push_back(static_cast<int32_t>(n));
  }

  /// Group of `key`, or -1 when no build tuple has it.
  int32_t Group(int32_t key) const { return slots_[Find(key)].group; }

  /// Build tuples of group `g`, in build order.
  const int32_t* begin(int32_t g) const {
    return tuples_.data() + start_[static_cast<size_t>(g)];
  }
  const int32_t* end(int32_t g) const {
    return tuples_.data() + start_[static_cast<size_t>(g) + 1];
  }
  int32_t size(int32_t g) const {
    return start_[static_cast<size_t>(g) + 1] - start_[static_cast<size_t>(g)];
  }

 private:
  struct Slot {
    int32_t key;
    int32_t group;  ///< -1: empty
  };

  /// Slot holding `key`, or the empty slot ending its probe sequence.
  /// Fibonacci hashing spreads dense codes.
  size_t Find(int32_t key) const {
    const size_t mask = slots_.size() - 1;
    size_t i = static_cast<size_t>(
        (static_cast<uint64_t>(static_cast<uint32_t>(key)) *
         0x9E3779B97F4A7C15ULL) >> shift_);
    while (slots_[i].group >= 0 && slots_[i].key != key) i = (i + 1) & mask;
    return i;
  }

  std::vector<Slot> slots_;
  int shift_ = 0;
  std::vector<int32_t> start_;   ///< group g: tuples_[start_[g], start_[g+1])
  std::vector<int32_t> tuples_;  ///< build tuple ids, grouped by key
};

}  // namespace

PlanExecutor::PlanExecutor(const data::Dataset* dataset, ExecOptions opts)
    : dataset_(dataset), opts_(opts) {}

const std::vector<std::pair<int32_t, int32_t>>& PlanExecutor::Index(
    int table, int column) {
  int64_t key = (static_cast<int64_t>(table) << 32) | column;
  auto it = indexes_.find(key);
  if (it != indexes_.end()) return it->second;
  const auto& values =
      dataset_->table(table).columns[static_cast<size_t>(column)].values;
  std::vector<std::pair<int32_t, int32_t>> idx;
  idx.reserve(values.size());
  for (size_t r = 0; r < values.size(); ++r) {
    idx.emplace_back(values[r], static_cast<int32_t>(r));
  }
  std::sort(idx.begin(), idx.end());
  return indexes_.emplace(key, std::move(idx)).first->second;
}

PlanExecutor::Intermediate PlanExecutor::ExecuteScan(const query::Query& q,
                                                     const PlanNode& node) {
  int t = node.table;
  const data::Table& table = dataset_->table(t);
  auto preds = q.PredicatesOn(t);

  Intermediate out;
  out.tables = {t};

  double rows = static_cast<double>(table.NumRows());
  bool use_index =
      !preds.empty() &&
      node.estimated_cardinality <
          kIndexScanSelectivity * rows;

  if (!use_index) {
    out.row_ids = FilterRows(table, preds);
  } else if (preds[0].lo <= preds[0].hi) {
    // Index scan: range-probe the first predicate's index, then verify
    // the remaining predicates on the candidates. An empty range (lo >
    // hi) matches nothing, and its upper bound lies before its lower.
    const auto& pred = preds[0];
    const auto& idx = Index(t, pred.column);
    auto lo_it = std::lower_bound(
        idx.begin(), idx.end(),
        std::make_pair(pred.lo, std::numeric_limits<int32_t>::min()));
    auto hi_it = std::upper_bound(
        idx.begin(), idx.end(),
        std::make_pair(pred.hi, std::numeric_limits<int32_t>::max()));
    for (auto it = lo_it; it != hi_it; ++it) {
      int32_t r = it->second;
      bool ok = true;
      for (size_t p = 1; p < preds.size(); ++p) {
        int32_t v = table.columns[static_cast<size_t>(preds[p].column)]
                        .values[static_cast<size_t>(r)];
        if (!preds[p].Matches(v)) {
          ok = false;
          break;
        }
      }
      if (ok) out.row_ids.push_back(r);
    }
    std::sort(out.row_ids.begin(), out.row_ids.end());
  }
  out.num_tuples = static_cast<int64_t>(out.row_ids.size());
  return out;
}

PlanExecutor::Intermediate PlanExecutor::ExecuteHashJoin(
    const PlanNode& node, const Intermediate& probe,
    const Intermediate& build, bool* aborted) {
  // Locate the key column on each side.
  auto side_of = [&](const Intermediate& inter, int table) {
    for (size_t i = 0; i < inter.tables.size(); ++i) {
      if (inter.tables[i] == table) return static_cast<int>(i);
    }
    return -1;
  };

  int probe_pos = side_of(probe, node.edge.fk_table);
  int probe_col = node.edge.fk_column;
  int build_pos = side_of(build, node.edge.pk_table);
  int build_col = node.edge.pk_column;
  if (probe_pos < 0) {
    probe_pos = side_of(probe, node.edge.pk_table);
    probe_col = node.edge.pk_column;
    build_pos = side_of(build, node.edge.fk_table);
    build_col = node.edge.fk_column;
  }
  AUTOCE_CHECK(probe_pos >= 0 && build_pos >= 0);

  const auto& probe_values =
      dataset_->table(probe.tables[static_cast<size_t>(probe_pos)])
          .columns[static_cast<size_t>(probe_col)]
          .values;
  const auto& build_values =
      dataset_->table(build.tables[static_cast<size_t>(build_pos)])
          .columns[static_cast<size_t>(build_col)]
          .values;

  const KeyGroups groups(build_values,
                         build.column(static_cast<size_t>(build_pos)),
                         static_cast<size_t>(build.num_tuples));

  Intermediate out;
  out.tables = probe.tables;
  out.tables.insert(out.tables.end(), build.tables.begin(),
                    build.tables.end());

  // Count first: each probe tuple that matches, with its group. The cap
  // is checked after every such tuple, so it trips at the same probe
  // tuple, with the same partial count, as materializing tuple by tuple.
  struct Hit {
    size_t tuple;
    int32_t group;
  };
  const size_t probe_n = static_cast<size_t>(probe.num_tuples);
  std::vector<Hit> hits;
  hits.reserve(probe_n);
  const int32_t* probe_rows = probe.column(static_cast<size_t>(probe_pos));
  for (size_t i = 0; i < probe_n; ++i) {
    int32_t g =
        groups.Group(probe_values[static_cast<size_t>(probe_rows[i])]);
    if (g < 0) continue;
    hits.push_back({i, g});
    out.num_tuples += groups.size(g);
    if (out.num_tuples > opts_.max_intermediate_rows) {
      *aborted = true;
      return out;
    }
  }

  // Fill exact-size columns, one at a time: a probe tuple repeats once
  // per match, and its matches follow in build order.
  out.row_ids.resize(out.tables.size() *
                     static_cast<size_t>(out.num_tuples));
  int32_t* dst = out.row_ids.data();
  for (size_t c = 0; c < probe.tables.size(); ++c) {
    const int32_t* src = probe.column(c);
    for (const Hit& h : hits) {
      dst = std::fill_n(dst, groups.size(h.group), src[h.tuple]);
    }
  }
  for (size_t c = 0; c < build.tables.size(); ++c) {
    const int32_t* src = build.column(c);
    for (const Hit& h : hits) {
      for (const int32_t* t = groups.begin(h.group); t != groups.end(h.group);
           ++t) {
        *dst++ = src[static_cast<size_t>(*t)];
      }
    }
  }
  return out;
}

PlanExecutor::Intermediate PlanExecutor::ExecuteNode(const query::Query& q,
                                                     const PlanNode& node,
                                                     bool* aborted) {
  Intermediate out;
  if (node.kind == PlanNode::Kind::kScan) {
    out = ExecuteScan(q, node);
  } else {
    Intermediate probe = ExecuteNode(q, *node.left, aborted);
    if (*aborted) return probe;
    Intermediate build = ExecuteNode(q, *node.right, aborted);
    if (*aborted) return build;
    out = ExecuteHashJoin(node, probe, build, aborted);
    if (*aborted) return out;
  }
  if (observer_) {
    std::vector<int> tables = out.tables;
    std::sort(tables.begin(), tables.end());
    observer_(JoinOrderOptimizer::SubQuery(q, tables), out.num_tuples);
  }
  return out;
}

ExecutionResult PlanExecutor::Execute(const query::Query& q,
                                      const PlanNode& plan) {
  Timer timer;
  bool aborted = false;
  Intermediate result = ExecuteNode(q, plan, &aborted);
  ExecutionResult out;
  out.output_rows = result.num_tuples;
  out.seconds = timer.ElapsedSeconds();
  out.completed = !aborted;
  return out;
}

}  // namespace autoce::engine

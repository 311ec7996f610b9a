// Plan-execution pins: every plan's text, node estimates and costs, every
// output count, completion flag and observer call, over plans that
// between them use both build sides, bushy and left-deep trees, index and
// sequential scans, and joins cut short by the intermediate cap.

#include "engine/plan_executor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "data/generator.h"
#include "engine/executor.h"
#include "engine/histogram.h"
#include "engine/optimizer.h"
#include "query/query.h"

namespace autoce::engine {
namespace {

constexpr uint64_t kFnvBasis = 14695981039346656037ULL;

uint64_t Fold(uint64_t h, uint64_t v) { return (h ^ v) * 1099511628211ULL; }

uint64_t FoldDouble(uint64_t h, double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return Fold(h, bits);
}

uint64_t FoldQuery(uint64_t h, const query::Query& q) {
  for (int t : q.tables) h = Fold(h, static_cast<uint64_t>(t));
  for (const auto& j : q.joins) {
    for (int v : {j.fk_table, j.fk_column, j.pk_table, j.pk_column}) {
      h = Fold(h, static_cast<uint64_t>(v));
    }
  }
  for (const auto& p : q.predicates) {
    for (int v : {p.table, p.column, static_cast<int>(p.op), p.lo, p.hi}) {
      h = Fold(h, static_cast<uint64_t>(v));
    }
  }
  return h;
}

/// Which plan shapes and operators the pinned sweep reached.
struct Coverage {
  bool index_scan = false;
  bool seq_scan = false;
  bool fk_side_builds = false;
  bool pk_side_builds = false;
  bool bushy = false;
  bool left_deep = false;
};

/// Folds each node's estimate and cost bits in pre-order.
uint64_t FoldPlan(uint64_t h, const PlanNode& p, const data::Dataset& ds,
                  const query::Query& q, Coverage* cov) {
  h = FoldDouble(FoldDouble(h, p.estimated_cardinality), p.cost);
  if (p.kind == PlanNode::Kind::kScan) {
    // The executor's rule: an index scan below 5% of the table's rows.
    bool index = !q.PredicatesOn(p.table).empty() &&
                 p.estimated_cardinality <
                     0.05 * static_cast<double>(ds.table(p.table).NumRows());
    (index ? cov->index_scan : cov->seq_scan) = true;
    return h;
  }
  std::vector<int> probe = p.left->Tables();
  bool probe_has_fk = std::find(probe.begin(), probe.end(),
                                p.edge.fk_table) != probe.end();
  (probe_has_fk ? cov->pk_side_builds : cov->fk_side_builds) = true;
  bool left_join = p.left->kind == PlanNode::Kind::kHashJoin;
  bool right_join = p.right->kind == PlanNode::Kind::kHashJoin;
  if (left_join && right_join) cov->bushy = true;
  if (left_join && !right_join) cov->left_deep = true;
  h = FoldPlan(h, *p.left, ds, q, cov);
  return FoldPlan(h, *p.right, ds, q, cov);
}

/// 1-5-table datasets: a small default shape, and perfbench's fss shape
/// (skewed, attribute-correlated fan-out, 600-2000 rows per table).
std::vector<data::Dataset> PinDatasets() {
  std::vector<data::Dataset> out;
  for (int tables = 1; tables <= 5; ++tables) {
    for (int fss_shape = 0; fss_shape < 2; ++fss_shape) {
      Rng rng(900 + 10 * static_cast<uint64_t>(tables) +
              static_cast<uint64_t>(fss_shape));
      data::DatasetGenParams p;
      p.min_tables = p.max_tables = tables;
      p.min_rows = 150;
      p.max_rows = 400;
      if (fss_shape == 1) {
        p.min_columns = 1;
        p.max_columns = 6;
        p.min_domain = 20;
        p.max_domain = 2000;
        p.max_fanout_skew = 2.0;
        p.min_rows = 600;
        p.max_rows = 2000;
      }
      out.push_back(data::GenerateDataset(p, &rng));
    }
  }
  return out;
}

TEST(PlanExecutorTest, ExecutionsArePinned) {
  // Plans, scan choices, output counts, the cap's stopping point and the
  // observer stream are all the fss loop and Table V measure, so none of
  // them may change: each plan is made under true counts, histograms, a
  // constant and an inverted estimate, then executed under a cap that
  // some of them trip.
  ExecOptions opts;
  opts.max_intermediate_rows = 1000;
  uint64_t h = kFnvBasis;
  int64_t observed = 0, aborted = 0, executed = 0;
  Coverage cov;
  std::vector<data::Dataset> sweep = PinDatasets();
  for (size_t d = 0; d < sweep.size(); ++d) {
    const data::Dataset& ds = sweep[d];
    Rng rng(950 + d);
    query::WorkloadParams wp;
    wp.num_queries = 16;
    wp.max_tables = 5;
    std::vector<query::Query> queries = query::GenerateWorkload(ds, wp, &rng);

    auto true_fn = [&ds](const query::Query& sub) {
      auto r = TrueCardinality(ds, sub);
      return r.ok() ? static_cast<double>(*r) : 0.0;
    };
    PostgresStyleEstimator pg(&ds);
    std::vector<CardinalityFn> estimators = {
        true_fn,
        [&pg](const query::Query& sub) { return pg.EstimateCardinality(sub); },
        [](const query::Query&) { return 10.0; },
        [&true_fn](const query::Query& sub) {
          return 1e6 / (1.0 + true_fn(sub));
        }};

    JoinOrderOptimizer opt(&ds);
    PlanExecutor exec(&ds, opts);
    exec.set_subplan_observer([&](const query::Query& sub, int64_t rows) {
      h = Fold(FoldQuery(h, sub), static_cast<uint64_t>(rows));
      ++observed;
    });
    for (const query::Query& q : queries) {
      for (const CardinalityFn& fn : estimators) {
        auto plan = opt.Optimize(q, fn);
        ASSERT_TRUE(plan.ok()) << q.ToString(ds);
        for (char c : (*plan)->ToString()) {
          h = Fold(h, static_cast<unsigned char>(c));
        }
        h = FoldPlan(h, **plan, ds, q, &cov);
        ExecutionResult r = exec.Execute(q, **plan);
        h = Fold(Fold(h, static_cast<uint64_t>(r.output_rows)),
                 r.completed ? 1 : 0);
        ++executed;
        if (!r.completed) {
          ++aborted;
          continue;
        }
        auto truth = TrueCardinality(ds, q);
        ASSERT_TRUE(truth.ok());
        EXPECT_EQ(r.output_rows, *truth) << q.ToString(ds);
      }
    }
  }
  EXPECT_TRUE(cov.index_scan && cov.seq_scan);
  EXPECT_TRUE(cov.fk_side_builds && cov.pk_side_builds);
  EXPECT_TRUE(cov.bushy && cov.left_deep);
  EXPECT_EQ(executed, 640);
  EXPECT_EQ(aborted, 23);
  EXPECT_EQ(observed, 1962);
  EXPECT_EQ(h, 0x0CE90D0F52183620ULL);
}

/// One column named `name` with `n` values `value(i)`.
template <typename F>
data::Column MakeColumn(const std::string& name, int32_t domain, int n,
                        F value) {
  data::Column c;
  c.name = name;
  c.domain_size = domain;
  for (int i = 0; i < n; ++i) c.values.push_back(value(i));
  return c;
}

std::unique_ptr<PlanNode> Scan(int table) {
  auto node = std::make_unique<PlanNode>();
  node->table = table;
  node->estimated_cardinality = 1e9;  // sequential scans
  return node;
}

std::unique_ptr<PlanNode> Join(std::unique_ptr<PlanNode> probe,
                               std::unique_ptr<PlanNode> build,
                               data::ForeignKey edge) {
  auto node = std::make_unique<PlanNode>();
  node->kind = PlanNode::Kind::kHashJoin;
  node->left = std::move(probe);
  node->right = std::move(build);
  node->edge = edge;
  return node;
}

TEST(PlanExecutorTest, AbortedExecutionIsPinned) {
  // A chain t0 - t1 - t2 whose join keys repeat on both sides, so every
  // join fans out. The first join (1,000 tuples) stays under the cap; the
  // second (over 17,000) trips it. The partial count is where the cap check
  // stops, which depends on the tuple order of both inputs; no node above
  // the cut may be observed.
  data::Dataset ds;
  data::Table t0, t1, t2;
  t0.name = "t0";
  t0.columns.push_back(
      MakeColumn("k", 12, 60, [](int i) { return 1 + i % 12; }));
  t1.name = "t1";
  t1.columns.push_back(
      MakeColumn("a", 12, 200, [](int i) { return 1 + (i * 5) % 12; }));
  t1.columns.push_back(
      MakeColumn("b", 17, 200, [](int i) { return 1 + (i * i) % 17; }));
  t2.name = "t2";
  t2.columns.push_back(
      MakeColumn("b", 17, 300, [](int i) { return 1 + (i * i * i) % 17; }));
  ds.AddTable(t0);
  ds.AddTable(t1);
  ds.AddTable(t2);
  const data::ForeignKey e01{1, 0, 0, 0}, e12{2, 0, 1, 1};
  ASSERT_TRUE(ds.AddForeignKey(e01).ok());
  ASSERT_TRUE(ds.AddForeignKey(e12).ok());

  query::Query q;
  q.tables = {0, 1, 2};
  q.joins = {e01, e12};
  // HJ(HJ(Scan(t1), Scan(t0)), Scan(t2)): the probe side of the root is
  // the first join's output, built on the fk side t2.
  auto plan = Join(Join(Scan(1), Scan(0), e01), Scan(2), e12);

  ExecOptions opts;
  opts.max_intermediate_rows = 5000;
  PlanExecutor exec(&ds, opts);
  std::vector<std::pair<std::vector<int>, int64_t>> calls;
  exec.set_subplan_observer([&](const query::Query& sub, int64_t rows) {
    calls.emplace_back(sub.tables, rows);
  });
  ExecutionResult r = exec.Execute(q, *plan);
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.output_rows, 5007);
  const std::vector<std::pair<std::vector<int>, int64_t>> expected = {
      {{1}, 200}, {{0}, 60}, {{0, 1}, 1000}, {{2}, 300}};
  EXPECT_EQ(calls, expected);

  // Uncapped, the same plan completes with the exact count.
  PlanExecutor uncapped(&ds);
  ExecutionResult full = uncapped.Execute(q, *plan);
  EXPECT_TRUE(full.completed);
  auto truth = TrueCardinality(ds, q);
  ASSERT_TRUE(truth.ok());
  EXPECT_EQ(full.output_rows, *truth);
  EXPECT_GT(full.output_rows, opts.max_intermediate_rows);
}

TEST(PlanExecutorTest, EmptyRangeScansReturnNoRows) {
  // lo > hi matches nothing. The index path must not walk its index from
  // the lower bound past the (earlier) upper bound.
  data::Dataset ds;
  data::Table t;
  t.name = "t";
  t.columns.push_back(
      MakeColumn("x", 100, 100, [](int i) { return 1 + i; }));
  ds.AddTable(t);
  query::Query q;
  q.tables = {0};
  q.predicates = {{0, 0, query::PredOp::kRange, 60, 40}};

  PlanExecutor exec(&ds);
  auto node = Scan(0);
  EXPECT_EQ(exec.Execute(q, *node).output_rows, 0);  // sequential
  node->estimated_cardinality = 0;                    // index
  EXPECT_EQ(exec.Execute(q, *node).output_rows, 0);
}

}  // namespace
}  // namespace autoce::engine

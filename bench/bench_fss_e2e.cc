// End-to-end benchmark for the per-subplan estimator service (ISSUE 9):
// the DP join-order optimizer pulls every subplan cardinality from an
// fss::EstimatorService hosting the advisor-picked model (or a fixed
// baseline), with executor feedback folding true cardinalities into the
// persistent knowledge store. Reported per method: plan cost under true
// cardinalities, cold (empty knowledge store) vs. warmed (store
// committed by the cold pass), against the plain histogram path the
// optimizer uses today. Model selection runs as one concurrent burst
// through an AdvisorServer. Wall-clock time of the optimizer loop is
// perfbench's `fss` workload. Emits BENCH_fss.json and self-checks that
// the evaluation digest is bit-identical at AUTOCE_THREADS=1 and 8 and
// across a repeated run — the bench fails loudly if the serving path is
// ever order- or thread-dependent — and that the warmed store answers
// from knowledge what the cold pass paid model inference for.
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/common.h"
#include "ce/testbed.h"
#include "engine/executor.h"
#include "engine/histogram.h"
#include "engine/optimizer.h"
#include "engine/plan_executor.h"
#include "fss/estimator_service.h"
#include "obs/metrics.h"
#include "serve/server.h"

namespace autoce::bench {
namespace {

/// FNV-1a over raw double bits and strings (the cross-thread identity
/// witness).
class Digest {
 public:
  void Add(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int b = 0; b < 8; ++b) Byte((bits >> (8 * b)) & 0xFF);
  }
  void Add(uint64_t v) { Add(static_cast<double>(v)); }
  void Add(const std::string& s) {
    for (unsigned char c : s) Byte(c);
  }
  uint64_t value() const { return h_; }

 private:
  void Byte(uint64_t b) {
    h_ ^= b;
    h_ *= 0x100000001B3ULL;
  }
  uint64_t h_ = 0xCBF29CE484222325ULL;
};

/// Cost of a plan under true cardinalities (the optimizer's own cost
/// model, fed exact counts) — the deterministic plan-quality metric.
double TrueCostOf(const data::Dataset& ds, const engine::PlanNode& p,
                  const query::Query& q) {
  engine::CostModel cm;
  if (p.kind == engine::PlanNode::Kind::kScan) {
    return cm.scan_cost_per_row *
           static_cast<double>(ds.table(p.table).NumRows());
  }
  auto card_of = [&](const std::vector<int>& tables) {
    query::Query sub = engine::JoinOrderOptimizer::SubQuery(q, tables);
    auto r = engine::TrueCardinality(ds, sub);
    return r.ok() ? static_cast<double>(*r) : 0.0;
  };
  return TrueCostOf(ds, *p.left, q) + TrueCostOf(ds, *p.right, q) +
         cm.build_cost_per_row * card_of(p.right->Tables()) +
         cm.probe_cost_per_row * card_of(p.left->Tables()) +
         cm.output_cost_per_row * card_of(p.Tables());
}

/// Non-owning estimator shim: the bench trains each model once per
/// dataset and lends it to a service per phase.
class BorrowedModel : public ce::CardinalityEstimator {
 public:
  explicit BorrowedModel(ce::CardinalityEstimator* inner) : inner_(inner) {}
  ce::ModelId id() const override { return inner_->id(); }
  bool is_data_driven() const override { return inner_->is_data_driven(); }
  Status Train(const ce::TrainContext&) override { return Status::OK(); }
  double EstimateCardinality(const query::Query& q) override {
    return inner_->EstimateCardinality(q);
  }
  void SeedInference(uint64_t seed) override { inner_->SeedInference(seed); }

 private:
  ce::CardinalityEstimator* inner_;
};

struct PhaseTotals {
  double plan_cost = 0.0;     // true-cardinality plan cost
  uint64_t knowledge = 0;     // store entries after the phase
  uint64_t model_calls = 0;
  uint64_t knowledge_hits = 0;
};

/// Plans and executes `queries` with every subplan cardinality answered
/// by `service`; executor feedback streams true cardinalities back into
/// the service's knowledge store.
void RunServicePhase(const data::Dataset& ds,
                     const std::vector<query::Query>& queries,
                     fss::EstimatorService* service, PhaseTotals* totals,
                     Digest* digest) {
  engine::JoinOrderOptimizer opt(&ds);
  engine::PlanExecutor exec(&ds);
  exec.set_subplan_observer(service->MakeObserver());
  for (const auto& q : queries) {
    auto plan = opt.Optimize(q, service);
    if (!plan.ok()) continue;
    exec.Execute(q, **plan);  // feeds the observer
    double cost = TrueCostOf(ds, **plan, q);
    totals->plan_cost += cost;
    digest->Add((*plan)->ToString());
    digest->Add(cost);
  }
  fss::ServiceStats stats = service->stats();
  totals->knowledge = stats.knowledge_entries;
  totals->model_calls = stats.model_estimates;
  totals->knowledge_hits = stats.knowledge_hits;
  digest->Add(stats.knowledge_entries);
}

/// The plain histogram path the optimizer uses today (no service, no
/// knowledge) — the status-quo baseline every method is compared to.
void RunHistogramPhase(const data::Dataset& ds,
                       const std::vector<query::Query>& queries,
                       PhaseTotals* totals, Digest* digest) {
  engine::JoinOrderOptimizer opt(&ds);
  engine::PostgresStyleEstimator pg(&ds);
  for (const auto& q : queries) {
    auto plan = opt.Optimize(
        q, [&](const query::Query& sub) { return pg.EstimateCardinality(sub); });
    if (!plan.ok()) continue;
    double cost = TrueCostOf(ds, **plan, q);
    totals->plan_cost += cost;
    digest->Add((*plan)->ToString());
    digest->Add(cost);
  }
}

struct MethodResult {
  std::string name;
  PhaseTotals cold;
  PhaseTotals warm;
};

struct EvalResult {
  std::vector<MethodResult> methods;  // [0] = Histogram (cold == warm)
  uint64_t digest = 0;
};

/// One full evaluation pass at the current parallelism: a concurrent
/// recommendation burst through an AdvisorServer picks the model per
/// dataset, then every method plans + executes the workload cold and
/// warmed. Everything digested must be a pure function of content.
EvalResult Evaluate(const std::string& model_path, const BenchSpec& spec,
                    int eval_datasets, int queries_per_dataset,
                    int train_queries) {
  EvalResult out;
  Digest digest;

  std::vector<ce::ModelId> fixed = {ce::ModelId::kMscn, ce::ModelId::kLwXgb,
                                    ce::ModelId::kNeuroCard};

  // Deterministic eval corpus, rebuilt identically on every pass.
  // The regime where cardinality quality decides the plan: tables of
  // very different sizes (join order matters), skewed correlated join
  // fan-out and multi-predicate filters (defeats the histogram's
  // independence assumptions).
  Rng rng(77);
  data::DatasetGenParams gen = spec.gen;
  gen.min_tables = 3;
  gen.max_tables = 5;
  gen.min_rows = PaperScale() ? 2000 : 500;
  gen.max_rows = PaperScale() ? 50000 : 12000;
  gen.max_fanout_skew = 6.0;
  std::vector<data::Dataset> datasets;
  std::vector<serve::RecommendRequest> requests;
  featgraph::FeatureExtractor fx;
  for (int d = 0; d < eval_datasets; ++d) {
    Rng child = rng.Fork(static_cast<uint64_t>(d));
    datasets.push_back(data::GenerateDataset(gen, &child));
    serve::RecommendRequest req;
    req.id = static_cast<uint64_t>(d);
    req.graph = fx.Extract(datasets.back());
    req.w_a = 1.0;  // plan quality: the paper's accuracy-leaning setting
    requests.push_back(std::move(req));
  }

  // Model selection under concurrent traffic: one burst, all datasets.
  auto loaded = advisor::AutoCe::Load(model_path);
  AUTOCE_CHECK(loaded.ok());
  serve::ServerConfig scfg;
  scfg.queue_capacity = requests.size() + 1;
  serve::AdvisorServer server(std::move(*loaded), scfg);
  auto responses = server.Serve(requests);
  std::vector<ce::ModelId> picked(datasets.size());
  for (const auto& resp : responses) {
    AUTOCE_CHECK(resp.status.ok());
    picked[resp.id] = resp.recommendation.model;
    digest.Add(static_cast<uint64_t>(resp.recommendation.model));
  }

  out.methods.emplace_back();
  out.methods.back().name = "Histogram";
  for (ce::ModelId id : fixed) {
    out.methods.emplace_back();
    out.methods.back().name = ce::ModelName(id);
  }
  out.methods.emplace_back();
  out.methods.back().name = "AutoCE-picked";

  for (size_t d = 0; d < datasets.size(); ++d) {
    const data::Dataset& ds = datasets[d];
    Rng child = rng.Fork(1000 + static_cast<uint64_t>(d));
    // Train on the mixed workload; run only multi-table queries (>= 3
    // relations), the regime where a join order exists to get wrong —
    // CardBench's point about reporting E2E quality per regime.
    query::WorkloadParams wp;
    wp.num_queries = train_queries + 8 * queries_per_dataset;
    wp.max_tables = 5;
    auto all = query::GenerateWorkload(ds, wp, &child);
    std::vector<query::Query> train_q(all.begin(), all.begin() + train_queries);
    std::vector<query::Query> run_q;
    for (size_t i = static_cast<size_t>(train_queries);
         i < all.size() && run_q.size() < static_cast<size_t>(queries_per_dataset);
         ++i) {
      if (all[i].tables.size() >= 3) run_q.push_back(all[i]);
    }
    AUTOCE_CHECK(run_q.size() == static_cast<size_t>(queries_per_dataset));
    auto train_c = engine::TrueCardinalities(ds, train_q);

    // Train each model this dataset needs exactly once.
    ce::TrainContext ctx;
    ctx.dataset = &ds;
    ctx.train_queries = &train_q;
    ctx.train_cards = &train_c;
    std::map<ce::ModelId, std::unique_ptr<ce::CardinalityEstimator>> models;
    std::vector<ce::ModelId> needed = fixed;
    needed.push_back(picked[d]);
    for (ce::ModelId id : needed) {
      if (models.count(id)) continue;
      ctx.seed = 900 + static_cast<uint64_t>(id);
      models[id] = ce::CreateModel(id, spec.testbed.scale);
      AUTOCE_CHECK(models[id]->Train(ctx).ok());
    }

    RunHistogramPhase(ds, run_q, &out.methods[0].cold, &digest);

    for (size_t m = 1; m < out.methods.size(); ++m) {
      ce::ModelId id = m <= fixed.size() ? fixed[m - 1] : picked[d];
      std::string dir = "BENCH_fss_store_" + out.methods[m].name + "_" +
                        std::to_string(d) + ".tmp";
      std::filesystem::remove_all(dir);  // a genuinely cold store
      {
        auto cold = fss::EstimatorService::Open(
            dir, std::make_unique<BorrowedModel>(models[id].get()), &ds);
        AUTOCE_CHECK(cold.ok());
        RunServicePhase(ds, run_q, cold->get(), &out.methods[m].cold, &digest);
        AUTOCE_CHECK((*cold)->CommitKnowledge().ok());
      }
      auto warm = fss::EstimatorService::Open(
          dir, std::make_unique<BorrowedModel>(models[id].get()), &ds);
      AUTOCE_CHECK(warm.ok());
      AUTOCE_CHECK((*warm)->knowledge_size() > 0);
      RunServicePhase(ds, run_q, warm->get(), &out.methods[m].warm, &digest);
    }
  }
  out.methods[0].warm = out.methods[0].cold;  // no store to warm
  out.digest = digest.value();
  return out;
}

int Run() {
  std::printf("== FSS end-to-end: per-subplan estimator service behind the "
              "optimizer ==\n");

  // Offline (once): fit AutoCE on a labeled corpus, save for serving.
  BenchSpec spec = DefaultSpec(991);
  spec.num_train_datasets = PaperScale() ? 300 : 50;
  spec.num_test_datasets = 1;
  BenchData corpus = BuildCorpus(spec);
  AutoCeSelector autoce;
  AUTOCE_CHECK(autoce.Fit(corpus.train).ok());
  std::string model_path = "BENCH_fss_model.tmp";
  AUTOCE_CHECK(autoce.advisor()->Save(model_path).ok());

  int eval_datasets = PaperScale() ? 10 : 4;
  int queries_per_dataset = PaperScale() ? 60 : 12;
  int train_queries = PaperScale() ? 400 : 120;

  // The determinism sweep: same evaluation at 1 and 8 threads plus a
  // repeat; digests must agree bit-for-bit.
  std::printf("# evaluating %d datasets x %d queries (cold + warmed store, "
              "threads 1/8/8)...\n",
              eval_datasets, queries_per_dataset);
  util::SetGlobalParallelism(1);
  EvalResult at1 = Evaluate(model_path, spec, eval_datasets,
                            queries_per_dataset, train_queries);
  util::SetGlobalParallelism(8);
  EvalResult at8 = Evaluate(model_path, spec, eval_datasets,
                            queries_per_dataset, train_queries);
  EvalResult again = Evaluate(model_path, spec, eval_datasets,
                              queries_per_dataset, train_queries);
  util::SetGlobalParallelism(util::DefaultParallelism());
  bool identical = at1.digest == at8.digest && at8.digest == again.digest;
  AUTOCE_CHECK(identical);  // thread- or order-dependence is a bug

  const std::vector<MethodResult>& methods = at8.methods;
  double pg_cost = methods[0].cold.plan_cost;
  std::printf("\n");
  PrintRow({"Method", "Cold.Cost", "Warm.Cost", "Cost.vs.PG"}, 16);
  for (const auto& m : methods) {
    PrintRow({m.name, Fmt(m.cold.plan_cost, 0), Fmt(m.warm.plan_cost, 0),
              Fmt(m.warm.plan_cost / std::max(pg_cost, 1e-9), 3) + "x"},
             16);
  }
  // The DP optimizer looks up every connected subset in both passes, and
  // the warm store starts from the cold pass's knowledge: the warm pass
  // must answer some lookups from it and pay fewer model calls.
  const MethodResult& advisor_m = methods.back();
  AUTOCE_CHECK(advisor_m.warm.knowledge_hits > 0);
  AUTOCE_CHECK(advisor_m.warm.model_calls < advisor_m.cold.model_calls);
  bool beats_pg_cost = advisor_m.warm.plan_cost < pg_cost;
  std::printf(
      "\nwarmed store: %llu knowledge entries answered %llu subplan lookups;\n"
      "model calls %llu cold -> %llu warm (advisor-picked method).\n",
      static_cast<unsigned long long>(advisor_m.warm.knowledge),
      static_cast<unsigned long long>(advisor_m.warm.knowledge_hits),
      static_cast<unsigned long long>(advisor_m.cold.model_calls),
      static_cast<unsigned long long>(advisor_m.warm.model_calls));
  if (!beats_pg_cost) {
    std::printf("WARNING: advisor-picked plans cost more than the histogram "
                "baseline\n");
  }

  obs::RunManifest manifest = BenchManifest("bench_fss_e2e", spec.seed);
  char digest_hex[32];
  std::snprintf(digest_hex, sizeof(digest_hex), "%016llx",
                static_cast<unsigned long long>(at8.digest));
  manifest.AddInt("eval_datasets", eval_datasets)
      .AddInt("queries_per_dataset", queries_per_dataset)
      .AddDouble("histogram_plan_cost", pg_cost)
      .AddString("eval_digest", digest_hex)
      .AddBool("digests_identical_threads_1_8_repeat", identical)
      .AddBool("advisor_beats_histogram_plan_cost", beats_pg_cost)
      .AddInt("advisor_knowledge_entries",
              static_cast<int64_t>(advisor_m.warm.knowledge))
      .AddInt("advisor_warm_knowledge_hits",
              static_cast<int64_t>(advisor_m.warm.knowledge_hits))
      .AddInt("advisor_cold_model_calls",
              static_cast<int64_t>(advisor_m.cold.model_calls))
      .AddInt("advisor_warm_model_calls",
              static_cast<int64_t>(advisor_m.warm.model_calls));
  for (const auto& m : methods) {
    std::string key = m.name;
    for (char& c : key) {
      if (c == '-' || c == ' ') c = '_';
    }
    manifest.AddDouble(key + "_cold_plan_cost", m.cold.plan_cost)
        .AddDouble(key + "_warm_plan_cost", m.warm.plan_cost);
  }
  manifest.AddMetricsSnapshot();
  AUTOCE_CHECK(manifest.WriteTo("BENCH_fss.json"));
  std::printf("\nwrote BENCH_fss.json (digest %s)\n", digest_hex);
  std::remove(model_path.c_str());
  for (size_t m = 1; m < methods.size(); ++m) {
    for (int d = 0; d < eval_datasets; ++d) {
      std::string dir = "BENCH_fss_store_" + methods[m].name + "_" +
                        std::to_string(d) + ".tmp";
      std::filesystem::remove_all(dir);
    }
  }
  return 0;
}

}  // namespace
}  // namespace autoce::bench

int main() { return autoce::bench::Run(); }

// Serving-layer throughput harness: batched embedding vs.
// one-at-a-time, indexed (VP-tree) vs. linear-scan KNN, and SIMD vs.
// scalar dispatch for both the embed-batch and KNN kernels, over a
// default-scale RCS. Emits BENCH_serve.json with p50/p99 latency and
// QPS per batch size plus the KNN and kernel comparisons, and
// self-checks that every fast path is bit-identical to its reference
// path — the bench fails loudly if batching, indexing, or
// vectorization ever changes a recommendation.
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "bench/common.h"
#include "knn/index.h"
#include "obs/metrics.h"
#include "serve/server.h"
#include "util/simd.h"

namespace autoce::bench {
namespace {

/// FNV-1a over raw double bits (the cross-path identity witness).
class Digest {
 public:
  void Add(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int b = 0; b < 8; ++b) {
      h_ ^= (bits >> (8 * b)) & 0xFF;
      h_ *= 0x100000001B3ULL;
    }
  }
  void Add(uint64_t v) { Add(static_cast<double>(v)); }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xCBF29CE484222325ULL;
};

/// Synthetic-but-deterministic labels: serving throughput does not
/// depend on label quality, so the bench skips the testbed (which
/// trains 7 CE models per dataset) and spends its time where the
/// serving layer does — embedding and retrieval.
std::vector<advisor::DatasetLabel> SyntheticLabels(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<advisor::DatasetLabel> labels(n);
  for (auto& label : labels) {
    for (size_t m = 0; m < ce::kNumModels; ++m) {
      label.accuracy_score[m] = rng.Uniform(0.05, 1.0);
      label.efficiency_score[m] = rng.Uniform(0.05, 1.0);
      label.qerror_mean[m] = rng.Uniform(1.0, 50.0);
      label.latency_ms[m] = rng.Uniform(0.1, 120.0);
    }
  }
  return labels;
}

/// Per-backend timing and work counters for one query stream.
struct KnnBackendResult {
  double ns_per_query = 0.0;
  uint64_t distance_evals = 0;
  uint64_t digest = 0;
};

struct KnnResult {
  size_t queries = 0;
  int repeats = 0;
  int k = 0;
  KnnBackendResult linear;
  KnnBackendResult vptree;
  /// Linear scan with the kernel dispatch pinned to scalar — the
  /// committed baseline the SIMD speedup is measured against.
  KnnBackendResult linear_scalar;
  double vptree_speedup = 0.0;  // linear / vptree, same dispatch level
  double simd_speedup = 0.0;    // scalar linear / active-level linear
  bool identical = false;       // all digests equal (exactness witness)
};

KnnBackendResult TimeKnnBackend(const knn::Index& index,
                                const std::vector<std::vector<double>>& queries,
                                size_t k, int repeats) {
  KnnBackendResult res;
  Digest digest;
  Timer timer;
  for (int r = 0; r < repeats; ++r) {
    for (const auto& q : queries) {
      knn::QueryStats stats;
      auto got = index.Query(q, k, SIZE_MAX, nullptr, &stats);
      res.distance_evals += stats.distance_evals;
      if (r == 0) {
        for (const auto& n : got) {
          digest.Add(n.distance);
          digest.Add(static_cast<uint64_t>(n.index));
        }
      }
    }
  }
  double seconds = timer.ElapsedSeconds();
  res.ns_per_query =
      seconds * 1e9 / (static_cast<double>(queries.size()) * repeats);
  res.digest = digest.value();
  return res;
}

/// Linear scan vs. VP-tree over the advisor's own RCS embeddings, with
/// the advisor's query embeddings — exactly the retrieval the serving
/// layer performs per request. Also re-runs the linear scan with
/// dispatch pinned to scalar, so the JSON records the SIMD kernel
/// speedup against a bit-identical reference.
KnnResult BenchKnn(const advisor::AutoCe& advisor,
                   const std::vector<std::vector<double>>& queries,
                   int repeats) {
  KnnResult res;
  res.queries = queries.size();
  res.repeats = repeats;
  res.k = advisor.config().knn_k;
  const auto& points = advisor.rcs_index().points();

  knn::IndexConfig linear_cfg;
  linear_cfg.backend = knn::Backend::kLinear;
  knn::Index linear = knn::Index::Build(points, {}, linear_cfg);
  knn::Index vptree = knn::Index::Build(points);

  size_t k = static_cast<size_t>(res.k);
  res.linear = TimeKnnBackend(linear, queries, k, repeats);
  res.vptree = TimeKnnBackend(vptree, queries, k, repeats);

  const util::simd::Level active = util::simd::ActiveLevel();
  util::simd::SetActiveLevel(util::simd::Level::kScalar);
  res.linear_scalar = TimeKnnBackend(linear, queries, k, repeats);
  util::simd::SetActiveLevel(active);

  auto speedup = [](double base, double fast) {
    return fast > 0 ? base / fast : 0.0;
  };
  res.vptree_speedup = speedup(res.linear.ns_per_query, res.vptree.ns_per_query);
  res.simd_speedup =
      speedup(res.linear_scalar.ns_per_query, res.linear.ns_per_query);
  res.identical = res.linear.digest == res.vptree.digest &&
                  res.linear.digest == res.linear_scalar.digest;
  AUTOCE_CHECK(res.identical);  // exactness, not approximation
  return res;
}

struct EmbedResult {
  size_t graphs = 0;
  int repeats = 0;
  double active_ns_per_graph = 0.0;
  double scalar_ns_per_graph = 0.0;
  double simd_speedup = 0.0;
  bool identical = false;
};

/// Batched embedding of the query stream at the active dispatch level
/// vs. pinned-scalar — the GIN forward is where the serving layer
/// spends its time, so this is the embed-side SIMD witness.
EmbedResult BenchEmbedBatch(const advisor::AutoCe& advisor,
                            const std::vector<featgraph::FeatureGraph>& graphs,
                            int repeats) {
  EmbedResult res;
  res.graphs = graphs.size();
  res.repeats = repeats;
  std::vector<const featgraph::FeatureGraph*> graph_ptrs;
  graph_ptrs.reserve(graphs.size());
  for (const auto& g : graphs) graph_ptrs.push_back(&g);

  auto time_level = [&](util::simd::Level level, uint64_t* digest_out) {
    const util::simd::Level prev = util::simd::ActiveLevel();
    util::simd::SetActiveLevel(level);
    Digest digest;
    Timer timer;
    for (int r = 0; r < repeats; ++r) {
      auto embeddings = advisor.EmbedBatch(graph_ptrs);
      if (r == 0) {
        for (const auto& e : embeddings) {
          for (double v : e) digest.Add(v);
        }
      }
    }
    double seconds = timer.ElapsedSeconds();
    util::simd::SetActiveLevel(prev);
    *digest_out = digest.value();
    return seconds * 1e9 / (static_cast<double>(graphs.size()) * repeats);
  };

  uint64_t active_digest = 0, scalar_digest = 0;
  res.active_ns_per_graph = time_level(util::simd::ActiveLevel(), &active_digest);
  res.scalar_ns_per_graph =
      time_level(util::simd::Level::kScalar, &scalar_digest);
  res.simd_speedup = res.active_ns_per_graph > 0
                         ? res.scalar_ns_per_graph / res.active_ns_per_graph
                         : 0.0;
  res.identical = active_digest == scalar_digest;
  AUTOCE_CHECK(res.identical);  // levels never change embedding bits
  return res;
}

struct ServePoint {
  size_t batch = 0;
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  uint64_t digest = 0;  // response bits (the batch-invariance witness)
};

/// Serves `requests` in bursts of `batch` through a fresh server with
/// the cache disabled (every request pays its embedding, so the batch
/// comparison measures the stacked GIN forward, not cache luck).
ServePoint BenchServe(const std::string& path,
                      const std::vector<serve::RecommendRequest>& requests,
                      size_t batch, int repeats) {
  auto loaded = advisor::AutoCe::Load(path);
  AUTOCE_CHECK(loaded.ok());
  serve::ServerConfig cfg;
  cfg.max_batch = batch;
  cfg.queue_capacity = requests.size() + 1;
  cfg.cache_capacity = 0;
  serve::AdvisorServer server(std::move(*loaded), cfg);

  ServePoint point;
  point.batch = batch;
  std::vector<double> burst_ms;
  Digest digest;
  Timer total;
  for (int r = 0; r < repeats; ++r) {
    for (size_t b = 0; b < requests.size(); b += batch) {
      size_t end = std::min(requests.size(), b + batch);
      std::vector<serve::RecommendRequest> burst(requests.begin() + b,
                                                 requests.begin() + end);
      Timer t;
      auto responses = server.Serve(burst);
      burst_ms.push_back(t.ElapsedMillis());
      if (r == 0) {
        for (const auto& resp : responses) {
          AUTOCE_CHECK(resp.status.ok());
          digest.Add(static_cast<uint64_t>(resp.recommendation.model));
          for (double s : resp.recommendation.score_vector) digest.Add(s);
          for (size_t n : resp.recommendation.neighbors) {
            digest.Add(static_cast<uint64_t>(n));
          }
        }
      }
    }
  }
  double seconds = total.ElapsedSeconds();
  point.qps = static_cast<double>(requests.size()) * repeats / seconds;
  point.p50_ms = stats::Percentile(burst_ms, 50.0);
  point.p99_ms = stats::Percentile(burst_ms, 99.0);
  point.digest = digest.value();
  return point;
}

int Main() {
  const bool paper = PaperScale();
  const int rcs_datasets = paper ? 1000 : 150;
  const int query_datasets = paper ? 200 : 64;
  const int knn_repeats = paper ? 20 : 200;
  const int serve_repeats = paper ? 3 : 10;
  const uint64_t seed = 1234;
  Timer wall;

  data::DatasetGenParams gen;
  gen.min_tables = 1;
  gen.max_tables = 5;
  gen.min_columns = 1;
  gen.max_columns = 6;
  gen.min_domain = 20;
  gen.max_domain = 2000;
  gen.max_fanout_skew = 2.0;
  gen.min_rows = paper ? 10000 : 600;
  gen.max_rows = paper ? 50000 : 1500;

  Rng rng(seed);
  featgraph::FeatureExtractor extractor;
  Timer timer;
  auto rcs_datasets_vec = data::GenerateCorpus(gen, rcs_datasets, &rng);
  auto query_datasets_vec = data::GenerateCorpus(gen, query_datasets, &rng);
  std::vector<featgraph::FeatureGraph> rcs_graphs, query_graphs;
  for (const auto& d : rcs_datasets_vec) rcs_graphs.push_back(extractor.Extract(d));
  for (const auto& d : query_datasets_vec) {
    query_graphs.push_back(extractor.Extract(d));
  }
  std::printf("# corpus: %d RCS + %d query datasets generated in %.1fs\n",
              rcs_datasets, query_datasets, timer.ElapsedSeconds());

  timer.Reset();
  advisor::AutoCe advisor(BenchAutoCeConfig());
  Status st = advisor.Fit(rcs_graphs, SyntheticLabels(rcs_graphs.size(), 77));
  AUTOCE_CHECK(st.ok());
  std::string model_path = "BENCH_serve_model.tmp";
  AUTOCE_CHECK(advisor.Save(model_path).ok());
  std::printf("# advisor fitted in %.1fs (RCS %zu, embedding dim %d)\n",
              timer.ElapsedSeconds(), advisor.RcsSize(),
              advisor.config().gin.embedding_dim);

  // --- embed-batch kernels: active dispatch level vs. scalar --------
  EmbedResult embed =
      BenchEmbedBatch(advisor, query_graphs, paper ? 2 : 5);
  std::printf("# embed-batch: %.0f ns/graph at %s vs %.0f ns/graph scalar "
              "(%.2fx, bit-identical: %s)\n",
              embed.active_ns_per_graph,
              util::simd::LevelName(util::simd::ActiveLevel()),
              embed.scalar_ns_per_graph, embed.simd_speedup,
              embed.identical ? "yes" : "NO");

  // --- indexed vs. linear KNN over the serving query stream ---------
  std::vector<std::vector<double>> query_embeddings;
  for (const auto& g : query_graphs) query_embeddings.push_back(advisor.Embed(g));
  KnnResult knn = BenchKnn(advisor, query_embeddings, knn_repeats);
  PrintRow({"knn backend", "ns/query", "dist evals", "identical"});
  PrintRow({"linear(sc)", Fmt(knn.linear_scalar.ns_per_query, 0),
            std::to_string(knn.linear_scalar.distance_evals), "yes"});
  PrintRow({"linear", Fmt(knn.linear.ns_per_query, 0),
            std::to_string(knn.linear.distance_evals), "yes"});
  PrintRow({"vp-tree", Fmt(knn.vptree.ns_per_query, 0),
            std::to_string(knn.vptree.distance_evals),
            knn.identical ? "yes" : "NO"});
  std::printf("# vp-tree %.2fx over linear scan; "
              "simd %.2fx over scalar linear\n",
              knn.vptree_speedup, knn.simd_speedup);

  // --- serve throughput vs. batch size ------------------------------
  std::vector<serve::RecommendRequest> requests;
  const double weights[3] = {0.9, 0.7, 0.5};
  for (size_t i = 0; i < query_graphs.size(); ++i) {
    serve::RecommendRequest r;
    r.id = i;
    r.graph = query_graphs[i];
    r.w_a = weights[i % 3];
    requests.push_back(std::move(r));
  }
  // The off/on QPS comparison below must control the sink state itself,
  // so the baseline sweep runs with metrics explicitly dormant even if
  // AUTOCE_METRICS was set in the environment.
  auto& registry = obs::MetricsRegistry::Instance();
  const bool metrics_were_enabled = obs::MetricsEnabled();
  registry.Disable();
  std::vector<ServePoint> points;
  PrintRow({"batch", "QPS", "p50 ms", "p99 ms"});
  for (size_t batch : {size_t{1}, size_t{8}, size_t{32}}) {
    points.push_back(BenchServe(model_path, requests, batch, serve_repeats));
    const ServePoint& p = points.back();
    PrintRow({std::to_string(p.batch), Fmt(p.qps, 1), Fmt(p.p50_ms, 3),
              Fmt(p.p99_ms, 3)});
  }
  bool batch_identical = true;
  for (const auto& p : points) {
    batch_identical &= (p.digest == points[0].digest);
  }
  AUTOCE_CHECK(batch_identical);  // batching never changes response bits
  double speedup_at_8 = points[0].qps > 0 ? points[1].qps / points[0].qps : 0;
  std::printf("# batched (8) throughput vs one-at-a-time: %.2fx; "
              "responses bit-identical across batch sizes: %s\n",
              speedup_at_8, batch_identical ? "yes" : "NO");

  // --- instrumentation overhead at batch 8 --------------------------
  registry.Enable();
  registry.Reset();
  ServePoint metered =
      BenchServe(model_path, requests, /*batch=*/8, serve_repeats);
  AUTOCE_CHECK(metered.digest == points[0].digest);  // metrics change no bits
  std::string metrics_json = registry.ExportJson();
  if (!metrics_were_enabled) registry.Disable();
  double overhead_pct = points[1].qps > 0
                            ? 100.0 * (points[1].qps - metered.qps) /
                                  points[1].qps
                            : 0.0;
  std::printf("# batch-8 QPS with AUTOCE_METRICS on: %.1f vs %.1f off "
              "(overhead %.2f%%)\n",
              metered.qps, points[1].qps, overhead_pct);
  std::remove(model_path.c_str());

  // --- BENCH_serve.json ---------------------------------------------
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"queries\": %zu, \"repeats\": %d, \"k\": %d,\n"
      "    \"linear_scalar_ns_per_query\": %.1f, "
      "\"linear_ns_per_query\": %.1f,\n"
      "    \"vptree_ns_per_query\": %.1f,\n"
      "    \"linear_distance_evals\": %llu, "
      "\"vptree_distance_evals\": %llu,\n"
      "    \"vptree_speedup\": %.3f, \"simd_speedup\": %.3f,\n"
      "    \"identical_neighbors\": %s}",
      knn.queries, knn.repeats, knn.k, knn.linear_scalar.ns_per_query,
      knn.linear.ns_per_query, knn.vptree.ns_per_query,
      static_cast<unsigned long long>(knn.linear.distance_evals),
      static_cast<unsigned long long>(knn.vptree.distance_evals),
      knn.vptree_speedup, knn.simd_speedup,
      knn.identical ? "true" : "false");
  std::string knn_json = buf;
  std::snprintf(buf, sizeof(buf),
                "{\"graphs\": %zu, \"repeats\": %d,\n"
                "    \"scalar_ns_per_graph\": %.1f, "
                "\"active_ns_per_graph\": %.1f,\n"
                "    \"simd_speedup\": %.3f, \"identical_embeddings\": %s}",
                embed.graphs, embed.repeats, embed.scalar_ns_per_graph,
                embed.active_ns_per_graph, embed.simd_speedup,
                embed.identical ? "true" : "false");
  std::string embed_json = buf;
  std::string serve_json = "[\n";
  for (size_t i = 0; i < points.size(); ++i) {
    std::snprintf(buf, sizeof(buf),
                  "    {\"batch\": %zu, \"qps\": %.1f, \"p50_ms\": %.4f, "
                  "\"p99_ms\": %.4f}%s\n",
                  points[i].batch, points[i].qps, points[i].p50_ms,
                  points[i].p99_ms, i + 1 < points.size() ? "," : "");
    serve_json += buf;
  }
  serve_json += "  ]";

  obs::RunManifest manifest = BenchManifest("serve", seed);
  manifest.AddDouble("wall_seconds", wall.ElapsedSeconds())
      .AddInt("rcs_size", static_cast<int64_t>(advisor.RcsSize()))
      .AddInt("embedding_dim", advisor.config().gin.embedding_dim)
      .AddRaw("embed_batch", embed_json)
      .AddRaw("knn", knn_json)
      .AddRaw("serve", serve_json)
      .AddDouble("batched_speedup_at_8", speedup_at_8)
      .AddBool("identical_recommendations_across_batch_sizes",
               batch_identical)
      .AddDouble("qps_metrics_off_at_8", points[1].qps)
      .AddDouble("qps_metrics_on_at_8", metered.qps)
      .AddDouble("metrics_overhead_pct", overhead_pct)
      .AddRaw("metrics", metrics_json);
  AUTOCE_CHECK(manifest.WriteTo("BENCH_serve.json"));
  std::printf("# wrote BENCH_serve.json\n");
  return 0;
}

}  // namespace
}  // namespace autoce::bench

int main() { return autoce::bench::Main(); }

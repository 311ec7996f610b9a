// The serving workloads. `recommend`: every request is a dataset the
// server has not cached (featurize + serve, batch 1, then bursts of 8).
// `recommend_adapt`: a hot set served from the embedding cache, with a
// share of drifted datasets fed to the online-adaptation loop, which
// writes new model generations that the server reloads.
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <set>

#include "adapt/pipeline.h"
#include "harness.h"
#include "knn/index.h"
#include "obs/metrics.h"
#include "serve/server.h"
#include "util/fault.h"

namespace autoce::perfbench {

namespace {

constexpr double kWeights[3] = {0.9, 0.7, 0.5};
constexpr size_t kBurst = 8;

/// recommend: the RCS size and the request pool. The pool is twice the
/// server's 128-entry embedding cache and is walked cyclically, so the
/// LRU cache never holds a request when it comes round again.
constexpr int kRecommendRcs = 128;
constexpr int kPoolSize = 256;

/// recommend_adapt: one round is a fixed request script over a fresh copy
/// of the fitted store, so every round ends on the same model bits.
constexpr int kAdaptRcs = 96;
constexpr int kHotSet = 24;  ///< fits the cache
constexpr int kRoundRequests = 512;
constexpr int kDriftEvery = 32;     ///< every 32nd request is drifted
constexpr int kRunOnceEvery = 128;  ///< synchronous adaptation cadence
/// Synthetic-labeled datasets the adapted model is scored on.
constexpr int kEvalSet = 128;
constexpr double kDriftPercentile = 50.0;
constexpr int kDriftPerRound = kRoundRequests / kDriftEvery;

std::vector<featgraph::FeatureGraph> ExtractAll(
    const std::vector<data::Dataset>& datasets) {
  featgraph::FeatureExtractor extractor;
  std::vector<featgraph::FeatureGraph> out;
  out.reserve(datasets.size());
  for (const auto& d : datasets) out.push_back(extractor.Extract(d));
  return out;
}

std::vector<advisor::DatasetLabel> LabelsFor(size_t n, uint64_t key) {
  std::vector<advisor::DatasetLabel> out;
  for (size_t i = 0; i < n; ++i) out.push_back(SyntheticLabel(util::FaultKeyMix(key, i)));
  return out;
}

std::vector<data::Dataset> Generate(const std::string& name, int n, Rng* rng) {
  return GenerateStratified(CorpusShape(), name, n, rng);
}

uint64_t ResponseDigest(const serve::RecommendResponse& r) {
  Digest d;
  d.Add(static_cast<uint64_t>(r.status.ok()));
  d.Add(static_cast<uint64_t>(r.shed));
  AddRecommendation(r.recommendation, &d);
  return d.value();
}

/// Counts a response against the run: failed when not OK or shed.
struct ResponseTally {
  uint64_t requests = 0;
  uint64_t failed = 0;
  uint64_t shed = 0;
  uint64_t invalid = 0;
  uint64_t cache_hits = 0;
  uint64_t serve_calls = 0;

  void Add(const serve::RecommendResponse& r) {
    ++requests;
    if (!r.status.ok() || r.shed) ++failed;
    if (r.shed) ++shed;
    if (r.status.code() == StatusCode::kInvalidArgument) ++invalid;
    if (r.from_cache) ++cache_hits;
  }
};

/// Serve internals replayed outside the server on the same advisor:
/// EncoderDigest, Embed, the KNN query and RecommendFromEmbedding, each
/// timed alone, plus EmbedBatch over bursts of 8. The replayed
/// recommendation must equal the server's response bit for bit.
void ReplayServe(const advisor::AutoCe& advisor,
                 const std::vector<featgraph::FeatureGraph>& graphs,
                 const std::vector<double>& weights,
                 const std::vector<uint64_t>& expected, Tracer* tracer,
                 Report* report) {
  size_t mismatches = 0;
  uint64_t distance_evals = 0, knn_queries = 0;
  const size_t k = static_cast<size_t>(advisor.config().knn_k);
  for (size_t i = 0; i < graphs.size(); ++i) {
    ScopedSpan root(tracer, "replay.request", i);
    {
      ScopedSpan span(tracer, "advisor.encoder_digest", i);
      (void)advisor.EncoderDigest();
    }
    std::vector<double> embedding;
    {
      ScopedSpan span(tracer, "gnn.embed", i);
      embedding = advisor.Embed(graphs[i]);
    }
    {
      ScopedSpan span(tracer, "knn.query", i);
      knn::QueryStats stats;
      (void)advisor.rcs_index().Query(embedding, k, SIZE_MAX, nullptr, &stats);
      distance_evals += stats.distance_evals;
      ++knn_queries;
    }
    Result<advisor::AutoCe::Recommendation> rec = Status::OK();
    {
      ScopedSpan span(tracer, "advisor.recommend_from_embedding", i);
      rec = advisor.RecommendFromEmbedding(embedding, weights[i]);
    }
    serve::RecommendResponse as_served;
    if (rec.ok()) as_served.recommendation = std::move(*rec);
    as_served.status = rec.status();
    if (ResponseDigest(as_served) != expected[i]) ++mismatches;
  }
  for (size_t b = 0; b + kBurst <= graphs.size(); b += kBurst) {
    std::vector<const featgraph::FeatureGraph*> batch;
    for (size_t j = b; j < b + kBurst; ++j) batch.push_back(&graphs[j]);
    ScopedSpan span(tracer, "gnn.embed_batch", b);
    (void)advisor.EmbedBatch(batch);
  }
  report->Check(mismatches == 0, std::to_string(mismatches) +
                                     " replayed recommendations differ from "
                                     "the server's responses");

  report->Set("advisor.encoder_digest_us",
              tracer->MeanMicros("advisor.encoder_digest"), "us");
  report->Set("advisor.score_us",
              tracer->MeanMicros("advisor.recommend_from_embedding") -
                  tracer->MeanMicros("knn.query"),
              "us");
  report->Set("gnn.embed_us", tracer->MeanMicros("gnn.embed"), "us");
  report->Set("gnn.embed_batch_us_per_graph",
              tracer->MeanMicros("gnn.embed_batch") / static_cast<double>(kBurst),
              "us");
  report->Set("knn.query_us", tracer->MeanMicros("knn.query"), "us");
  report->Set("knn.distance_evals",
              knn_queries == 0 ? 0.0
                               : static_cast<double>(distance_evals) /
                                     static_cast<double>(knn_queries),
              "count");
  report->Set("advisor.rcs_size", static_cast<double>(advisor.RcsSize()), "count");
}

// ---------------------------------------------------------------- recommend

struct RecommendSetup {
  double generate_s = 0.0;
  std::vector<data::Dataset> pool;
  std::vector<advisor::DatasetLabel> pool_labels;
  std::unique_ptr<serve::AdvisorServer> server;
};

RecommendSetup SetupRecommend(uint64_t seed) {
  RecommendSetup s;
  Rng rng(seed);
  Timer gen_timer;
  auto rcs = Generate("rcs", kRecommendRcs, &rng);
  s.pool = Generate("request", kPoolSize, &rng);
  s.generate_s = gen_timer.ElapsedSeconds();
  s.pool_labels = LabelsFor(s.pool.size(), seed ^ 0x9001ULL);
  advisor::AutoCe advisor(AdvisorConfig(seed));
  Status st = advisor.Fit(ExtractAll(rcs), LabelsFor(rcs.size(), seed));
  if (!st.ok()) return s;
  s.server = std::make_unique<serve::AdvisorServer>(std::move(advisor));
  return s;
}

/// Client state of the recommend loop. `cursor` walks the pool cyclically
/// across phases, so no request is ever within the cache's reach.
struct RecommendClient {
  const std::vector<data::Dataset>* pool = nullptr;
  serve::AdvisorServer* server = nullptr;
  featgraph::FeatureExtractor extractor;
  size_t cursor = 0;
  std::vector<uint64_t> digest;  ///< per pool index, from the first answer
  size_t digest_mismatches = 0;
  ResponseTally tally;

  serve::RecommendRequest Next(Tracer* tracer) {
    size_t idx = cursor++ % pool->size();
    serve::RecommendRequest req;
    req.id = idx;
    req.w_a = kWeights[idx % 3];
    ScopedSpan span(tracer, "featgraph.extract", idx);
    req.graph = extractor.Extract((*pool)[idx]);
    return req;
  }

  void Record(const serve::RecommendResponse& resp) {
    tally.Add(resp);
    uint64_t d = ResponseDigest(resp);
    if (digest[resp.id] == 0) {
      digest[resp.id] = d;
    } else if (digest[resp.id] != d) {
      ++digest_mismatches;
    }
  }

  /// Batch-1 requests until `seconds` pass or `count` requests are done.
  size_t Batch1(double seconds, size_t count, Tracer* tracer,
                std::vector<double>* latency_ms) {
    Timer phase;
    size_t n = 0;
    while (count > 0 ? n < count : phase.ElapsedSeconds() < seconds) {
      Timer t;
      serve::RecommendResponse resp;
      {
        ScopedSpan root(tracer, "client.request", cursor);
        serve::RecommendRequest req = Next(tracer);
        ScopedSpan span(tracer, "serve.serve_one", req.id);
        resp = server->ServeOne(req);
      }
      latency_ms->push_back(t.ElapsedMillis());
      ++tally.serve_calls;
      Record(resp);
      ++n;
    }
    return n;
  }

  /// Bursts of 8 through Serve, each one's wall time appended to
  /// `burst_s`; returns the burst count.
  size_t Bursts(double seconds, size_t count, Tracer* tracer,
                std::vector<double>* burst_s) {
    Timer phase;
    size_t n = 0;
    while (count > 0 ? n < count : phase.ElapsedSeconds() < seconds) {
      Timer t;
      std::vector<serve::RecommendResponse> responses;
      {
        ScopedSpan root(tracer, "client.burst", cursor);
        std::vector<serve::RecommendRequest> burst;
        for (size_t j = 0; j < kBurst; ++j) burst.push_back(Next(tracer));
        ScopedSpan span(tracer, "serve.serve", n);
        responses = server->Serve(burst);
      }
      burst_s->push_back(t.ElapsedSeconds());
      ++tally.serve_calls;
      for (const auto& r : responses) Record(r);
      ++n;
    }
    return n;
  }
};

}  // namespace

void RunRecommend(const Args& args, Report* report) {
  std::vector<double> setup_s;
  RecommendSetup setup;
  for (int rep = 0; rep < 3; ++rep) {
    Timer t;
    setup = SetupRecommend(args.seed);
    setup_s.push_back(t.ElapsedSeconds());
  }
  if (setup.server == nullptr) {
    report->Check(false, "advisor fit failed");
    return;
  }
  report->Header("rcs_datasets", kRecommendRcs);
  report->Header("request_pool", kPoolSize);
  report->Header("cache_capacity", 128);

  RecommendClient client;
  client.pool = &setup.pool;
  client.server = setup.server.get();
  client.digest.assign(setup.pool.size(), 0);

  // Batch 1 for 60% of the time, then bursts of 8. The batch-1 phase
  // covers the whole pool many times over, so every burst response is
  // checked against its batch-1 answer.
  std::vector<double> latency_ms, burst_s;
  size_t n1 = client.Batch1(0.6 * args.seconds, 0, nullptr, &latency_ms);
  size_t n8 = client.Bursts(0.4 * args.seconds, 0, nullptr, &burst_s);
  report->Check(n1 >= setup.pool.size(), "batch-1 phase did not cover the pool");
  report->Check(client.digest_mismatches == 0,
                "responses differ between batch 1 and batch 8");
  report->attempted = client.tally.requests;
  report->failed = client.tally.failed;

  if (!args.trace) {
    // Both phases walk the pool cyclically, so every cycle repeats the same
    // work: request k of the batch-1 phase featurizes and serves pool entry
    // k mod 256, and burst k covers the same 8 entries as burst k mod 32.
    // The figures are taken over each request's and each burst's best time
    // (BestOverRepeats).
    const std::vector<double> best_ms = BestOverRepeats(latency_ms, setup.pool.size());
    const std::vector<double> best_burst_s =
        BestOverRepeats(burst_s, setup.pool.size() / kBurst);
    double bursts_s = 0.0;
    for (double b : best_burst_s) bursts_s += b;
    report->Set("setup_s", Median(setup_s), "s");
    report->Set("latency_p50_ms", Median(best_ms), "ms");
    report->Set("latency_p99_ms", Pct(best_ms, 99.0), "ms");
    // Requests per second over one cycle of bursts of 8.
    report->Set("throughput",
                static_cast<double>(kBurst * best_burst_s.size()) / bursts_s, "1/s");
    report->Set("quality_ratio",
                ScoreRatio(*setup.server->advisor(), ExtractAll(setup.pool),
                           setup.pool_labels),
                "ratio");
    return;
  }

  // Tracing overhead is measured against an untraced rerun of the same
  // counts made right before the traced one; both continue the cycle.
  std::vector<double> rerun_latency, rerun_burst_s;
  Timer phase;
  client.Batch1(0, n1, nullptr, &rerun_latency);
  client.Bursts(0, n8, nullptr, &rerun_burst_s);
  const double untraced_wall = phase.ElapsedSeconds();

  // Traced phase: the same request counts, continuing the cycle.
  Tracer tracer;
  auto& registry = obs::MetricsRegistry::Instance();
  registry.Reset();
  registry.Enable();
  tracer.set_enabled(true);
  client.tally = ResponseTally{};
  std::vector<double> traced_latency, traced_burst_s;
  phase.Reset();
  client.Batch1(0, n1, &tracer, &traced_latency);
  client.Bursts(0, n8, &tracer, &traced_burst_s);
  const double traced_wall = phase.ElapsedSeconds();
  registry.Disable();
  report->Check(client.digest_mismatches == 0,
                "responses differ between the traced and untraced runs");

  ReportLayerTable(tracer, report);
  ReportExtract(tracer, report);
  report->Set("serve.serve_us", tracer.MeanMicros("serve.serve_one"), "us");
  const ResponseTally& t = client.tally;
  report->Set("serve.batch_size_mean",
              static_cast<double>(t.requests) / static_cast<double>(t.serve_calls),
              "count");
  report->Set("serve.cache_hit_ratio",
              static_cast<double>(t.cache_hits) / static_cast<double>(t.requests),
              "ratio");
  report->Set("serve.reloads", 0, "count");
  report->Set("serve.cache_invalidations", 0, "count");
  report->Set("serve.shed", static_cast<double>(t.shed), "count");
  report->Set("serve.invalid", static_cast<double>(t.invalid), "count");
  report->Set("data.generate_s", setup.generate_s, "s");

  std::vector<featgraph::FeatureGraph> graphs = ExtractAll(setup.pool);
  std::vector<double> weights;
  for (size_t i = 0; i < graphs.size(); ++i) weights.push_back(kWeights[i % 3]);
  ReplayServe(*setup.server->advisor(), graphs, weights, client.digest, &tracer,
              report);
  report->Set("trace.overhead_s", traced_wall - untraced_wall, "s");
  report->Set("trace.spans", static_cast<double>(tracer.spans().size()), "count");
  tracer.WriteJson(args.out_dir + "/trace_recommend_seed" +
                   std::to_string(args.seed) + ".json");
}

// ---------------------------------------------------------- recommend_adapt

namespace {

/// Drifted datasets: wider domains, stronger skew and fan-out, more
/// columns and tables than the RCS corpus.
data::DatasetGenParams DriftShape() {
  data::DatasetGenParams gen = CorpusShape();
  gen.name = "drifted";
  gen.min_tables = 3;
  gen.max_tables = 5;
  gen.min_columns = 5;
  gen.max_columns = 8;
  gen.min_domain = 5000;
  gen.max_domain = 20000;
  gen.max_skew = 4.0;
  gen.max_fanout_skew = 6.0;
  return gen;
}

struct AdaptSetup {
  std::string base_dir;
  double generate_s = 0.0;
  int drift_candidates = 0;
  std::vector<data::Dataset> hot;
  std::vector<featgraph::FeatureGraph> eval_graphs;
  std::vector<advisor::DatasetLabel> eval_labels;
  std::vector<data::Dataset> drifted;
  bool ok = false;
};

AdaptSetup SetupAdapt(uint64_t seed, const std::string& base_dir) {
  AdaptSetup s;
  s.base_dir = base_dir;
  FreshDir(base_dir);
  Rng rng(seed);
  Timer gen_timer;
  auto rcs = Generate("rcs", kAdaptRcs, &rng);
  s.hot = Generate("hot", kHotSet, &rng);
  auto eval = Generate("eval", kEvalSet, &rng);
  s.generate_s = gen_timer.ElapsedSeconds();
  s.eval_graphs = ExtractAll(eval);
  s.eval_labels = LabelsFor(eval.size(), seed ^ 0x407ULL);
  advisor::AutoCeConfig config = AdvisorConfig(seed);
  // A tighter drift threshold keeps drifted datasets out of distribution
  // after the first adaptations, so each round applies about the same
  // number of items whatever the seed.
  config.drift_percentile = kDriftPercentile;
  advisor::AutoCe advisor(config);
  Status st = advisor.EnableSnapshots(base_dir);
  if (st.ok()) st = advisor.Fit(ExtractAll(rcs), LabelsFor(rcs.size(), seed));
  if (!st.ok()) return s;
  // Keep only candidates the fitted advisor sees as out of distribution,
  // so every drifted request is offered to the feedback queue.
  featgraph::FeatureExtractor extractor;
  for (; s.drift_candidates < 20 * kDriftPerRound &&
         static_cast<int>(s.drifted.size()) < kDriftPerRound;
       ++s.drift_candidates) {
    Rng child = rng.Fork(1000 + static_cast<uint64_t>(s.drift_candidates));
    data::Dataset d = data::GenerateDataset(
        ShapeAt(DriftShape(), "drifted", s.drift_candidates), &child);
    if (advisor.IsOutOfDistribution(extractor.Extract(d))) {
      s.drifted.push_back(std::move(d));
    }
  }
  s.ok = static_cast<int>(s.drifted.size()) == kDriftPerRound;
  return s;
}

struct RoundResult {
  uint64_t trainer_digest = 0;
  uint64_t generation = 0;
  size_t rcs_size = 0;
  std::vector<double> latency_ms;   ///< per request, in script order
  std::vector<double> once_ms;      ///< per RunOnce call, in script order
  std::vector<double> run_once_ms;  ///< batches that applied >= 1 item
  double busy_s = 0.0;              ///< requests + RunOnce, not the round open
  ResponseTally tally;
  uint64_t admitted = 0, duplicate = 0, rejected = 0, not_ood = 0;
  uint64_t applied = 0, quarantined = 0, sentinel = 0, drained = 0;
  uint64_t reloads = 0, invalidations = 0;
  bool ok = true;
  std::string error;
  std::shared_ptr<const advisor::AutoCe> final_advisor;
};

/// One round: copy the fitted store, open a server and a pipeline on it,
/// then run the fixed request script with RunOnce every 128 requests.
RoundResult RunRound(const AdaptSetup& setup, const std::string& dir,
                     uint64_t seed, Tracer* tracer) {
  RoundResult r;
  std::unique_ptr<serve::AdvisorServer> server;
  std::unique_ptr<adapt::AdaptationPipeline> pipeline;
  {
    ScopedSpan span(tracer, "trace.round_open");
    RemoveDir(dir);
    std::error_code ec;
    std::filesystem::copy(setup.base_dir, dir,
                          std::filesystem::copy_options::recursive, ec);
    if (ec) {
      r.ok = false;
      r.error = "copying the fitted store: " + ec.message();
      return r;
    }
    auto opened = serve::AdvisorServer::Open(dir);
    if (!opened.ok()) {
      r.ok = false;
      r.error = opened.status().ToString();
      return r;
    }
    server = std::move(*opened);
    adapt::AdaptationConfig config;
    config.seed = seed;
    auto p = adapt::AdaptationPipeline::Open(dir, server.get(), config);
    if (!p.ok()) {
      r.ok = false;
      r.error = p.status().ToString();
      return r;
    }
    pipeline = std::move(*p);
    pipeline->set_labeler([](const data::Dataset&, uint64_t key)
                              -> Result<advisor::DatasetLabel> {
      return SyntheticLabel(key);
    });
    pipeline->set_sleep_fn([](double) {});
  }

  featgraph::FeatureExtractor extractor;
  Rng pick(seed ^ 0xADA9ULL);
  size_t next_drift = 0;
  // Hot datasets answered in the current reload epoch / an earlier one:
  // a miss on one seen earlier but not yet this epoch is an invalidation.
  std::set<size_t> seen_now, seen_before;
  bool invalidation_counted = false;
  for (int j = 0; j < kRoundRequests; ++j) {
    const bool drifted = j % kDriftEvery == kDriftEvery - 1;
    const size_t hot_idx =
        drifted ? 0 : static_cast<size_t>(pick.UniformInt(0, kHotSet - 1));
    const data::Dataset& ds =
        drifted ? setup.drifted[next_drift++] : setup.hot[hot_idx];
    serve::RecommendRequest req;
    req.id = static_cast<uint64_t>(j);
    req.w_a = kWeights[j % 3];
    Timer t;
    serve::RecommendResponse resp;
    adapt::Offered offered = adapt::Offered::kNotOod;
    {
      ScopedSpan root(tracer, "client.request", req.id);
      {
        ScopedSpan span(tracer, "featgraph.extract", req.id);
        req.graph = extractor.Extract(ds);
      }
      {
        ScopedSpan span(tracer, "serve.serve_one", req.id);
        resp = server->ServeOne(req);
      }
      if (drifted) {
        ScopedSpan span(tracer, "adapt.enqueue", req.id);
        offered = pipeline->MaybeEnqueue(ds, req.graph);
      }
    }
    const double ms = t.ElapsedMillis();
    r.latency_ms.push_back(ms);
    r.busy_s += 1e-3 * ms;
    r.tally.Add(resp);
    ++r.tally.serve_calls;
    if (drifted) {
      switch (offered) {
        case adapt::Offered::kAdmitted:
        case adapt::Offered::kAdmittedEvicting:
          ++r.admitted;
          break;
        case adapt::Offered::kDuplicate:
          ++r.duplicate;
          break;
        case adapt::Offered::kRejectedFull:
        case adapt::Offered::kRejectedFault:
          ++r.rejected;
          break;
        case adapt::Offered::kNotOod:
          ++r.not_ood;
          break;
      }
    } else {
      if (!resp.from_cache && seen_before.count(hot_idx) &&
          !seen_now.count(hot_idx) && !invalidation_counted) {
        ++r.invalidations;
        invalidation_counted = true;
      }
      seen_now.insert(hot_idx);
    }

    if ((j + 1) % kRunOnceEvery == 0) {
      Timer once;
      Result<adapt::BatchReport> rep = Status::OK();
      {
        ScopedSpan root(tracer, "client.run_once", static_cast<uint64_t>(j));
        ScopedSpan span(tracer, "adapt.run_once", static_cast<uint64_t>(j));
        rep = pipeline->RunOnce();
      }
      const double once_ms = once.ElapsedMillis();
      r.busy_s += 1e-3 * once_ms;
      r.once_ms.push_back(once_ms);
      if (!rep.ok()) {
        r.ok = false;
        r.error = rep.status().ToString();
        return r;
      }
      r.drained += rep->drained;
      r.applied += rep->applied;
      r.quarantined += rep->quarantined;
      r.sentinel += rep->sentinel;
      if (rep->applied > 0) r.run_once_ms.push_back(once_ms);
      if (rep->reload_ok) {
        ++r.reloads;
        seen_before.insert(seen_now.begin(), seen_now.end());
        seen_now.clear();
        invalidation_counted = false;
      }
    }
  }
  r.trainer_digest = pipeline->TrainerDigest();
  r.generation = server->generation();
  r.final_advisor = server->advisor();
  r.rcs_size = r.final_advisor->RcsSize();
  return r;
}

}  // namespace

void RunRecommendAdapt(const Args& args, Report* report) {
  const std::string base_dir = args.out_dir + "/adapt_base";
  const std::string round_dir = args.out_dir + "/adapt_round";
  std::vector<double> setup_s;
  AdaptSetup setup;
  for (int rep = 0; rep < 3; ++rep) {
    Timer t;
    setup = SetupAdapt(args.seed, base_dir);
    setup_s.push_back(t.ElapsedSeconds());
  }
  report->Header("rcs_datasets", kAdaptRcs);
  report->Header("hot_set", kHotSet);
  report->Header("round_requests", kRoundRequests);
  report->Header("drifted_per_round", kDriftPerRound);
  report->Header("run_once_every", kRunOnceEvery);
  report->Header("snapshot_durability", "kSync");
  report->Header("drift_candidates", setup.drift_candidates);
  if (!setup.ok) {
    report->Check(false, "setup failed: fit error or too few drifted datasets");
    return;
  }

  auto run_rounds = [&](size_t count, double seconds, Tracer* tracer) {
    std::vector<RoundResult> rounds;
    Timer phase;
    while (count > 0 ? rounds.size() < count
                     : rounds.empty() || phase.ElapsedSeconds() < seconds) {
      rounds.push_back(RunRound(setup, round_dir, args.seed, tracer));
      const RoundResult& r = rounds.back();
      report->Check(r.ok, "round failed: " + r.error);
      if (!r.ok) break;
      report->Check(r.trainer_digest == rounds[0].trainer_digest &&
                        r.generation == rounds[0].generation,
                    "rounds end on different TrainerDigest or generation");
      report->attempted += r.tally.requests + r.drained;
      report->failed += r.tally.failed + r.quarantined + r.sentinel;
    }
    return rounds;
  };

  std::vector<RoundResult> rounds = run_rounds(0, args.seconds, nullptr);
  if (!report->correct()) return;
  std::printf("# rounds: %zu, final generation %" PRIu64 ", digest %016" PRIx64
              "\n",
              rounds.size(), rounds[0].generation, rounds[0].trainer_digest);
  std::vector<double> run_once_ms;
  for (const RoundResult& r : rounds) {
    run_once_ms.insert(run_once_ms.end(), r.run_once_ms.begin(),
                       r.run_once_ms.end());
  }

  if (!args.trace) {
    // Every round runs the same script on the same store, so what differs
    // between rounds is the host. The figures are taken over each request's
    // and each RunOnce's best time (BestOverRepeats).
    std::vector<double> latency_ms, once_ms;
    for (const RoundResult& r : rounds) {
      latency_ms.insert(latency_ms.end(), r.latency_ms.begin(), r.latency_ms.end());
      once_ms.insert(once_ms.end(), r.once_ms.begin(), r.once_ms.end());
    }
    const std::vector<double> best_ms = BestOverRepeats(latency_ms, kRoundRequests);
    double script_ms = 0.0;
    for (double ms : best_ms) script_ms += ms;
    for (double ms : BestOverRepeats(once_ms, kRoundRequests / kRunOnceEvery)) {
      script_ms += ms;
    }
    report->Set("setup_s", Median(setup_s), "s");
    report->Set("latency_p50_ms", Median(best_ms), "ms");
    report->Set("latency_p99_ms", Pct(best_ms, 99.0), "ms");
    // Requests per second of client time (requests + RunOnce).
    report->Set("throughput", 1e3 * static_cast<double>(best_ms.size()) / script_ms,
                "1/s");
    // The adapted model of one round, scored on datasets it never saw.
    report->Set("quality_ratio",
                ScoreRatio(*rounds[0].final_advisor, setup.eval_graphs,
                           setup.eval_labels),
                "ratio");
    RemoveDir(round_dir);
    RemoveDir(base_dir);
    return;
  }

  // Tracing overhead is measured against an untraced rerun of the same
  // rounds made right before the traced one.
  Timer phase;
  run_rounds(rounds.size(), 0, nullptr);
  const double untraced_wall = phase.ElapsedSeconds();

  Tracer tracer;
  auto& registry = obs::MetricsRegistry::Instance();
  registry.Reset();
  registry.Enable();
  tracer.set_enabled(true);
  phase.Reset();
  std::vector<RoundResult> traced = run_rounds(rounds.size(), 0, &tracer);
  const double traced_wall = phase.ElapsedSeconds();
  registry.Disable();
  if (!report->correct()) return;
  report->Check(traced.back().trainer_digest == rounds[0].trainer_digest,
                "traced rounds end on a different TrainerDigest");

  ReportLayerTable(tracer, report);
  ReportExtract(tracer, report);
  RoundResult sum;
  for (const RoundResult& r : traced) {
    sum.tally.requests += r.tally.requests;
    sum.tally.cache_hits += r.tally.cache_hits;
    sum.tally.shed += r.tally.shed;
    sum.tally.invalid += r.tally.invalid;
    sum.admitted += r.admitted;
    sum.duplicate += r.duplicate;
    sum.rejected += r.rejected;
    sum.applied += r.applied;
    sum.quarantined += r.quarantined;
    sum.sentinel += r.sentinel;
    sum.reloads += r.reloads;
    sum.invalidations += r.invalidations;
  }
  report->Set("serve.serve_us", tracer.MeanMicros("serve.serve_one"), "us");
  report->Set("serve.batch_size_mean", 1.0, "count");  // ServeOne only
  report->Set("serve.cache_hit_ratio",
              static_cast<double>(sum.tally.cache_hits) /
                  static_cast<double>(sum.tally.requests),
              "ratio");
  report->Set("serve.reloads", static_cast<double>(sum.reloads), "count");
  report->Set("serve.cache_invalidations", static_cast<double>(sum.invalidations),
              "count");
  report->Set("serve.shed", static_cast<double>(sum.tally.shed), "count");
  report->Set("serve.invalid", static_cast<double>(sum.tally.invalid), "count");
  report->Set("adapt.enqueue_us", tracer.MeanMicros("adapt.enqueue"), "us");
  report->Set("adapt.offers.admitted", static_cast<double>(sum.admitted), "count");
  report->Set("adapt.offers.duplicate", static_cast<double>(sum.duplicate), "count");
  report->Set("adapt.offers.rejected", static_cast<double>(sum.rejected), "count");
  report->Set("adapt.run_once_ms", Median(run_once_ms), "ms");
  report->Set("adapt.items_applied", static_cast<double>(sum.applied), "count");
  report->Set("adapt.items_quarantined", static_cast<double>(sum.quarantined),
              "count");
  report->Set("adapt.labels_sentinel", static_cast<double>(sum.sentinel), "count");
  report->Set("util.snapshot.commit_ms", HistogramMean("snapshot.commit_ms"), "ms");
  report->Set("util.snapshot.fsync_ms", HistogramMean("snapshot.fsync_ms"), "ms");
  report->Set("data.generate_s", setup.generate_s, "s");

  // Serve internals on the final generation, over the hot set, checked
  // against a server reopened on the last round's store.
  auto server = serve::AdvisorServer::Open(round_dir);
  report->Check(server.ok(), "reopening the final store failed");
  if (!server.ok()) return;
  std::vector<featgraph::FeatureGraph> graphs = ExtractAll(setup.hot);
  std::vector<double> weights;
  std::vector<uint64_t> expected;
  for (size_t i = 0; i < graphs.size(); ++i) {
    weights.push_back(kWeights[i % 3]);
    serve::RecommendRequest req;
    req.id = i;
    req.graph = graphs[i];
    req.w_a = weights.back();
    expected.push_back(ResponseDigest((*server)->ServeOne(req)));
  }
  ReplayServe(*(*server)->advisor(), graphs, weights, expected, &tracer, report);
  report->Set("trace.overhead_s", traced_wall - untraced_wall, "s");
  report->Set("trace.spans", static_cast<double>(tracer.spans().size()), "count");
  tracer.WriteJson(args.out_dir + "/trace_recommend_adapt_seed" +
                   std::to_string(args.seed) + ".json");
  RemoveDir(round_dir);
  RemoveDir(base_dir);
}

}  // namespace autoce::perfbench

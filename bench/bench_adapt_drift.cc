// Adaptation-under-drift harness (ISSUE 7 tentpole): a simulated day
// of serving in which the request distribution drifts further from the
// training corpus every window. Three advisors see the same stream:
//
//   frozen    never adapts — the quality floor the loop must beat,
//   adapting  the full AdaptationPipeline (OOD detection -> bounded
//             feedback queue -> label -> Mixup -> snapshot-atomic
//             commit -> hot reload),
//   faulted   the same pipeline with label/train/commit faults
//             injected — the degraded-mode quality witness.
//
// Also measures serve p50/p99 with the pipeline idle vs. training on a
// drain thread of the bench's own, so the "serve path is never blocked"
// claim has a number attached. Emits BENCH_adapt.json.
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "adapt/pipeline.h"
#include "bench/common.h"
#include "serve/server.h"
#include "util/fault.h"
#include "util/snapshot.h"

namespace autoce::bench {
namespace {

/// Per-window quality + loop activity.
struct WindowRow {
  int window = 0;
  double drift = 0.0;  ///< interpolation factor toward the odd params
  double frozen_derr = 0.0;
  double adapt_derr = 0.0;
  double fault_derr = 0.0;
  size_t requests = 0;
  size_t ood = 0;              ///< adapting pipeline enqueues
  uint64_t applied_total = 0;  ///< cumulative items applied (adapting)
  uint64_t generation = 0;     ///< durable generation after the window
};

struct LatencyPoint {
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

/// Linear interpolation of the generator params from the training
/// distribution toward a far-outside "odd" distribution (the same kind
/// bench_fig13 uses): drift 0 is the training corpus, drift 1 is fully
/// unexpected.
data::DatasetGenParams DriftedParams(const data::DatasetGenParams& base,
                                     double drift) {
  auto lerp_i = [drift](int a, int b) {
    return a + static_cast<int>(drift * (b - a));
  };
  auto lerp_d = [drift](double a, double b) { return a + drift * (b - a); };
  data::DatasetGenParams p = base;
  p.min_tables = lerp_i(base.min_tables, 6);
  p.max_tables = lerp_i(base.max_tables, 8);
  p.min_columns = lerp_i(base.min_columns, 5);
  p.max_columns = lerp_i(base.max_columns, 7);
  p.min_domain = lerp_i(base.min_domain, 4000);
  p.max_domain = lerp_i(base.max_domain, 8000);
  p.min_rows = lerp_i(base.min_rows, base.max_rows * 2);
  p.max_rows = lerp_i(base.max_rows, base.max_rows * 3);
  p.j_min = lerp_d(p.j_min, 0.02);
  p.j_max = lerp_d(p.j_max, 0.15);
  return p;
}

/// Clones the fitted template store into `dst` so the adapting and
/// faulted runs start from identical durable state.
void CloneStore(const std::string& src, const std::string& dst) {
  std::filesystem::remove_all(dst);
  std::filesystem::copy(src, dst, std::filesystem::copy_options::recursive);
}

/// Labeler backed by the precomputed testbed labels (keyed by dataset
/// name): the same deterministic reference profiles the quality
/// evaluation uses, minus a second testbed run per item. Items outside
/// the precomputed set (the p99 load stream) fall back to a pure
/// function of the content-derived seed.
adapt::Labeler MapLabeler(
    std::shared_ptr<std::map<std::string, advisor::DatasetLabel>> by_name) {
  return [by_name](const data::Dataset& dataset,
                   uint64_t seed) -> Result<advisor::DatasetLabel> {
    auto it = by_name->find(dataset.name());
    if (it != by_name->end()) return it->second;
    Rng rng(seed);
    advisor::DatasetLabel label;
    for (size_t m = 0; m < ce::kNumModels; ++m) {
      label.accuracy_score[m] = 0.1 + 0.8 * rng.Uniform();
      label.efficiency_score[m] = 0.1 + 0.8 * rng.Uniform();
      label.qerror_mean[m] = 1.0 + static_cast<double>(m);
      label.latency_ms[m] = 1.0 + rng.Uniform();
    }
    return label;
  };
}

/// Mean D-error of the serving model over one window's requests.
double ServeWindow(serve::AdvisorServer* server,
                   const advisor::LabeledCorpus& window, double w_a) {
  std::vector<double> errs;
  for (size_t i = 0; i < window.size(); ++i) {
    serve::RecommendRequest request;
    request.id = i;
    request.graph = window.graphs[i];
    request.w_a = w_a;
    serve::RecommendResponse response = server->ServeOne(request);
    AUTOCE_CHECK(response.status.ok());
    errs.push_back(window.labels[i].DError(response.recommendation.model, w_a));
  }
  return stats::Mean(errs);
}

/// Times `repeats` passes of one-at-a-time serving, returning the
/// per-request latency distribution.
LatencyPoint TimeServe(serve::AdvisorServer* server,
                       const std::vector<featgraph::FeatureGraph>& graphs,
                       int repeats) {
  std::vector<double> ms;
  for (int r = 0; r < repeats; ++r) {
    for (size_t i = 0; i < graphs.size(); ++i) {
      serve::RecommendRequest request;
      request.id = i;
      request.graph = graphs[i];
      request.w_a = 0.9;
      Timer t;
      serve::RecommendResponse response = server->ServeOne(request);
      ms.push_back(t.ElapsedMillis());
      AUTOCE_CHECK(response.status.ok());
    }
  }
  LatencyPoint p;
  p.p50_ms = stats::Percentile(ms, 50.0);
  p.p99_ms = stats::Percentile(ms, 99.0);
  return p;
}

int Main() {
  const bool paper = PaperScale();
  const int train_datasets = paper ? 400 : 100;
  const int windows = 4;
  const int per_window = paper ? 40 : 10;
  const int p99_repeats = paper ? 3 : 10;
  const double w_a = 0.9;
  const uint64_t seed = 1414;
  Timer wall;

  std::printf("== adaptation under drift: a simulated day ==\n");
  BenchSpec spec = DefaultSpec(seed);
  spec.num_train_datasets = train_datasets;

  // --- base corpus + fitted template store --------------------------
  Rng rng(seed);
  featgraph::FeatureExtractor extractor;
  auto train_ds = data::GenerateCorpus(spec.gen, train_datasets, &rng);
  advisor::LabeledCorpus train =
      advisor::LabelCorpus(std::move(train_ds), spec.testbed, extractor,
                           /*verbose=*/true);

  const std::string template_dir = "bench_adapt_store_base";
  const std::string adapt_dir = "bench_adapt_store_adapt";
  const std::string fault_dir = "bench_adapt_store_fault";
  std::filesystem::remove_all(template_dir);
  Timer fit_timer;
  advisor::AutoCe frozen(BenchAutoCeConfig());
  AUTOCE_CHECK(frozen.EnableSnapshots(template_dir).ok());
  AUTOCE_CHECK(frozen.Fit(train.graphs, train.labels).ok());
  std::printf("# advisor fitted in %.1fs (RCS %zu, drift threshold %.3f)\n",
              fit_timer.ElapsedSeconds(), frozen.RcsSize(),
              frozen.DriftThreshold());

  // --- the drifting day: `windows` windows, each further out ---------
  std::vector<advisor::LabeledCorpus> day(windows);
  auto labels_by_name =
      std::make_shared<std::map<std::string, advisor::DatasetLabel>>();
  for (int w = 0; w < windows; ++w) {
    double drift = static_cast<double>(w + 1) / windows;
    Rng wrng(seed + 100 + static_cast<uint64_t>(w));
    auto ds = data::GenerateCorpus(DriftedParams(spec.gen, drift), per_window,
                                   &wrng);
    ce::TestbedConfig tb = spec.testbed;
    tb.seed = 5000 + static_cast<uint64_t>(w);
    day[w] = advisor::LabelCorpus(std::move(ds), tb, extractor);
    for (size_t i = 0; i < day[w].size(); ++i) {
      (*labels_by_name)[day[w].datasets[i].name()] = day[w].labels[i];
    }
  }

  // --- adapting and faulted pipelines over cloned stores -------------
  CloneStore(template_dir, adapt_dir);
  CloneStore(template_dir, fault_dir);

  adapt::AdaptationConfig acfg;
  acfg.queue_capacity = 2 * static_cast<std::size_t>(per_window);
  acfg.batch_size = 8;
  acfg.seed = seed;

  auto adapt_server = serve::AdvisorServer::Open(adapt_dir);
  AUTOCE_CHECK(adapt_server.ok());
  auto adapt_pipe =
      adapt::AdaptationPipeline::Open(adapt_dir, adapt_server->get(), acfg);
  AUTOCE_CHECK(adapt_pipe.ok());
  (*adapt_pipe)->set_labeler(MapLabeler(labels_by_name));

  auto fault_server = serve::AdvisorServer::Open(fault_dir);
  AUTOCE_CHECK(fault_server.ok());
  auto fault_pipe =
      adapt::AdaptationPipeline::Open(fault_dir, fault_server->get(), acfg);
  AUTOCE_CHECK(fault_pipe.ok());
  (*fault_pipe)->set_labeler(MapLabeler(labels_by_name));
  (*fault_pipe)->set_sleep_fn([](double) {});  // don't sleep through retries

  std::vector<WindowRow> rows;
  PrintRow({"window", "drift", "DErr frozen", "DErr adapt", "DErr fault",
            "OOD", "applied", "gen"});
  for (int w = 0; w < windows; ++w) {
    WindowRow row;
    row.window = w;
    row.drift = static_cast<double>(w + 1) / windows;
    row.requests = day[w].size();

    // Frozen baseline: the advisor as it stood at dawn.
    std::vector<double> frozen_errs;
    for (size_t i = 0; i < day[w].size(); ++i) {
      auto rec = frozen.Recommend(day[w].graphs[i], w_a);
      AUTOCE_CHECK(rec.ok());
      frozen_errs.push_back(day[w].labels[i].DError(rec->model, w_a));
    }
    row.frozen_derr = stats::Mean(frozen_errs);

    // Adapting: serve the window (quality as requests arrive), enqueue
    // what the serving model flags OOD, drain at window end.
    row.adapt_derr = ServeWindow(adapt_server->get(), day[w], w_a);
    for (size_t i = 0; i < day[w].size(); ++i) {
      adapt::Offered offered =
          (*adapt_pipe)->MaybeEnqueue(day[w].datasets[i], day[w].graphs[i]);
      if (offered == adapt::Offered::kAdmitted ||
          offered == adapt::Offered::kAdmittedEvicting) {
        ++row.ood;
      }
    }
    AUTOCE_CHECK((*adapt_pipe)->DrainAll().ok());
    row.applied_total = (*adapt_pipe)->stats().items_applied;
    {
      auto store = util::SnapshotStore::Open(adapt_dir);
      AUTOCE_CHECK(store.ok());
      auto gen = store->ManifestGeneration();
      row.generation = gen.ok() ? *gen : 0;
    }
    // The server follows the trainer bit-for-bit after the reload.
    AUTOCE_CHECK((*adapt_server)->advisor()->ModelDigest() ==
                 (*adapt_pipe)->TrainerDigest());

    // Faulted: same stream, with label/train/commit faults injected.
    AUTOCE_CHECK(util::Faults()
                     .Configure("adapt.label:0.3,adapt.train:0.25,"
                                "adapt.commit:0.2",
                                /*seed=*/7)
                     .ok());
    row.fault_derr = ServeWindow(fault_server->get(), day[w], w_a);
    for (size_t i = 0; i < day[w].size(); ++i) {
      (*fault_pipe)->MaybeEnqueue(day[w].datasets[i], day[w].graphs[i]);
    }
    AUTOCE_CHECK((*fault_pipe)->DrainAll().ok());
    util::Faults().Disable();

    rows.push_back(row);
    PrintRow({std::to_string(row.window), Fmt(row.drift, 2),
              Fmt(row.frozen_derr, 3), Fmt(row.adapt_derr, 3),
              Fmt(row.fault_derr, 3), std::to_string(row.ood),
              std::to_string(row.applied_total),
              std::to_string(row.generation)});
  }

  // --- end of day: the whole stream against the final model ----------
  // Per-window rows above measure quality AS requests arrive (window w
  // is served before its own items adapt), so the last window never
  // shows its own benefit. Re-serving the day's stream against the
  // final adapted model is the paper's Sec. V-E claim shape: once the
  // loop has labeled the drifted region, requests from it recommend
  // well.
  std::vector<double> eod_frozen, eod_adapt;
  for (int w = 0; w < windows; ++w) {
    for (size_t i = 0; i < day[w].size(); ++i) {
      auto rec = frozen.Recommend(day[w].graphs[i], w_a);
      AUTOCE_CHECK(rec.ok());
      eod_frozen.push_back(day[w].labels[i].DError(rec->model, w_a));
      serve::RecommendRequest request;
      request.id = i;
      request.graph = day[w].graphs[i];
      request.w_a = w_a;
      serve::RecommendResponse response =
          (*adapt_server)->ServeOne(request);
      AUTOCE_CHECK(response.status.ok());
      eod_adapt.push_back(
          day[w].labels[i].DError(response.recommendation.model, w_a));
    }
  }
  double eod_frozen_derr = stats::Mean(eod_frozen);
  double eod_adapt_derr = stats::Mean(eod_adapt);
  std::printf("# end-of-day DErr over the full stream: frozen %.3f vs "
              "adapted %.3f\n",
              eod_frozen_derr, eod_adapt_derr);

  adapt::AdaptationStats astats = (*adapt_pipe)->stats();
  adapt::AdaptationStats fstats = (*fault_pipe)->stats();
  std::printf(
      "# adapting: %llu applied, %llu sentinel, %llu quarantined, "
      "%llu generations, %llu reloads\n",
      static_cast<unsigned long long>(astats.items_applied),
      static_cast<unsigned long long>(astats.labels_sentinel),
      static_cast<unsigned long long>(astats.items_quarantined),
      static_cast<unsigned long long>(astats.generations_committed),
      static_cast<unsigned long long>(astats.reloads_triggered));
  std::printf(
      "# faulted:  %llu applied, %llu sentinel, %llu quarantined, "
      "%llu label retries, %llu train retries, %llu commit rollbacks\n",
      static_cast<unsigned long long>(fstats.items_applied),
      static_cast<unsigned long long>(fstats.labels_sentinel),
      static_cast<unsigned long long>(fstats.items_quarantined),
      static_cast<unsigned long long>(fstats.label_retries),
      static_cast<unsigned long long>(fstats.train_retries),
      static_cast<unsigned long long>(fstats.commit_failures));

  // --- serve latency: pipeline idle vs. training on a drain thread ---
  std::vector<featgraph::FeatureGraph> probe_graphs = day[windows - 1].graphs;
  TimeServe(adapt_server->get(), probe_graphs, 1);  // warm the embed cache
  LatencyPoint idle = TimeServe(adapt_server->get(), probe_graphs, p99_repeats);

  // Fresh OOD load the pipeline has never seen, drained on a thread of
  // this bench's own concurrently with the timed serving loop.
  Rng load_rng(777);
  auto load_ds = data::GenerateCorpus(DriftedParams(spec.gen, 1.0),
                                      paper ? 32 : 16, &load_rng);
  auto worker_pipe =
      adapt::AdaptationPipeline::Open(adapt_dir, adapt_server->get(), acfg);
  AUTOCE_CHECK(worker_pipe.ok());
  (*worker_pipe)->set_labeler(MapLabeler(labels_by_name));
  for (auto& d : load_ds) {
    featgraph::FeatureGraph g = extractor.Extract(d);
    (*worker_pipe)->queue().Offer(std::move(d), std::move(g), 1.0);
  }
  std::thread worker([&] { AUTOCE_CHECK((*worker_pipe)->DrainAll().ok()); });
  LatencyPoint active =
      TimeServe(adapt_server->get(), probe_graphs, p99_repeats);
  worker.join();
  double p99_delta_pct =
      idle.p99_ms > 0 ? 100.0 * (active.p99_ms - idle.p99_ms) / idle.p99_ms
                      : 0.0;
  double p50_delta_pct =
      idle.p50_ms > 0 ? 100.0 * (active.p50_ms - idle.p50_ms) / idle.p50_ms
                      : 0.0;
  std::printf(
      "# serve latency: idle worker p50 %.3f ms / p99 %.3f ms; active "
      "worker p50 %.3f ms / p99 %.3f ms (p50 delta %+.1f%%, p99 delta "
      "%+.1f%%)\n"
      "# (the serve path never blocks on the worker — an unchanged p50 "
      "shows no lock\n"
      "#  contention; on a single-core host the p99 tail is scheduler "
      "preemption while\n"
      "#  the worker trains, and disappears with a spare core)\n",
      idle.p50_ms, idle.p99_ms, active.p50_ms, active.p99_ms, p50_delta_pct,
      p99_delta_pct);

  // --- BENCH_adapt.json ---------------------------------------------
  char buf[512];
  std::string windows_json = "[\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const WindowRow& r = rows[i];
    std::snprintf(buf, sizeof(buf),
                  "    {\"window\": %d, \"drift\": %.2f, "
                  "\"frozen_derr\": %.4f, \"adapt_derr\": %.4f, "
                  "\"fault_derr\": %.4f, \"requests\": %zu, \"ood\": %zu, "
                  "\"applied_total\": %llu, \"generation\": %llu}%s\n",
                  r.window, r.drift, r.frozen_derr, r.adapt_derr,
                  r.fault_derr, r.requests, r.ood,
                  static_cast<unsigned long long>(r.applied_total),
                  static_cast<unsigned long long>(r.generation),
                  i + 1 < rows.size() ? "," : "");
    windows_json += buf;
  }
  windows_json += "  ]";
  auto stats_json = [&buf](const adapt::AdaptationStats& s) {
    std::snprintf(
        buf, sizeof(buf),
        "{\"applied\": %llu, \"deduped\": %llu, \"sentinel\": %llu,\n"
        "    \"quarantined\": %llu, \"label_retries\": %llu, "
        "\"train_retries\": %llu,\n"
        "    \"commit_failures\": %llu, \"generations\": %llu, "
        "\"reloads\": %llu}",
        static_cast<unsigned long long>(s.items_applied),
        static_cast<unsigned long long>(s.items_deduped),
        static_cast<unsigned long long>(s.labels_sentinel),
        static_cast<unsigned long long>(s.items_quarantined),
        static_cast<unsigned long long>(s.label_retries),
        static_cast<unsigned long long>(s.train_retries),
        static_cast<unsigned long long>(s.commit_failures),
        static_cast<unsigned long long>(s.generations_committed),
        static_cast<unsigned long long>(s.reloads_triggered));
    return std::string(buf);
  };

  obs::RunManifest manifest = BenchManifest("adapt", seed);
  manifest.AddDouble("wall_seconds", wall.ElapsedSeconds())
      .AddInt("train_datasets", train_datasets)
      .AddInt("windows", windows)
      .AddInt("per_window", per_window)
      .AddDouble("drift_threshold", frozen.DriftThreshold())
      .AddRaw("windows_quality", windows_json)
      .AddDouble("end_of_day_frozen_derr", eod_frozen_derr)
      .AddDouble("end_of_day_adapted_derr", eod_adapt_derr)
      .AddRaw("adapt_stats", stats_json(astats))
      .AddRaw("fault_stats", stats_json(fstats))
      .AddDouble("serve_p50_ms_worker_idle", idle.p50_ms)
      .AddDouble("serve_p99_ms_worker_idle", idle.p99_ms)
      .AddDouble("serve_p50_ms_worker_active", active.p50_ms)
      .AddDouble("serve_p99_ms_worker_active", active.p99_ms)
      .AddDouble("serve_p50_delta_pct", p50_delta_pct)
      .AddDouble("serve_p99_delta_pct", p99_delta_pct);
  AUTOCE_CHECK(manifest.WriteTo("BENCH_adapt.json"));
  std::printf("# wrote BENCH_adapt.json\n");
  return 0;
}

}  // namespace
}  // namespace autoce::bench

int main() { return autoce::bench::Main(); }

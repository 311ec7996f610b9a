#include "bench/support/soak.h"

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "adapt/pipeline.h"
#include "advisor/autoce.h"
#include "data/generator.h"
#include "dyn/mutation.h"
#include "featgraph/featgraph.h"
#include "obs/clock.h"
#include "serve/server.h"
#include "util/fault.h"
#include "util/rng.h"
#include "util/snapshot.h"

namespace autoce::adapt {
namespace {

/// Simulated seconds consumed per clock observation.
constexpr double kSimSecondsPerLook = 0.005;

/// Simulated monotonic clock shared by the server (deadlines) and the
/// pipeline (label budgets): every observation consumes 5 simulated ms,
/// so budget decisions are a pure function of the observation SEQUENCE,
/// never of machine load. Atomic because a multi-worker labeling phase
/// may observe concurrently; the worker determinism sweep still runs
/// budgets unlimited, since concurrent observation ORDER is
/// scheduler-dependent.
using SimClock = std::atomic<double>;

obs::Clock MakeClock(const std::shared_ptr<SimClock>& now_s) {
  return [now_s] {
    return now_s->fetch_add(kSimSecondsPerLook) + kSimSecondsPerLook;
  };
}

advisor::AutoCeConfig SoakAdvisorConfig() {
  advisor::AutoCeConfig cfg;
  cfg.dml.epochs = 4;
  cfg.validation_interval = 2;
  cfg.incremental_epochs = 2;
  cfg.gin.hidden = 8;
  cfg.gin.embedding_dim = 4;
  cfg.knn_k = 2;
  return cfg;
}

std::vector<data::Dataset> MakeDatasets(int n, uint64_t seed) {
  data::DatasetGenParams p;
  p.min_tables = 1;
  p.max_tables = 2;
  p.min_rows = 100;
  p.max_rows = 220;
  p.min_columns = 2;
  p.max_columns = 3;
  Rng rng(seed);
  return data::GenerateCorpus(p, n, &rng);
}

/// Content-pure synthetic labeler (same shape as the crash-recovery
/// harness): the label is a pure function of the content-derived seed,
/// so armed, unarmed, and restarted runs label an item to the same
/// bits.
Labeler SyntheticLabeler() {
  return [](const data::Dataset&,
            uint64_t seed) -> Result<advisor::DatasetLabel> {
    Rng rng(seed);
    advisor::DatasetLabel label;
    for (size_t m = 0; m < ce::kNumModels; ++m) {
      label.accuracy_score[m] = rng.Uniform(0.1, 1.0);
      label.efficiency_score[m] = rng.Uniform(0.1, 1.0);
      label.qerror_mean[m] = rng.Uniform(1.0, 40.0);
      label.latency_ms[m] = rng.Uniform(0.1, 130.0);
    }
    return label;
  };
}

/// Fits the small reference advisor into an empty store — the durable
/// starting state every kill/restart cycle reopens from.
Status SetupStore(const std::string& dir, uint64_t seed) {
  auto datasets = MakeDatasets(12, util::FaultKeyMix(seed, 0x5e70ULL));
  featgraph::FeatureExtractor fx;
  std::vector<featgraph::FeatureGraph> graphs;
  graphs.reserve(datasets.size());
  for (const auto& d : datasets) graphs.push_back(fx.Extract(d));
  std::vector<advisor::DatasetLabel> labels;
  Rng rng(util::FaultKeyMix(seed, 0x1abeULL));
  for (size_t i = 0; i < graphs.size(); ++i) {
    advisor::DatasetLabel label;
    for (size_t m = 0; m < ce::kNumModels; ++m) {
      label.accuracy_score[m] = rng.Uniform(0.1, 1.0);
      label.efficiency_score[m] = rng.Uniform(0.1, 1.0);
      label.qerror_mean[m] = rng.Uniform(1.0, 40.0);
      label.latency_ms[m] = rng.Uniform(0.1, 130.0);
    }
    labels.push_back(label);
  }
  advisor::AutoCe advisor(SoakAdvisorConfig());
  Status st = advisor.EnableSnapshots(dir);
  if (st.ok()) st = advisor.Fit(graphs, labels);
  return st;
}

/// Durable generation on disk right now (0 when the store or MANIFEST
/// is unreadable — which the durability invariant then catches).
uint64_t DurableGeneration(const std::string& dir) {
  auto store = util::SnapshotStore::Open(dir);
  if (!store.ok()) return 0;
  auto gen = store->ManifestGeneration();
  return gen.ok() ? *gen : 0;
}

/// Live server + pipeline over the store. A kill/restart cycle is
/// "destroy this struct, build a new one": everything in-memory dies,
/// only the durable store carries over — the in-process equivalent of
/// the crash-recovery harness's `kill -9` + rerun.
struct LiveLoop {
  std::unique_ptr<serve::AdvisorServer> server;
  std::unique_ptr<AdaptationPipeline> pipeline;
};

Result<LiveLoop> OpenLoop(const SoakConfig& config,
                          const std::shared_ptr<SimClock>& clock) {
  serve::ServerConfig server_config;
  server_config.max_batch = 2;  // multi-batch bursts exercise mid-burst deadlines
  server_config.request_deadline_ms = config.request_deadline_ms;
  server_config.clock = MakeClock(clock);
  auto server = serve::AdvisorServer::Open(config.store_dir, server_config);
  if (!server.ok()) return server.status();

  AdaptationConfig adapt_config;
  adapt_config.batch_size = config.items_per_tick == 0 ? 1 : config.items_per_tick;
  adapt_config.seed = config.seed;
  adapt_config.label_budget_ms_per_batch = config.label_budget_ms_per_batch;
  adapt_config.num_workers = config.num_workers;
  adapt_config.clock = MakeClock(clock);
  auto pipeline = AdaptationPipeline::Open(config.store_dir, server->get(),
                                           adapt_config);
  if (!pipeline.ok()) return pipeline.status();
  (*pipeline)->set_labeler(SyntheticLabeler());
  (*pipeline)->set_sleep_fn([](double) {});

  LiveLoop loop;
  loop.server = std::move(*server);
  loop.pipeline = std::move(*pipeline);
  return loop;
}

Status Violation(const char* what, uint64_t tick, const std::string& detail) {
  return Status::Internal("soak invariant violated at tick " +
                          std::to_string(tick) + ": " + what +
                          (detail.empty() ? "" : " (" + detail + ")"));
}

Result<SoakReport> RunSoakImpl(const SoakConfig& config) {
  if (config.store_dir.empty()) {
    return Status::InvalidArgument("SoakConfig.store_dir is required");
  }
  if (config.ticks == 0) {
    return Status::InvalidArgument("SoakConfig.ticks must be positive");
  }

  // The chaos schedule: pure in (config.seed, shape), generated before
  // anything runs so armed and unarmed replays agree on every phase.
  util::ChaosScheduleConfig chaos = config.chaos;
  chaos.seed = config.seed;
  chaos.ticks = config.ticks;
  if (chaos.site_pool.empty()) {
    chaos.site_pool = {
        util::fault_sites::kAdaptLabel,    util::fault_sites::kAdaptTrain,
        util::fault_sites::kAdaptCommit,   util::fault_sites::kSnapshotWrite,
        util::fault_sites::kSnapshotManifest,
        util::fault_sites::kServeAdmission,
    };
  }
  auto schedule = util::GenerateChaosSchedule(chaos);
  if (!schedule.ok()) return schedule.status();

  // Self-setup: an empty store gets the reference fitted advisor
  // (faults stay disabled — chaos targets the loop, not its genesis).
  util::Faults().Disable();
  if (DurableGeneration(config.store_dir) == 0) {
    Status st = SetupStore(config.store_dir, config.seed);
    if (!st.ok()) return st;
  }

  auto clock = std::make_shared<SimClock>(0.0);

  // Drift-fed mode: one persistent pool that mutates every tick; the
  // feedback stream becomes its drifted snapshots. The pool is created
  // once (same generator path as the classic feed) and its trajectory
  // is a pure function of (content fingerprint, epoch) — kills and
  // worker counts cannot perturb it.
  std::vector<data::Dataset> drift_pool;
  dyn::MutationConfig drift_cfg;
  if (config.drift_intensity > 0.0) {
    drift_pool = MakeDatasets(
        static_cast<int>(std::max<std::size_t>(1, config.items_per_tick)),
        util::FaultKeyMix(config.seed, 0xd21f7ULL));
    drift_cfg.intensity = config.drift_intensity;
  }

  auto loop = OpenLoop(config, clock);
  if (!loop.ok()) return loop.status();

  SoakReport report;
  report.max_concurrent_sites = schedule->MaxConcurrentSites();
  report.ticks.reserve(config.ticks);

  featgraph::FeatureExtractor fx;
  uint64_t last_generation = DurableGeneration(config.store_dir);
  // Stats baselines for per-tick deltas; reset to zero on restart
  // because a reopened server/pipeline starts fresh counters.
  AdaptationStats adapt_base;
  serve::ServerStats serve_base;

  for (uint64_t tick = 0; tick < config.ticks; ++tick) {
    SoakTickRow row;
    row.tick = tick;

    // Kill/restart cycle at the tick START: the previous tick drained
    // the queue, so nothing in flight is lost and the armed/unarmed
    // item streams stay identical.
    if (config.arm_kills && schedule->KillAtTick(tick)) {
      loop->pipeline.reset();
      loop->server.reset();
      util::Faults().Disable();  // reopen runs clean
      auto reopened = OpenLoop(config, clock);
      if (!reopened.ok()) return reopened.status();
      *loop = std::move(*reopened);
      adapt_base = AdaptationStats{};
      serve_base = serve::ServerStats{};
      row.killed = true;
      ++report.kills;
    }

    // Arm this tick's chaos phase. Fault decisions downstream are
    // content-keyed, so the set of faults that FIRE is identical for
    // any worker count and with kills on or off.
    row.fault_spec = schedule->SpecForTick(tick);
    if (config.arm_faults) {
      Status st = util::Faults().Configure(row.fault_spec,
                                                             config.seed);
      if (!st.ok()) return st;
    }

    // Serve burst: deterministic request stream, fresh graphs per tick.
    if (config.requests_per_tick > 0) {
      auto request_data = MakeDatasets(
          static_cast<int>(config.requests_per_tick),
          util::FaultKeyMix(config.seed, 0x5e42ULL + tick));
      std::vector<serve::RecommendRequest> burst;
      burst.reserve(request_data.size());
      for (size_t i = 0; i < request_data.size(); ++i) {
        serve::RecommendRequest request;
        request.id = tick * config.requests_per_tick + i;
        request.graph = fx.Extract(request_data[i]);
        request.w_a = 0.5 + 0.1 * static_cast<double>(i % 5);
        burst.push_back(std::move(request));
      }
      auto responses = loop->server->Serve(burst);
      for (const auto& response : responses) {
        if (!response.status.ok()) {
          return Violation("serve burst failed", tick,
                           response.status.ToString());
        }
      }
    }

    // Feedback: fresh OOD items offered straight to the queue with a
    // deterministic priority, so the drained stream is a pure function
    // of (seed, tick) — independent of the serving model's drift state.
    std::vector<data::Dataset> feed;
    if (config.drift_intensity > 0.0) {
      for (auto& ds : drift_pool) {
        auto applied = dyn::ApplyEpochs(
            &ds, drift_cfg, static_cast<int>(config.drift_epochs_per_tick));
        if (!applied.ok()) return applied.status();
        report.drift_epochs += config.drift_epochs_per_tick;
      }
      feed = drift_pool;  // drifted copies; the pool keeps mutating
    } else {
      feed = MakeDatasets(static_cast<int>(config.items_per_tick),
                          util::FaultKeyMix(config.seed, 0xfeedULL + tick));
    }
    for (size_t i = 0; i < feed.size(); ++i) {
      featgraph::FeatureGraph graph = fx.Extract(feed[i]);
      loop->pipeline->queue().Offer(std::move(feed[i]), std::move(graph),
                                    1.0 + static_cast<double>((tick + i) % 7));
      ++report.items_offered;
    }

    Status drained = loop->pipeline->DrainAll();
    if (!drained.ok()) return drained;

    // --- Standing invariants -------------------------------------
    if (loop->pipeline->queue().depth() != 0) {
      return Violation("queue stuck after DrainAll", tick,
                       std::to_string(loop->pipeline->queue().depth()) +
                           " items pending");
    }
    uint64_t generation = DurableGeneration(config.store_dir);
    if (generation < last_generation) {
      return Violation("durable generation regressed", tick,
                       std::to_string(last_generation) + " -> " +
                           std::to_string(generation));
    }
    last_generation = generation;

    // --- Per-tick accounting (deltas against the live loop) ------
    AdaptationStats adapt_now = loop->pipeline->stats();
    serve::ServerStats serve_now = loop->server->stats();
    row.generation = generation;
    row.applied = adapt_now.items_applied - adapt_base.items_applied;
    row.sentinel = adapt_now.labels_sentinel - adapt_base.labels_sentinel;
    row.shed = serve_now.shed - serve_base.shed;
    row.deadline_shed = serve_now.deadline_shed - serve_base.deadline_shed;

    report.items_applied += row.applied;
    report.labels_sentinel += row.sentinel;
    report.labels_ok += adapt_now.labels_ok - adapt_base.labels_ok;
    report.items_deduped += adapt_now.items_deduped - adapt_base.items_deduped;
    report.items_quarantined +=
        adapt_now.items_quarantined - adapt_base.items_quarantined;
    report.labels_budget_expired +=
        adapt_now.labels_budget_expired - adapt_base.labels_budget_expired;
    report.commit_failures +=
        adapt_now.commit_failures - adapt_base.commit_failures;
    report.requests += serve_now.requests - serve_base.requests;
    report.shed += row.shed;
    report.deadline_shed += row.deadline_shed;
    adapt_base = adapt_now;
    serve_base = serve_now;

    // Bounded degradation: once enough items flowed, a healthy loop
    // labels most of them despite chaos (label faults are retried).
    if (report.labels_ok + report.labels_sentinel >= 10 &&
        report.SentinelFraction() > 0.9) {
      return Violation("sentinel fraction unbounded", tick,
                       std::to_string(report.SentinelFraction()));
    }

    report.ticks.push_back(std::move(row));
  }

  report.final_digest = loop->pipeline->TrainerDigest();
  report.final_generation = DurableGeneration(config.store_dir);
  report.ended_durable = report.final_generation != 0;
  if (!report.ended_durable) {
    return Violation("run did not end on a durable generation", config.ticks,
                     config.store_dir);
  }
  return report;
}

}  // namespace

Result<SoakReport> RunSoak(const SoakConfig& config) {
  auto report = RunSoakImpl(config);
  // Chaos never outlives the run, success or not: later code in the
  // same process (other soak configs, test teardown) starts clean.
  util::Faults().Disable();
  return report;
}

}  // namespace autoce::adapt

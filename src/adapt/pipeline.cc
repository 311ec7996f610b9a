#include "adapt/pipeline.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <utility>

#include "advisor/label.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/fault.h"
#include "util/logging.h"
#include "util/snapshot.h"
#include "util/timer.h"

namespace autoce::adapt {

namespace {

/// Bounded retries: labeling attempts per item and training attempts
/// per unit before degrading (sentinel label / quarantine).
constexpr int kMaxLabelAttempts = 3;
constexpr int kMaxTrainAttempts = 2;
/// Seeded exponential backoff between retry attempts:
/// initial * multiplier^(attempt-1) * (1 + jitter * U[0,1)) ms, with U
/// drawn from an Rng keyed by (seed, item fingerprint, attempt).
constexpr double kBackoffInitialMs = 10.0;
constexpr double kBackoffMultiplier = 2.0;
constexpr double kBackoffJitter = 0.5;

std::string QuarantineLogPath(const std::string& store_dir) {
  return store_dir + "/QUARANTINE.log";
}

/// Quarantine reasons come from Status messages (single-line by
/// convention); squash separators anyway so one record is one line.
std::string SanitizeReason(std::string s) {
  for (char& c : s) {
    if (c == '\t' || c == '\n' || c == '\r') c = ' ';
  }
  return s;
}

}  // namespace

std::vector<QuarantineRecord> ReadQuarantineLog(const std::string& store_dir) {
  std::vector<QuarantineRecord> records;
  FILE* f = std::fopen(QuarantineLogPath(store_dir).c_str(), "r");
  if (f == nullptr) return records;
  char line[2048];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    // `fingerprint \t stage \t reason`; malformed lines (e.g. from a
    // write torn by a crash) are skipped — the log is advisory.
    char* end = nullptr;
    unsigned long long fp = std::strtoull(line, &end, 10);
    if (end == line || *end != '\t') continue;
    char* stage = end + 1;
    char* tab2 = std::strchr(stage, '\t');
    if (tab2 == nullptr) continue;
    QuarantineRecord record;
    record.fingerprint = fp;
    record.stage.assign(stage, tab2);
    char* reason = tab2 + 1;
    std::size_t len = std::strlen(reason);
    while (len > 0 && (reason[len - 1] == '\n' || reason[len - 1] == '\r')) {
      --len;
    }
    record.reason.assign(reason, len);
    records.push_back(std::move(record));
  }
  std::fclose(f);
  return records;
}

std::size_t RemoveFromQuarantineLog(const std::string& store_dir,
                                    uint64_t fingerprint) {
  std::vector<QuarantineRecord> records = ReadQuarantineLog(store_dir);
  std::size_t removed = 0;
  // Rewrite via temp + rename so a crash mid-rewrite leaves a whole log
  // (old or new), matching the snapshot store's atomicity discipline.
  const std::string path = QuarantineLogPath(store_dir);
  const std::string tmp = path + ".tmp";
  FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) return 0;
  for (const QuarantineRecord& record : records) {
    if (record.fingerprint == fingerprint) {
      ++removed;
      continue;
    }
    std::fprintf(f, "%" PRIu64 "\t%s\t%s\n", record.fingerprint,
                 record.stage.c_str(), record.reason.c_str());
  }
  std::fclose(f);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return 0;
  }
  return removed;
}

advisor::DatasetLabel SentinelLabel() {
  advisor::DatasetLabel label;
  for (std::size_t m = 0; m < ce::kNumModels; ++m) {
    label.accuracy_score[m] = advisor::kScoreFloor;
    label.efficiency_score[m] = advisor::kScoreFloor;
    label.qerror_mean[m] = advisor::kQErrorCap;
    label.latency_ms[m] = advisor::kLatencyCapMs;
    label.failed[m] = true;
  }
  return label;
}

Labeler TestbedLabeler(ce::TestbedConfig base) {
  return [base](const data::Dataset& dataset,
                uint64_t seed) -> Result<advisor::DatasetLabel> {
    ce::TestbedConfig cfg = base;
    cfg.seed = seed;
    AUTOCE_ASSIGN_OR_RETURN(ce::TestbedResult result,
                            ce::RunTestbed(dataset, cfg));
    return advisor::MakeLabel(result);
  };
}

Result<std::unique_ptr<AdaptationPipeline>> AdaptationPipeline::Open(
    const std::string& store_dir, serve::AdvisorServer* server,
    AdaptationConfig config, util::SnapshotStoreOptions store_options) {
  // A zero batch would drain nothing per RunOnce, so DrainAll could
  // never empty the queue.
  if (config.batch_size == 0) {
    return Status::InvalidArgument("adaptation batch_size must be >= 1");
  }
  // The trainer always comes off the durable store — the same ResumeFit
  // path a crash recovery takes, so a fresh Open and a post-crash Open
  // run identical code.
  AUTOCE_ASSIGN_OR_RETURN(
      advisor::AutoCe trainer,
      advisor::AutoCe::ResumeFit(store_dir, store_options, nullptr));
  AUTOCE_ASSIGN_OR_RETURN(util::SnapshotStore verify_store,
                          util::SnapshotStore::Open(store_dir, store_options));
  return std::unique_ptr<AdaptationPipeline>(new AdaptationPipeline(
      std::move(config), store_options, store_dir, server, std::move(trainer),
      std::move(verify_store)));
}

AdaptationPipeline::AdaptationPipeline(AdaptationConfig config,
                                       util::SnapshotStoreOptions store_options,
                                       std::string store_dir,
                                       serve::AdvisorServer* server,
                                       advisor::AutoCe trainer,
                                       util::SnapshotStore verify_store)
    : config_(std::move(config)),
      store_options_(store_options),
      store_dir_(std::move(store_dir)),
      server_(server),
      queue_(config_.queue_capacity),
      labeler_(TestbedLabeler(config_.testbed)),
      sleep_fn_([](double ms) {
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
      }),
      trainer_(std::move(trainer)),
      verify_store_(std::move(verify_store)) {
  RebuildRcsFingerprints();
  LoadQuarantineLog();
}

void AdaptationPipeline::LoadQuarantineLog() {
  for (const QuarantineRecord& record : ReadQuarantineLog(store_dir_)) {
    quarantine_set_.insert(record.fingerprint);
  }
}

void AdaptationPipeline::RebuildRcsFingerprints() {
  rcs_fingerprints_.clear();
  for (const featgraph::FeatureGraph& graph : trainer_.rcs_graphs()) {
    rcs_fingerprints_.insert(featgraph::GraphFingerprint(graph));
  }
}

Offered AdaptationPipeline::MaybeEnqueue(const data::Dataset& dataset,
                                         const featgraph::FeatureGraph& graph) {
  AUTOCE_CHECK(server_ != nullptr);
  // Detection runs against the SERVING advisor (the generation answering
  // requests), not the trainer — exactly the threshold the paper's
  // Stage 5 applies to incoming workloads.
  std::shared_ptr<const advisor::AutoCe> advisor = server_->advisor();
  double distance = advisor->DistanceToRcs(graph);
  if (!(distance > advisor->DriftThreshold())) return Offered::kNotOod;
  return queue_.Offer(dataset, graph, distance);
}

Result<Offered> AdaptationPipeline::RequeueFromQuarantine(
    uint64_t fingerprint, const data::Dataset& dataset,
    const featgraph::FeatureGraph& graph) {
  std::lock_guard<std::mutex> lock(mu_);
  if (quarantine_set_.count(fingerprint) == 0) {
    return Status::NotFound("fingerprint is not quarantined");
  }
  if (featgraph::GraphFingerprint(graph) != fingerprint) {
    return Status::InvalidArgument(
        "requeue dataset does not fingerprint to the quarantined entry");
  }
  quarantine_set_.erase(fingerprint);
  RemoveFromQuarantineLog(store_dir_, fingerprint);
  // Offer directly — no drift gate: the item was OOD when it first
  // arrived, and the operator explicitly asked for a retry. Priority is
  // the trainer's current drift distance so it competes fairly with
  // live feedback.
  return queue_.Offer(dataset, graph, trainer_.DistanceToRcs(graph));
}

void AdaptationPipeline::Backoff(uint64_t fingerprint, int attempt) {
  double ms = kBackoffInitialMs;
  for (int i = 1; i < attempt; ++i) ms *= kBackoffMultiplier;
  // Jitter keyed by (seed, item, attempt): deterministic, and
  // independent across items so synchronized retry storms cannot form.
  Rng rng(util::FaultKeyMix(util::FaultKeyMix(config_.seed, fingerprint),
                            static_cast<uint64_t>(attempt)));
  ms *= 1.0 + kBackoffJitter * rng.Uniform();
  backoff_ms_total_.fetch_add(ms, std::memory_order_relaxed);
  if (sleep_fn_) sleep_fn_(ms);
}

Result<advisor::DatasetLabel> AdaptationPipeline::LabelWithRetries(
    const OodCandidate& item, double budget_start) {
  obs::TraceSpan span("adapt.label");
  // The labeler seed is attempt-independent: a retried item ends up
  // with the same label a first-try success would have produced.
  uint64_t label_seed = util::FaultKeyMix(config_.seed, item.fingerprint);
  // Reads the clock only for a limited budget: each read advances a
  // simulated clock, so the reads are part of the budget's contract.
  const double budget_s = config_.label_budget_ms_per_batch / 1000.0;
  auto elapsed = [&] { return obs::Now(config_.clock) - budget_start; };
  auto expired = [&] { return budget_s > 0.0 && elapsed() >= budget_s; };
  Status last = Status::Internal("no labeling attempt ran");
  for (int attempt = 1; attempt <= kMaxLabelAttempts; ++attempt) {
    // The budget gates each attempt (a started attempt runs to
    // completion — a label that finishes late is still trustworthy);
    // once it expires the item degrades like retry exhaustion.
    if (expired()) {
      char msg[160];
      std::snprintf(msg, sizeof(msg),
                    "adapt.label: deadline budget of %.3fs exhausted "
                    "(elapsed %.3fs)",
                    budget_s, elapsed());
      return Status::DeadlineExceeded(msg);
    }
    if (util::FaultPoint(util::fault_sites::kAdaptLabel,
                         util::FaultKeyMix(item.fingerprint,
                                           static_cast<uint64_t>(attempt)))) {
      last = Status::Internal("injected label fault (attempt " +
                              std::to_string(attempt) + ")");
    } else {
      auto label = labeler_(item.dataset, label_seed);
      if (label.ok()) return label;
      last = label.status();
    }
    if (attempt < kMaxLabelAttempts) {
      if (expired()) continue;  // the check above reports it
      counters_.label_retries.Add();
      Backoff(item.fingerprint, attempt);
    }
  }
  return last;
}

void AdaptationPipeline::Quarantine(const OodCandidate& item,
                                    const char* stage,
                                    const std::string& reason,
                                    BatchReport* report) {
  QuarantineRecord record;
  record.fingerprint = item.fingerprint;
  record.stage = stage;
  record.reason = SanitizeReason(reason);
  // Append to the sidecar log before updating memory: a crash right
  // after the append merely re-quarantines the item on reload, which
  // dedups. The log is advisory (no fsync) — losing a tail entry only
  // means the item gets retried after a restart.
  if (FILE* f = std::fopen(QuarantineLogPath(store_dir_).c_str(), "a")) {
    std::fprintf(f, "%" PRIu64 "\t%s\t%s\n", record.fingerprint,
                 record.stage.c_str(), record.reason.c_str());
    std::fclose(f);
  }
  counters_.items_quarantined.Add();
  ++report->quarantined;
  quarantine_set_.insert(record.fingerprint);
}

Status AdaptationPipeline::ReloadTrainer() {
  AUTOCE_ASSIGN_OR_RETURN(
      advisor::AutoCe fresh,
      advisor::AutoCe::ResumeFit(store_dir_, store_options_, nullptr));
  trainer_ = std::move(fresh);
  RebuildRcsFingerprints();
  return Status::OK();
}

Status AdaptationPipeline::TrainUnit(const OodCandidate& item,
                                     const advisor::DatasetLabel& label,
                                     bool sentinel, BatchReport* report,
                                     bool* any_applied) {
  obs::TraceSpan span("adapt.train");

  // The unit: the item itself plus (for trustworthy labels) a Mixup
  // interpolation toward its nearest RCS member — the paper's Eq. 14
  // augmentation, which densifies the neighborhood the new sample
  // landed in. Sentinel labels are not smeared across the corpus.
  std::vector<featgraph::FeatureGraph> unit_graphs{item.graph};
  std::vector<advisor::DatasetLabel> unit_labels{label};
  if (!sentinel && trainer_.RcsSize() > 0) {
    std::vector<double> embedding = trainer_.Embed(item.graph);
    auto neighbors = trainer_.rcs_index().Query(embedding, 1);
    if (!neighbors.empty()) {
      std::size_t partner = neighbors[0].index;
      Rng mix_rng(util::FaultKeyMix(
          util::FaultKeyMix(config_.seed, 0x6D697875ULL), item.fingerprint));
      double lambda = mix_rng.Beta(trainer_.config().mixup_alpha,
                                   trainer_.config().mixup_beta);
      unit_graphs.push_back(featgraph::MixupGraphs(
          item.graph, trainer_.rcs_graphs()[partner], lambda));
      unit_labels.push_back(advisor::DatasetLabel::Mixup(
          label, trainer_.rcs_labels()[partner], lambda));
    }
  }

  bool trained = false;
  Status train_status = Status::OK();
  for (int attempt = 1; attempt <= kMaxTrainAttempts; ++attempt) {
    // The injectable failure is checked BEFORE any trainer mutation, so
    // a faulted attempt is all-or-nothing by construction.
    if (util::FaultPoint(util::fault_sites::kAdaptTrain,
                         util::FaultKeyMix(item.fingerprint,
                                           static_cast<uint64_t>(attempt)))) {
      train_status = Status::Internal("injected train fault (attempt " +
                                      std::to_string(attempt) + ")");
      if (attempt < kMaxTrainAttempts) {
        counters_.train_retries.Add();
        Backoff(item.fingerprint, attempt);
      }
      continue;
    }
    train_status = trainer_.AddLabeledSamples(unit_graphs, unit_labels);
    if (!train_status.ok()) {
      // A real training error can leave the in-memory corpus ahead of
      // the durable store (the commit never ran). Retrying a
      // deterministic failure would fail the same way — roll back to
      // the durable generation and quarantine instead.
      AUTOCE_LOG(Warning) << "adaptation unit failed to train: "
                          << train_status.message();
      AUTOCE_RETURN_NOT_OK(ReloadTrainer());
    }
    trained = train_status.ok();
    break;
  }
  if (!trained) {
    Quarantine(item, "train", train_status.message(), report);
    return Status::OK();
  }

  // Crash window: the unit's generation is durable but the serving
  // process has not been told; a restarted pipeline must dedup the item
  // and the server must reload to the committed generation.
  util::KillPoint(util::kill_sites::kAdaptTrained, item.fingerprint);

  // Post-commit verification: the store must expose a readable
  // generation (the injectable `adapt.commit` failure models a torn or
  // vanished commit). On failure the trainer state is untrusted — roll
  // back to whatever is durable.
  auto manifest = verify_store_.ManifestGeneration();
  if (!manifest.ok() ||
      util::FaultPoint(util::fault_sites::kAdaptCommit, item.fingerprint)) {
    counters_.commit_failures.Add();
    AUTOCE_RETURN_NOT_OK(ReloadTrainer());
    Quarantine(item, "commit",
               manifest.ok() ? std::string("injected commit verification fault")
                             : manifest.status().message(),
               report);
    return Status::OK();
  }

  for (const featgraph::FeatureGraph& graph : unit_graphs) {
    rcs_fingerprints_.insert(featgraph::GraphFingerprint(graph));
  }
  counters_.items_applied.Add();
  counters_.generations_committed.Add();
  ++report->applied;
  *any_applied = true;
  return Status::OK();
}

Result<BatchReport> AdaptationPipeline::RunOnce() {
  std::lock_guard<std::mutex> lock(mu_);
  BatchReport report;
  auto manifest = verify_store_.ManifestGeneration();
  if (manifest.ok()) report.generation = *manifest;
  std::vector<OodCandidate> batch = queue_.DrainBatch(config_.batch_size);
  report.drained = batch.size();
  if (batch.empty()) return report;

  obs::TraceSpan span("adapt.batch");
  Timer timer;
  counters_.batches.Add();
  counters_.items_seen.Add(batch.size());

  struct ItemPlan {
    bool dedup = false;
    bool sentinel = false;
    bool budget_expired = false;
    Status label_error;
    advisor::DatasetLabel label;
  };
  std::vector<ItemPlan> plans(batch.size());
  std::vector<std::size_t> to_label;
  // Replay dedup, claimed against the state at batch start: items
  // already trained into the RCS (this run or a pre-crash one) and
  // quarantined items are consumed without labeling. Within one batch
  // fingerprints are distinct (queue pending dedup), so only
  // prior-batch state matters here, and the apply phase below rechecks
  // the live set as the authoritative gate.
  for (std::size_t i = 0; i < batch.size(); ++i) {
    uint64_t fingerprint = batch[i].fingerprint;
    if (rcs_fingerprints_.count(fingerprint) > 0 ||
        quarantine_set_.count(fingerprint) > 0) {
      plans[i].dedup = true;
    } else {
      to_label.push_back(i);
    }
  }

  // The per-batch wall-clock labeling budget arms when labeling
  // starts (one clock read, even for an unlimited budget); items it
  // cuts off degrade to sentinel labels exactly like retry exhaustion.
  const double budget_start = obs::Now(config_.clock);

  // Labels are a pure function of item content, so the labeling phase
  // parallelizes freely: any claim interleaving produces the same
  // plans. num_workers > 1 requires a thread-safe labeler.
  auto label_task = [&](std::size_t i) {
    const OodCandidate& item = batch[i];
    auto label_or = LabelWithRetries(item, budget_start);
    ItemPlan& plan = plans[i];
    plan.sentinel = !label_or.ok();
    plan.label = plan.sentinel ? SentinelLabel() : *label_or;
    if (plan.sentinel) {
      plan.label_error = label_or.status();
      plan.budget_expired =
          label_or.status().code() == StatusCode::kDeadlineExceeded;
    }
    // Crash window: the item is labeled but its unit is not applied; a
    // restart must relabel it to the same bits (content-keyed seed).
    util::KillPoint(util::kill_sites::kAdaptLabeled, item.fingerprint);
  };
  std::size_t workers =
      config_.num_workers < 1 ? 1 : static_cast<std::size_t>(config_.num_workers);
  workers = std::min(workers, to_label.size());
  if (workers <= 1) {
    for (std::size_t i : to_label) label_task(i);
  } else {
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      pool.emplace_back([&] {
        while (true) {
          std::size_t k = next.fetch_add(1, std::memory_order_relaxed);
          if (k >= to_label.size()) break;
          label_task(to_label[k]);
        }
      });
    }
    for (std::thread& t : pool) t.join();
  }

  // Apply phase: strict arrival order, so the sequence of committed
  // generations — hence the digest — is bit-identical at any worker
  // count.
  bool any_applied = false;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const OodCandidate& item = batch[i];
    ItemPlan& plan = plans[i];
    // Authoritative recheck against the live set: covers the corner of
    // a fingerprint introduced by an earlier unit in this very batch
    // (e.g. a Mixup graph), which the claim above predates.
    bool skip = plan.dedup || rcs_fingerprints_.count(item.fingerprint) > 0;
    if (skip) {
      counters_.items_deduped.Add();
      ++report.deduped;
      continue;
    }
    if (plan.sentinel) {
      AUTOCE_LOG(Warning)
          << "adaptation item " << item.dataset.name()
          << " exhausted labeling retries, degrading to sentinel scores: "
          << plan.label_error.message();
      counters_.labels_sentinel.Add();
      ++report.sentinel;
      if (plan.budget_expired) {
        counters_.labels_budget_expired.Add();
        ++report.budget_expired;
      }
    } else {
      counters_.labels_ok.Add();
    }
    AUTOCE_RETURN_NOT_OK(
        TrainUnit(item, plan.label, plan.sentinel, &report, &any_applied));
  }

  manifest = verify_store_.ManifestGeneration();
  if (manifest.ok()) report.generation = *manifest;
  if (any_applied && server_ != nullptr) {
    report.reload_attempted = true;
    counters_.reloads_triggered.Add();
    Status reload = server_->Reload();
    report.reload_ok = reload.ok();
    if (!reload.ok()) {
      // Degraded, not fatal: the server keeps answering on its previous
      // generation; the next batch triggers another reload.
      counters_.reload_failures.Add();
      AUTOCE_LOG(Warning) << "post-batch server reload failed: "
                          << reload.message();
    }
  }
  static obs::Histogram* const batch_ms =
      obs::MetricsRegistry::Instance().GetHistogram("adapt.batch_ms");
  batch_ms->Observe(timer.ElapsedMillis());
  return report;
}

Status AdaptationPipeline::DrainAll() {
  while (queue_.depth() > 0) {
    AUTOCE_ASSIGN_OR_RETURN(BatchReport report, RunOnce());
    (void)report;
  }
  return Status::OK();
}

AdaptationStats AdaptationPipeline::stats() const {
  AdaptationStats out;
  out.batches = counters_.batches.value();
  out.items_seen = counters_.items_seen.value();
  out.items_applied = counters_.items_applied.value();
  out.items_deduped = counters_.items_deduped.value();
  out.items_quarantined = counters_.items_quarantined.value();
  out.labels_ok = counters_.labels_ok.value();
  out.labels_sentinel = counters_.labels_sentinel.value();
  out.labels_budget_expired = counters_.labels_budget_expired.value();
  out.label_retries = counters_.label_retries.value();
  out.train_retries = counters_.train_retries.value();
  out.commit_failures = counters_.commit_failures.value();
  out.generations_committed = counters_.generations_committed.value();
  out.reloads_triggered = counters_.reloads_triggered.value();
  out.reload_failures = counters_.reload_failures.value();
  out.backoff_ms_total = backoff_ms_total_.load(std::memory_order_relaxed);
  return out;
}

uint64_t AdaptationPipeline::TrainerDigest() const {
  std::lock_guard<std::mutex> lock(mu_);
  return trainer_.ModelDigest();
}

std::size_t AdaptationPipeline::TrainerRcsSize() const {
  std::lock_guard<std::mutex> lock(mu_);
  return trainer_.RcsSize();
}

}  // namespace autoce::adapt

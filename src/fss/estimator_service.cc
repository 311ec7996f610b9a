#include "fss/estimator_service.h"

#include <cmath>
#include <utility>

#include "obs/metrics.h"
#include "util/fault.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/timer.h"

namespace autoce::fss {

namespace {

/// Base seed mixed (content-keyed) into `SeedInference` before every
/// model estimate, making sampling models call-order independent.
constexpr uint64_t kInferenceSeed = 42;

}  // namespace

EstimatorService::EstimatorService(
    std::unique_ptr<ce::CardinalityEstimator> model,
    const data::Dataset* dataset, EstimatorServiceOptions options)
    : options_(options),
      dataset_(dataset),
      histogram_(dataset),
      model_(std::move(model)) {}

Result<std::unique_ptr<EstimatorService>> EstimatorService::Open(
    const std::string& store_dir,
    std::unique_ptr<ce::CardinalityEstimator> model,
    const data::Dataset* dataset, EstimatorServiceOptions options) {
  AUTOCE_CHECK(dataset != nullptr);
  std::unique_ptr<EstimatorService> service(
      new EstimatorService(std::move(model), dataset, options));
  if (!store_dir.empty()) {
    auto store = util::SnapshotStore::Open(store_dir);
    if (!store.ok()) return store.status();
    service->store_ = std::move(store).ValueOrDie();
    // Warm-start from the newest good generation; a fresh directory is
    // simply a cold knowledge tier.
    auto sections = service->store_->LoadLatest();
    if (sections.ok()) {
      for (const auto& section : *sections) {
        if (section.name != kKnowledgeSection) continue;
        auto knowledge = KnowledgeStore::Deserialize(section.payload);
        if (!knowledge.ok()) return knowledge.status();
        service->knowledge_ = std::move(knowledge).ValueOrDie();
      }
    }
  }
  return service;
}

std::optional<double> EstimatorService::CacheLookup(const FssKey& key) {
  if (options_.cache_capacity == 0) return std::nullopt;
  std::lock_guard<std::mutex> lock(cache_mu_);
  auto it = cache_.find(key.literal_hash);
  if (it == cache_.end()) return std::nullopt;
  if (it->second.first != key.signature) {
    counters_.collisions.Add();
    return std::nullopt;
  }
  return it->second.second;
}

void EstimatorService::CacheInsert(const FssKey& key, double estimate) {
  if (options_.cache_capacity == 0) return;
  std::lock_guard<std::mutex> lock(cache_mu_);
  auto it = cache_.find(key.literal_hash);
  if (it != cache_.end()) {
    // Occupied: refresh on signature match, refuse on collision (the
    // resident entry keeps its slot; both subplans still get correct
    // answers, just not from this cache).
    if (it->second.first == key.signature) it->second.second = estimate;
    return;
  }
  while (cache_.size() >= options_.cache_capacity && !cache_fifo_.empty()) {
    cache_.erase(cache_fifo_.front());
    cache_fifo_.pop_front();
    counters_.evictions.Add();
  }
  cache_.emplace(key.literal_hash, std::make_pair(key.signature, estimate));
  cache_fifo_.push_back(key.literal_hash);
}

double EstimatorService::EstimateSubplan(const query::Query& q) {
  static obs::Histogram* const lookup_latency_ms =
      obs::MetricsRegistry::Instance().GetHistogram("fss.lookup_latency_ms");
  Timer timer;
  counters_.lookups.Add();
  FssKey key = MakeFssKey(q);
  auto done = [&](double answer) {
    lookup_latency_ms->Observe(timer.ElapsedMillis());
    return answer;
  };

  // Tier 1: corrected knowledge (observed true cardinalities).
  {
    std::lock_guard<std::mutex> lock(knowledge_mu_);
    if (auto hit = knowledge_.Lookup(key)) {
      counters_.knowledge_hits.Add();
      return done(*hit);
    }
  }

  // Tier 2: cached model estimates.
  if (auto hit = CacheLookup(key)) {
    counters_.cache_hits.Add();
    return done(*hit);
  }

  // Tier 3: the hosted model, content-seeded so the answer is
  // independent of concurrent call order. The `fss.lookup` fault site
  // models the estimator being unavailable for this subplan.
  bool degraded = util::FaultPoint(util::fault_sites::kFssLookup,
                                   key.literal_hash);
  double estimate = -1.0;
  bool have_model = false;
  if (!degraded) {
    std::lock_guard<std::mutex> lock(model_mu_);
    if (model_ != nullptr) {
      have_model = true;
      model_->SeedInference(
          util::FaultKeyMix(kInferenceSeed, key.literal_hash));
      estimate = model_->EstimateCardinality(q);
    }
  }
  if (!degraded && have_model && std::isfinite(estimate) && estimate >= 0.0) {
    CacheInsert(key, estimate);
    counters_.model_estimates.Add();
    return done(estimate);
  }

  // Fallback tier: the histogram baseline (never cached, so a transient
  // degradation cannot freeze a degraded answer in).
  double fallback = histogram_.EstimateCardinality(q);
  counters_.fallbacks.Add();
  return done(fallback);
}

void EstimatorService::ObserveTrueCardinality(const query::Query& q,
                                              int64_t rows) {
  if (rows < 0) return;
  FssKey key = MakeFssKey(q);
  // Prior served answer for this subplan, if any: knowledge first (the
  // tier that would have answered), else the cached model estimate.
  // Captured before Observe folds the new truth in.
  std::optional<double> prior;
  const bool check_drift = options_.drift_disagreement_threshold > 0.0;
  {
    std::lock_guard<std::mutex> lock(knowledge_mu_);
    if (check_drift) prior = knowledge_.Lookup(key);
    knowledge_.Observe(key, static_cast<double>(rows));
  }
  if (check_drift && !prior.has_value()) prior = CacheLookup(key);
  counters_.feedback.Add();
  if (!check_drift || !prior.has_value()) return;
  // Log-ratio disagreement between what we would have served and the
  // observed truth; +1 keeps empty subplans finite.
  double err = std::abs(std::log((*prior + 1.0) /
                                 (static_cast<double>(rows) + 1.0)));
  if (err <= options_.drift_disagreement_threshold) return;
  DriftDisagreementHook hook;
  {
    std::lock_guard<std::mutex> lock(hook_mu_);
    hook = disagreement_hook_;
  }
  counters_.drift_disagreements.Add();
  if (hook) hook(q, err);  // outside every service lock
}

std::size_t EstimatorService::NotifyEpoch(uint64_t epoch) {
  std::size_t evicted = 0;
  {
    std::lock_guard<std::mutex> lock(knowledge_mu_);
    knowledge_.set_epoch(epoch);
    epoch_ = epoch;
    if (options_.max_age_epochs > 0 && epoch > options_.max_age_epochs) {
      evicted = knowledge_.EvictOlderThan(epoch - options_.max_age_epochs);
    }
  }
  // Cached model estimates describe the pre-mutation data distribution;
  // drop them so the next lookup re-estimates against current state.
  ClearCache();
  static obs::Gauge* const epoch_gauge =
      obs::MetricsRegistry::Instance().GetGauge("fss.epoch");
  epoch_gauge->Set(static_cast<double>(epoch));
  counters_.age_evictions.Add(evicted);
  return evicted;
}

void EstimatorService::set_disagreement_hook(DriftDisagreementHook hook) {
  std::lock_guard<std::mutex> lock(hook_mu_);
  disagreement_hook_ = std::move(hook);
}

engine::SubplanObserver EstimatorService::MakeObserver() {
  return [this](const query::Query& subquery, int64_t rows) {
    ObserveTrueCardinality(subquery, rows);
  };
}

Status EstimatorService::CommitKnowledge() {
  if (!store_.has_value()) return Status::OK();
  std::string payload;
  {
    std::lock_guard<std::mutex> lock(knowledge_mu_);
    payload = knowledge_.Serialize();
  }
  auto fail = [&](Status status) {
    counters_.commit_failures.Add();
    return status;
  };
  // Content-derived key: the same knowledge commits (or faults) the
  // same way at any thread count.
  if (util::FaultPoint(util::fault_sites::kFssCommit,
                       util::Fnv1a(payload))) {
    return fail(Status::Internal(
        "injected fss.commit fault: knowledge snapshot not committed"));
  }
  std::vector<util::SnapshotSection> sections;
  sections.push_back({kKnowledgeSection, std::move(payload)});
  auto generation = store_->Commit(sections);
  if (!generation.ok()) return fail(generation.status());
  counters_.commits.Add();
  return Status::OK();
}

void EstimatorService::ClearCache() {
  std::lock_guard<std::mutex> lock(cache_mu_);
  cache_.clear();
  cache_fifo_.clear();
}

ServiceStats EstimatorService::stats() const {
  ServiceStats out;
  out.lookups = counters_.lookups.value();
  out.knowledge_hits = counters_.knowledge_hits.value();
  out.cache_hits = counters_.cache_hits.value();
  out.model_estimates = counters_.model_estimates.value();
  out.fallbacks = counters_.fallbacks.value();
  out.evictions = counters_.evictions.value();
  out.collisions = counters_.collisions.value();
  out.feedback = counters_.feedback.value();
  out.commits = counters_.commits.value();
  out.commit_failures = counters_.commit_failures.value();
  out.age_evictions = counters_.age_evictions.value();
  out.drift_disagreements = counters_.drift_disagreements.value();
  std::lock_guard<std::mutex> lock(knowledge_mu_);
  out.knowledge_entries = knowledge_.size();
  out.knowledge_subspaces = knowledge_.num_subspaces();
  out.collisions += knowledge_.collisions();
  out.epoch = epoch_;
  return out;
}

std::size_t EstimatorService::knowledge_size() const {
  std::lock_guard<std::mutex> lock(knowledge_mu_);
  return knowledge_.size();
}

}  // namespace autoce::fss

#ifndef AUTOCE_FSS_ESTIMATOR_SERVICE_H_
#define AUTOCE_FSS_ESTIMATOR_SERVICE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "ce/estimator.h"
#include "engine/histogram.h"
#include "engine/optimizer.h"
#include "engine/plan_executor.h"
#include "fss/fss_hash.h"
#include "fss/knowledge_store.h"
#include "obs/metrics.h"
#include "util/result.h"
#include "util/snapshot.h"

namespace autoce::fss {

/// Snapshot section the knowledge store serializes into (shared with
/// the CLI's `autoce fss stats|inspect`).
inline constexpr const char* kKnowledgeSection = "fss_knowledge";

/// Service knobs.
struct EstimatorServiceOptions {
  /// Cached subplan estimates (0 disables the cache).
  std::size_t cache_capacity = 4096;
  /// Knowledge-aging window: on `NotifyEpoch(e)` entries last observed
  /// before `e - max_age_epochs` are evicted. 0 disables aging.
  uint64_t max_age_epochs = 0;
  /// Drift-disagreement trigger: when an observed true cardinality
  /// disagrees with the previously served answer by more than this
  /// absolute log-ratio (|log((prior+1)/(truth+1))|), the disagreement
  /// hook fires. 0 disables the check.
  double drift_disagreement_threshold = 0.0;
};

/// Cumulative service counters since Open. Each counter is also the
/// `fss.<field>` registry counter (obs::StatCounter); `collisions` adds
/// the knowledge store's own count at read time.
struct ServiceStats {
  uint64_t lookups = 0;           ///< EstimateSubplan calls
  uint64_t knowledge_hits = 0;    ///< answered from observed true cards
  uint64_t cache_hits = 0;        ///< answered from the estimate cache
  uint64_t model_estimates = 0;   ///< answered by the hosted model
  uint64_t fallbacks = 0;         ///< degraded to the histogram baseline
  uint64_t evictions = 0;         ///< cache entries evicted (FIFO)
  uint64_t collisions = 0;        ///< hash collisions detected and refused
  uint64_t feedback = 0;          ///< true cardinalities observed
  uint64_t commits = 0;           ///< knowledge snapshots committed
  uint64_t commit_failures = 0;   ///< failed commits (store untouched)
  uint64_t knowledge_entries = 0; ///< current (FSS, literal) entries
  uint64_t knowledge_subspaces = 0;  ///< current distinct subspaces
  uint64_t age_evictions = 0;     ///< knowledge entries aged out by epoch
  uint64_t drift_disagreements = 0;  ///< feedback past the drift threshold
  uint64_t epoch = 0;             ///< last epoch seen via NotifyEpoch
};

/// Callback for feedback that disagrees with served knowledge past the
/// configured threshold: `(subplan, abs log-ratio error)`. Invoked
/// outside service locks.
using DriftDisagreementHook =
    std::function<void(const query::Query&, double)>;

/// \brief Live per-subplan cardinality serving behind the optimizer
/// (DESIGN.md §5.13).
///
/// Hosts the advisor-recommended `ce::CardinalityEstimator` for one
/// dataset and answers `engine::CardinalitySource::EstimateSubplan`
/// through three tiers, most-trusted first:
///
///   1. the persistent knowledge store — exact (FSS, literal) matches of
///      subplans whose TRUE cardinality was observed via executor
///      feedback (`ObserveTrueCardinality`), so repeated subplans are
///      answered from corrected knowledge, not raw model output;
///   2. a bounded FSS-keyed cache of model estimates with deterministic
///      FIFO eviction;
///   3. the hosted model, re-seeded per subplan with a content-derived
///      key (`SeedInference`) so its estimate is a pure function of
///      (weights, seed, subplan) regardless of concurrent call order.
///
/// Degradation (no model installed, a non-finite/negative model answer,
/// or an injected `fss.lookup` fault) falls back to the PostgreSQL-style
/// histogram baseline — the optimizer always gets an answer. Knowledge
/// persists through `util::SnapshotStore` (CRC-framed, crash-safe,
/// gated by the `fss.commit` fault site); reopening a store directory
/// warm-starts the knowledge tier.
///
/// Thread-safe: knowledge, the cache, and the model are guarded by
/// separate mutexes. Because every tier's answer for a subplan is
/// the same pure function of content, concurrent traffic cannot change
/// WHAT is answered, only which tier answers it.
class EstimatorService : public engine::CardinalitySource {
 public:
  /// Opens the service. `store_dir` empty runs in-memory only;
  /// otherwise the newest good knowledge generation under `store_dir`
  /// is loaded (an empty/missing store starts cold). `model` may be
  /// null (histogram-only serving, every lookup a fallback); `dataset`
  /// must outlive the service.
  static Result<std::unique_ptr<EstimatorService>> Open(
      const std::string& store_dir,
      std::unique_ptr<ce::CardinalityEstimator> model,
      const data::Dataset* dataset, EstimatorServiceOptions options = {});

  /// The optimizer hook: knowledge -> cache -> model -> histogram.
  /// Infallible by contract.
  double EstimateSubplan(const query::Query& q) override;

  /// Executor feedback: folds the observed TRUE cardinality of a
  /// completed subplan into the knowledge store (in memory; durable
  /// after the next `CommitKnowledge`).
  void ObserveTrueCardinality(const query::Query& q, int64_t rows);

  /// An `engine::SubplanObserver` bound to `ObserveTrueCardinality`,
  /// ready for `PlanExecutor::set_subplan_observer`.
  engine::SubplanObserver MakeObserver();

  /// Commits the knowledge store as the next snapshot generation.
  /// No-op OK without a store directory. On failure (including the
  /// `fss.commit` fault site) the previous durable generation is
  /// untouched and in-memory knowledge is kept.
  Status CommitKnowledge();

  /// Clears the estimate cache (knowledge is kept).
  void ClearCache();

  /// Dataset-epoch notification from the dyn mutation stream: stamps
  /// future observations with `epoch`, ages out knowledge older than
  /// `max_age_epochs` (when configured), and clears the estimate cache
  /// (cached model answers describe pre-mutation data). Returns the
  /// number of knowledge entries evicted.
  std::size_t NotifyEpoch(uint64_t epoch);

  /// Installs the drift-disagreement hook (see
  /// `EstimatorServiceOptions::drift_disagreement_threshold`). Pass an
  /// empty function to disable. The hook MUST NOT call back into the
  /// service synchronously in a way that re-enters observation.
  void set_disagreement_hook(DriftDisagreementHook hook);

  ServiceStats stats() const;

  std::size_t knowledge_size() const;

 private:
  EstimatorService(std::unique_ptr<ce::CardinalityEstimator> model,
                   const data::Dataset* dataset,
                   EstimatorServiceOptions options);

  std::optional<double> CacheLookup(const FssKey& key);
  void CacheInsert(const FssKey& key, double estimate);

  const EstimatorServiceOptions options_;
  const data::Dataset* const dataset_;
  engine::PostgresStyleEstimator histogram_;
  std::optional<util::SnapshotStore> store_;  ///< nullopt = in-memory only

  /// Serializes model calls: a model's inference reseeds and advances
  /// its own sampling state.
  mutable std::mutex model_mu_;
  std::unique_ptr<ce::CardinalityEstimator> model_;  // guarded by model_mu_

  mutable std::mutex knowledge_mu_;
  KnowledgeStore knowledge_;  // guarded by knowledge_mu_
  uint64_t epoch_ = 0;        // last NotifyEpoch; guarded by knowledge_mu_

  /// The estimate cache, guarded by cache_mu_: literal_hash ->
  /// (signature, estimate) with the signature checked on hit, and the
  /// FIFO insertion queue.
  std::mutex cache_mu_;
  std::unordered_map<uint64_t, std::pair<std::string, double>> cache_;
  std::deque<uint64_t> cache_fifo_;

  /// The ServiceStats counters.
  struct Counters {
    obs::StatCounter lookups{"fss.lookups"};
    obs::StatCounter knowledge_hits{"fss.knowledge_hits"};
    obs::StatCounter cache_hits{"fss.cache_hits"};
    obs::StatCounter model_estimates{"fss.model_estimates"};
    obs::StatCounter fallbacks{"fss.fallbacks"};
    obs::StatCounter evictions{"fss.evictions"};
    obs::StatCounter collisions{"fss.collisions"};
    obs::StatCounter feedback{"fss.feedback"};
    obs::StatCounter commits{"fss.commits"};
    obs::StatCounter commit_failures{"fss.commit_failures"};
    obs::StatCounter age_evictions{"fss.age_evictions"};
    obs::StatCounter drift_disagreements{"fss.drift_disagreements"};
  };
  Counters counters_;

  mutable std::mutex hook_mu_;
  DriftDisagreementHook disagreement_hook_;  // guarded by hook_mu_
};

}  // namespace autoce::fss

#endif  // AUTOCE_FSS_ESTIMATOR_SERVICE_H_

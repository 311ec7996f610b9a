#ifndef AUTOCE_UTIL_FAULT_H_
#define AUTOCE_UTIL_FAULT_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <string_view>

#include "util/status.h"

namespace autoce::util {

/// \brief Deterministic fault-injection registry.
///
/// Every engineered failure path in the pipeline (see DESIGN.md §5.6)
/// is guarded by a *named site*. A site fires when injection is enabled
/// for it and the decision function says so; the decision is a pure
/// function of (configured seed, site name, caller-supplied key), so
/// the same configuration injects the same faults at any
/// `AUTOCE_THREADS` — injected runs are as reproducible as clean ones.
///
/// Keys must themselves be thread-count independent: call sites derive
/// them from stable quantities (testbed cell seed, row index, sample
/// index, epoch/batch ordinal, or the content of a tensor), never from
/// wall-clock or shared mutable counters.
///
/// When injection is disabled (the default), a fault point costs one
/// relaxed atomic load.
namespace fault_sites {
/// CSV ingestion treats the keyed data row as malformed
/// (`data::LoadCsvTable`); contract: bounded row/column diagnostics in
/// strict mode, skip-and-report in `skip_malformed_rows` mode.
inline constexpr const char* kCsvRow = "data.csv.row";
/// A testbed training cell fails (`ce::RunTestbed`); contract: one
/// deterministic retry with a derived seed, then `trained_ok = false`
/// with a structured `FailureInfo` and the sentinel label score.
inline constexpr const char* kTestbedTrain = "ce.testbed.train";
/// A candidate model's estimate turns non-finite during testbed
/// measurement; contract: same retry-then-sentinel path as training.
inline constexpr const char* kTestbedEstimate = "ce.testbed.estimate";
/// `nn::MseLoss` returns a non-finite loss; contract: the training loop
/// that consumed it surfaces `Status` before stepping the optimizer
/// (LW-NN), or the non-finite estimate backstop in the testbed catches
/// the poisoned weights.
inline constexpr const char* kNnLoss = "nn.loss";
/// A DML batch loss turns non-finite (`gnn::DmlTrainer::TrainBatch`);
/// contract: `Status` before the optimizer step, batch skipped and
/// counted by `Train`.
inline constexpr const char* kDmlLoss = "gnn.dml.loss";
/// A DML embedding gradient turns non-finite; contract: same as
/// `kDmlLoss` — encoder weights are never touched by the batch.
inline constexpr const char* kDmlGrad = "gnn.dml.grad";
/// A corpus sample handed to `advisor::AutoCe::Fit` is corrupt;
/// contract: sample skipped and reported in `FitReport`, training
/// proceeds on the valid remainder (error only below the minimum
/// corpus size).
inline constexpr const char* kFitSample = "advisor.fit.sample";
/// The target embedding in `advisor::AutoCe::Recommend` turns
/// non-finite; contract: degraded recommendation falling back to the
/// corpus-level default model (the drift-detection default).
inline constexpr const char* kRecommendEmbed = "advisor.recommend.embed";
/// The serving admission queue treats the keyed request as arriving
/// under overload (`serve::AdvisorServer`); contract: the request is
/// shed to the degraded corpus-default recommendation instead of
/// queueing — the server answers every request, it never hangs.
inline constexpr const char* kServeAdmission = "serve.admission";
/// A hot reload fails after loading the snapshot, before installing it
/// (`serve::AdvisorServer::Reload`); contract: the server keeps serving
/// the previous model generation.
inline constexpr const char* kServeReload = "serve.reload";
/// Admission into the adaptation feedback queue fails for the keyed
/// candidate (`adapt::FeedbackQueue::Offer`); contract: the candidate
/// is dropped and counted (`rejected_fault`) — the serve path that
/// offered it is never blocked or failed.
inline constexpr const char* kAdaptEnqueue = "adapt.enqueue";
/// One labeling attempt of a drained feedback item fails
/// (`adapt::AdaptationPipeline`); contract: bounded retries with seeded
/// exponential backoff, then the item degrades to the all-sentinel
/// label (it still enters the RCS, it never wedges the worker).
inline constexpr const char* kAdaptLabel = "adapt.label";
/// One training attempt of a labeled feedback unit fails before any
/// trainer state is touched; contract: bounded retries with backoff,
/// then the unit is quarantined — the trainer and the durable store are
/// left exactly as before the unit.
inline constexpr const char* kAdaptTrain = "adapt.train";
/// Post-commit verification of an adaptation unit fails; contract: the
/// trainer rolls back to the newest durable generation, the unit is
/// quarantined, and `commit_failures` counts the rollback.
inline constexpr const char* kAdaptCommit = "adapt.commit";
/// One write of the keyed snapshot generation's temp file hits a
/// simulated ENOSPC short write (`util::SnapshotStore::Commit`);
/// contract: the commit fails with the errno string in the message, the
/// temp file is removed, and the previous generation stays loadable.
inline constexpr const char* kSnapshotWrite = "snapshot.write";
/// The MANIFEST rewrite for the keyed generation hits a simulated
/// ENOSPC short write; contract: the commit fails, the old MANIFEST is
/// untouched, and `LoadLatest` still serves the previous generation.
inline constexpr const char* kSnapshotManifest = "snapshot.manifest";
/// A per-subplan cardinality lookup degrades inside
/// `fss::EstimatorService::EstimateSubplan` (the hosted model is
/// treated as unavailable for the keyed subplan); contract: the service
/// answers from the histogram fallback source, counts `fallbacks`, and
/// never fails or blocks the optimizer.
inline constexpr const char* kFssLookup = "fss.lookup";
/// A knowledge-store snapshot commit fails
/// (`fss::EstimatorService::CommitKnowledge`); contract: the commit
/// surfaces `Status`, `commit_failures` counts it, the in-memory
/// knowledge is untouched, and the store keeps serving the previous
/// durable generation.
inline constexpr const char* kFssCommit = "fss.commit";
}  // namespace fault_sites

/// Every registered site, in a fixed order. Tests iterate this list to
/// assert each site's documented contract.
std::span<const char* const> AllFaultSites();

/// Deterministic 64-bit key mixer (splitmix64 finalizer over a ^ rot b).
uint64_t FaultKeyMix(uint64_t a, uint64_t b);

/// Content-derived key: hashes the byte patterns of a double buffer.
/// Pure function of the data, hence thread-count independent.
uint64_t FaultKeyFromDoubles(const double* data, std::size_t n);

/// \brief Named sites with seeded, deterministic decisions (thread-safe).
///
/// A site table (`site -> probability`) plus the pure decision function
/// of (seed, site-name hash, caller key). The process holds two:
/// `Faults()` over the fault sites above, and `KillPoints()`
/// (util/snapshot.h) over the persistence kill sites, so both share one
/// spec syntax, one environment loader and one determinism guarantee.
///
/// The constructor is constexpr and the destructor trivial, so a
/// registry at namespace scope is constant-initialized: `armed()` reads
/// false before any constructor has run and stays valid during static
/// destruction, and nothing is ever torn down.
class FaultRegistry {
 public:
  /// Most sites one registry holds.
  static constexpr std::size_t kMaxSites = 32;

  /// A disarmed registry over `sites`: at most kMaxSites names, which
  /// must outlive it.
  constexpr explicit FaultRegistry(std::span<const char* const> sites)
      : sites_(sites) {}

  FaultRegistry(const FaultRegistry&) = delete;
  FaultRegistry& operator=(const FaultRegistry&) = delete;

  /// Enables decisions per `spec`: comma-separated `site[:probability]`
  /// entries (probability defaults to 1.0); `*[:p]` selects every
  /// registered site. An empty spec disables. A spec naming an unknown
  /// site or a probability outside [0, 1] is rejected and leaves the
  /// registry as it was.
  Status Configure(const std::string& spec, uint64_t seed = 42);

  /// `Configure` from the environment: the spec in `spec_var`, the
  /// decimal seed (default 42) in `seed_var`. An unset or empty spec
  /// changes nothing, and an invalid one is ignored: injection is a
  /// testing facility and must never take down a production process.
  void ConfigureFromEnv(const char* spec_var, const char* seed_var);

  /// Disables every site and clears fire counts.
  void Disable();

  /// True iff at least one site is configured: one relaxed load, the
  /// whole cost of a site while nothing is.
  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  /// Whether the keyed site fires under the current configuration.
  /// Deterministic in (seed, site, key); counts fires.
  bool Decide(const char* site, uint64_t key);

  /// Number of times `site` fired since the last Configure/ResetCounts.
  int64_t FireCount(const std::string& site) const;

  /// Zeroes fire counts without changing the configuration.
  void ResetCounts();

 private:
  /// Position of `site` in `sites_`, or -1 when it is not registered.
  int IndexOf(std::string_view site) const;

  std::atomic<bool> armed_{false};
  mutable std::mutex mu_;  // guards everything below but sites_
  std::span<const char* const> sites_;
  uint32_t configured_ = 0;  // bit i set: sites_[i] has a probability
  std::array<double, kMaxSites> probability_{};
  std::array<int64_t, kMaxSites> fires_{};
  uint64_t seed_ = 42;
};

namespace internal {
extern constinit FaultRegistry g_faults;
}  // namespace internal

/// The fault-site registry over `AllFaultSites()`, armed before `main`
/// from `AUTOCE_FAULTS` / `AUTOCE_FAULT_SEED`, so injection can be
/// driven without code changes.
inline FaultRegistry& Faults() { return internal::g_faults; }

/// The hot-path check used by instrumented code: one relaxed load while
/// no fault site is configured.
inline bool FaultPoint(const char* site, uint64_t key) {
  return Faults().armed() && Faults().Decide(site, key);
}

}  // namespace autoce::util

#endif  // AUTOCE_UTIL_FAULT_H_

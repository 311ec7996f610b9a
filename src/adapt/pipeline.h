#ifndef AUTOCE_ADAPT_PIPELINE_H_
#define AUTOCE_ADAPT_PIPELINE_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "adapt/feedback_queue.h"
#include "advisor/autoce.h"
#include "ce/testbed.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "serve/server.h"
#include "util/result.h"

namespace autoce::adapt {

/// Labels one dataset. `seed` is derived from the item content (never
/// from arrival position or attempt count), so the label an item gets
/// is a pure function of the item — the bit-identity anchor of the
/// whole loop. The default labeler runs the CE testbed.
using Labeler =
    std::function<Result<advisor::DatasetLabel>(const data::Dataset&,
                                                uint64_t seed)>;

/// Waits `ms` milliseconds between retry attempts. Injectable so
/// deterministic tests record backoff instead of sleeping.
using SleepFn = std::function<void(double ms)>;

/// Configuration of the adaptation loop.
struct AdaptationConfig {
  /// Feedback queue bound (see FeedbackQueue).
  std::size_t queue_capacity = 64;
  /// Items drained per RunOnce cycle (>= 1; Open rejects 0).
  std::size_t batch_size = 4;
  /// Seeds the labeler, the backoff jitter and the Mixup draw (always
  /// mixed with the item fingerprint, so per-item decisions stay
  /// content-keyed).
  uint64_t seed = 42;
  /// Wall-clock labeling budget per RunOnce batch in ms (0 =
  /// unlimited). Once the budget is exhausted, remaining items in the
  /// batch degrade to sentinel labels exactly like retry exhaustion
  /// (counted by `labels_budget_expired`); in-flight retries stop
  /// without further backoff. Under the default clock the cutoff point
  /// is load-dependent; inject `clock` for deterministic tests.
  double label_budget_ms_per_batch = 0.0;
  /// Labeling workers per batch. Labels are content-pure and applies
  /// run in strict arrival order, so the committed digest and the
  /// counters are bit-identical at any worker count (proven at 1/2/4
  /// in the adapt tests).
  int num_workers = 1;
  /// Monotonic seconds source for the labeling budget (steady clock
  /// when empty).
  obs::Clock clock;
  /// Testbed configuration of the default labeler; ignored when a
  /// custom labeler is installed.
  ce::TestbedConfig testbed;
};

/// Cumulative pipeline counters since Open. Each counter is also the
/// `adapt.<field>` registry counter (obs::StatCounter).
struct AdaptationStats {
  uint64_t batches = 0;
  uint64_t items_seen = 0;         ///< drained out of the queue
  uint64_t items_applied = 0;      ///< trained into the RCS and committed
  uint64_t items_deduped = 0;      ///< replayed items already in the RCS
  uint64_t items_quarantined = 0;  ///< dropped after exhausted retries
  uint64_t labels_ok = 0;
  uint64_t labels_sentinel = 0;    ///< degraded to the all-sentinel label
  uint64_t labels_budget_expired = 0;  ///< sentinels due to the batch budget
  uint64_t label_retries = 0;
  uint64_t train_retries = 0;
  uint64_t commit_failures = 0;    ///< rollbacks to the durable generation
  uint64_t generations_committed = 0;
  uint64_t reloads_triggered = 0;
  uint64_t reload_failures = 0;
  double backoff_ms_total = 0.0;
};

/// What one RunOnce cycle did.
struct BatchReport {
  std::size_t drained = 0;
  std::size_t applied = 0;
  std::size_t deduped = 0;
  std::size_t sentinel = 0;
  std::size_t budget_expired = 0;  ///< sentinels caused by the batch budget
  std::size_t quarantined = 0;
  /// Durable store generation after the batch (0 when unreadable).
  uint64_t generation = 0;
  bool reload_attempted = false;
  bool reload_ok = false;
};

/// One persisted quarantine entry: which unit was dropped, at which
/// pipeline stage, and why. The pipeline appends these to a
/// `QUARANTINE.log` sidecar in the store directory and reloads them on
/// Open, so quarantines survive restarts and are reviewable offline
/// (`autoce adapt quarantine`).
struct QuarantineRecord {
  uint64_t fingerprint = 0;
  std::string stage;   ///< "train" or "commit"
  std::string reason;  ///< single-line failure message
};

/// Reads the quarantine log under `store_dir`; an absent log is an
/// empty list, a malformed line is skipped (the log is advisory).
std::vector<QuarantineRecord> ReadQuarantineLog(const std::string& store_dir);

/// Rewrites the quarantine log under `store_dir` without any record for
/// `fingerprint` (write-temp + rename, so a crash leaves the old or the
/// new log, never a torn one). Returns how many records were removed;
/// an absent log removes nothing.
std::size_t RemoveFromQuarantineLog(const std::string& store_dir,
                                    uint64_t fingerprint);

/// \brief The online-adaptation loop (paper Sec. V-E; DESIGN.md §5.11).
///
/// Closes the loop the serving layer leaves open: OOD requests detected
/// against the serving advisor's drift threshold land in the bounded
/// feedback queue; RunOnce drains a batch, labels each item with
/// bounded retries + seeded exponential backoff (degrading to the
/// all-sentinel label), Mixup-augments it toward its nearest RCS
/// member, applies the (item, mixup) unit through one snapshot-atomic
/// `AutoCe::AddLabeledSamples` commit, and finally triggers
/// `AdvisorServer::Reload` so the server picks the new generation up
/// without dropping traffic.
///
/// The pipeline owns no thread: a batch runs only when a caller asks
/// (RunOnce, DrainAll), on the caller's thread, under one mutex held
/// for the whole batch. Offering (MaybeEnqueue, queue()) and stats()
/// take no pipeline lock, so the serve path never waits on a batch.
///
/// Crash contract: the trainer is always opened from the durable store
/// (`ResumeFit`), every unit is one atomic commit, and replayed items
/// are deduped against the RCS by fingerprint — so a crash at ANY kill
/// site leaves the store on a good generation and a restarted pipeline
/// fed the same request stream converges to a bit-identical final
/// snapshot. Failure modes degrade instead of wedging: label
/// exhaustion → sentinel scoring, train exhaustion → quarantine,
/// commit verification failure → rollback to the durable generation;
/// the serve path is never blocked (the queue never blocks, and a
/// batch only touches the server in the brief Reload swap).
class AdaptationPipeline {
 public:
  /// Opens the pipeline over the snapshot store at `store_dir`: the
  /// trainer is loaded from the newest good generation (the same
  /// ResumeFit path the server uses) with the store attached, so every
  /// accepted unit commits durably. `server` (may be null for
  /// trainer-only harnesses) is reloaded after each batch that applied
  /// an item. InvalidArgument when `config.batch_size` is 0.
  static Result<std::unique_ptr<AdaptationPipeline>> Open(
      const std::string& store_dir, serve::AdvisorServer* server,
      AdaptationConfig config = {},
      util::SnapshotStoreOptions store_options = {});

  AdaptationPipeline(const AdaptationPipeline&) = delete;
  AdaptationPipeline& operator=(const AdaptationPipeline&) = delete;

  /// Serve-path hook: checks `graph` against the SERVING advisor's
  /// drift threshold and offers it to the feedback queue when out of
  /// distribution. Never blocks, never fails the caller. Requires a
  /// server.
  Offered MaybeEnqueue(const data::Dataset& dataset,
                       const featgraph::FeatureGraph& graph);

  /// Operator command (`autoce adapt requeue`): clears `fingerprint`
  /// from the quarantine — the persisted log and the in-memory sets —
  /// and re-offers `dataset`/`graph` through the feedback queue so the
  /// next batch retries it, bypassing the drift gate (the operator has
  /// decided the underlying fault is fixed). `graph` must fingerprint
  /// to `fingerprint` (InvalidArgument otherwise — requeueing the wrong
  /// dataset under a cleared fingerprint would poison the dedup);
  /// NotFound when the fingerprint is not quarantined.
  Result<Offered> RequeueFromQuarantine(uint64_t fingerprint,
                                        const data::Dataset& dataset,
                                        const featgraph::FeatureGraph& graph);

  /// Runs one batch cycle (see class comment) on the calling thread,
  /// holding the pipeline's mutex throughout, so concurrent calls run
  /// one after another. An empty queue is a cheap no-op. Errors are
  /// reserved for infrastructure failure (store unreadable after
  /// rollback); per-item failures degrade and are reported in the
  /// counters instead.
  Result<BatchReport> RunOnce();

  /// Runs RunOnce until the queue is empty (every item is consumed —
  /// applied, deduped, sentinel-labeled, or quarantined — so this
  /// terminates). A caller that wants adaptation off its own thread
  /// runs this on a thread it owns.
  Status DrainAll();

  FeedbackQueue& queue() { return queue_; }

  /// Never waits on a running batch.
  AdaptationStats stats() const;

  /// ModelDigest of the trainer — the bit-identity witness the
  /// recovery harness compares across killed/resumed runs.
  uint64_t TrainerDigest() const;

  std::size_t TrainerRcsSize() const;

  /// Replaces the labeler (tests and harnesses install fast
  /// deterministic ones). Labelers run inside RunOnce, which holds the
  /// pipeline's mutex, so a labeler must not call back into the
  /// pipeline.
  void set_labeler(Labeler labeler) { labeler_ = std::move(labeler); }

  /// Replaces the backoff sleeper (deterministic tests record instead
  /// of sleeping). Like a labeler, it must not call back into the
  /// pipeline.
  void set_sleep_fn(SleepFn fn) { sleep_fn_ = std::move(fn); }

 private:
  AdaptationPipeline(AdaptationConfig config,
                     util::SnapshotStoreOptions store_options,
                     std::string store_dir, serve::AdvisorServer* server,
                     advisor::AutoCe trainer, util::SnapshotStore verify_store);

  /// Labels one item: bounded attempts, `adapt.label` fault site keyed
  /// by (fingerprint, attempt), seeded backoff between attempts. The
  /// labeler seed is attempt-independent so retries cannot change the
  /// label an item ends up with. A limited batch labeling budget,
  /// counted from `budget_start` (a `config_.clock` instant), cuts the
  /// attempt loop short with `DeadlineExceeded` once it is gone.
  Result<advisor::DatasetLabel> LabelWithRetries(const OodCandidate& item,
                                                 double budget_start);

  /// Applies one labeled unit (item + optional mixup) to the trainer:
  /// bounded attempts with the `adapt.train` fault checked BEFORE any
  /// trainer mutation, rollback-and-quarantine on real training errors,
  /// post-commit verification gated by `adapt.commit`.
  Status TrainUnit(const OodCandidate& item,
                   const advisor::DatasetLabel& label, bool sentinel,
                   BatchReport* report, bool* any_applied);

  /// Reloads the trainer from the durable store and rebuilds the RCS
  /// fingerprint set — the rollback path.
  Status ReloadTrainer();

  void RebuildRcsFingerprints();
  void Quarantine(const OodCandidate& item, const char* stage,
                  const std::string& reason, BatchReport* report);
  void LoadQuarantineLog();
  void Backoff(uint64_t fingerprint, int attempt);

  const AdaptationConfig config_;
  const util::SnapshotStoreOptions store_options_;
  const std::string store_dir_;
  serve::AdvisorServer* const server_;  // not owned; may be null

  FeedbackQueue queue_;
  Labeler labeler_;
  SleepFn sleep_fn_;

  /// Held by RunOnce for the whole batch, so batches never overlap;
  /// the labeling workers inside a batch take no pipeline lock.
  mutable std::mutex mu_;
  advisor::AutoCe trainer_;                        // guarded by mu_
  util::SnapshotStore verify_store_;               // guarded by mu_
  std::unordered_set<uint64_t> rcs_fingerprints_;  // guarded by mu_
  std::unordered_set<uint64_t> quarantine_set_;    // guarded by mu_

  /// Added to by the labeling workers of a batch.
  std::atomic<double> backoff_ms_total_{0.0};

  /// The AdaptationStats counters.
  struct Counters {
    obs::StatCounter batches{"adapt.batches"};
    obs::StatCounter items_seen{"adapt.items_seen"};
    obs::StatCounter items_applied{"adapt.items_applied"};
    obs::StatCounter items_deduped{"adapt.items_deduped"};
    obs::StatCounter items_quarantined{"adapt.items_quarantined"};
    obs::StatCounter labels_ok{"adapt.labels_ok"};
    obs::StatCounter labels_sentinel{"adapt.labels_sentinel"};
    obs::StatCounter labels_budget_expired{"adapt.labels_budget_expired"};
    obs::StatCounter label_retries{"adapt.label_retries"};
    obs::StatCounter train_retries{"adapt.train_retries"};
    obs::StatCounter commit_failures{"adapt.commit_failures"};
    obs::StatCounter generations_committed{"adapt.generations_committed"};
    obs::StatCounter reloads_triggered{"adapt.reloads_triggered"};
    obs::StatCounter reload_failures{"adapt.reload_failures"};
  };
  Counters counters_;
};

/// The all-sentinel degraded label: every model at the score floor and
/// flagged failed — the same shape a fully failed testbed run produces,
/// so downstream scoring already knows how to handle it.
advisor::DatasetLabel SentinelLabel();

/// The default labeler: runs the CE testbed under `base` with the
/// per-item derived seed and builds the label (`advisor::MakeLabel`).
Labeler TestbedLabeler(ce::TestbedConfig base);

}  // namespace autoce::adapt

#endif  // AUTOCE_ADAPT_PIPELINE_H_

#ifndef AUTOCE_ADAPT_FEEDBACK_QUEUE_H_
#define AUTOCE_ADAPT_FEEDBACK_QUEUE_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "data/dataset.h"
#include "featgraph/featgraph.h"
#include "obs/metrics.h"

namespace autoce::adapt {

/// One out-of-distribution dataset waiting to be labeled and trained
/// into the RCS. The dataset rides along because the testbed labels
/// datasets, not feature graphs.
struct OodCandidate {
  data::Dataset dataset;
  featgraph::FeatureGraph graph;
  /// Embedding distance to the nearest RCS member at detection time —
  /// the admission priority (most-OOD feedback is the most valuable).
  double distance = 0.0;
  uint64_t sequence = 0;     ///< assigned by the queue: arrival order
  /// Assigned by the queue: featgraph::GraphFingerprint. Every per-item
  /// decision of the adaptation loop keys on it, so none depends on
  /// arrival position.
  uint64_t fingerprint = 0;
};

/// How an offer was disposed of. `FeedbackQueue::Offer` returns every
/// outcome but `kNotOod`, which only `AdaptationPipeline::MaybeEnqueue`
/// reports (its drift gate runs before the queue).
enum class Offered {
  kNotOod,           ///< within the drift threshold; nothing enqueued
  kAdmitted,         ///< queued
  kAdmittedEvicting, ///< queued by evicting a lower-priority pending item
  kDuplicate,        ///< an item with the same fingerprint is pending
  kRejectedFull,     ///< queue full of higher-priority items; dropped
  kRejectedFault,    ///< injected `adapt.enqueue` fault; dropped
};

/// Backpressure counters since construction. Each is also the
/// `adapt.queue.<field>` registry counter (obs::StatCounter).
struct FeedbackQueueStats {
  uint64_t offered = 0;
  uint64_t admitted = 0;   ///< includes admissions that evicted
  uint64_t deduped = 0;
  uint64_t evicted = 0;    ///< pending items displaced by higher priority
  uint64_t rejected_full = 0;
  uint64_t rejected_fault = 0;
  uint64_t drained = 0;
};

/// \brief Bounded, lossy-by-policy feedback queue (DESIGN.md §5.11).
///
/// Admission and eviction are deterministic in the offered stream: a
/// full queue admits a new candidate only by evicting the pending item
/// with the strictly lowest priority, where priority orders by
/// (distance, then older sequence wins ties) — so the queue always
/// holds the most out-of-distribution feedback seen so far, and the
/// same offered stream always yields the same drained stream. Offers
/// never block and never fail the caller: overload and injected
/// `adapt.enqueue` faults drop the candidate and count it.
///
/// Thread-safe: serving threads offer while whichever thread runs the
/// pipeline's batches drains.
class FeedbackQueue {
 public:
  explicit FeedbackQueue(std::size_t capacity);

  /// Offers a candidate; see Offered (never `kNotOod`). `distance` is
  /// the caller's drift distance (priority).
  Offered Offer(data::Dataset dataset, featgraph::FeatureGraph graph,
                double distance);

  /// Removes and returns up to `max_items` pending candidates in
  /// arrival (sequence) order.
  std::vector<OodCandidate> DrainBatch(std::size_t max_items);

  /// Pending candidates.
  std::size_t depth() const;

  std::size_t capacity() const { return capacity_; }

  FeedbackQueueStats stats() const;

 private:
  const std::size_t capacity_;

  mutable std::mutex mu_;
  std::deque<OodCandidate> items_;  // ascending sequence; guarded by mu_
  uint64_t next_sequence_ = 0;      // guarded by mu_

  /// The FeedbackQueueStats counters.
  struct Counters {
    obs::StatCounter offered{"adapt.queue.offered"};
    obs::StatCounter admitted{"adapt.queue.admitted"};
    obs::StatCounter deduped{"adapt.queue.deduped"};
    obs::StatCounter evicted{"adapt.queue.evicted"};
    obs::StatCounter rejected_full{"adapt.queue.rejected_full"};
    obs::StatCounter rejected_fault{"adapt.queue.rejected_fault"};
    obs::StatCounter drained{"adapt.queue.drained"};
  };
  Counters counters_;
};

}  // namespace autoce::adapt

#endif  // AUTOCE_ADAPT_FEEDBACK_QUEUE_H_

#include "adapt/feedback_queue.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"
#include "util/fault.h"
#include "util/snapshot.h"

namespace autoce::adapt {

namespace {

/// `adapt.queue.depth`: pending items after the latest Offer or drain.
obs::Gauge* DepthGauge() {
  static obs::Gauge* const gauge =
      obs::MetricsRegistry::Instance().GetGauge("adapt.queue.depth");
  return gauge;
}

}  // namespace

FeedbackQueue::FeedbackQueue(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

Offered FeedbackQueue::Offer(data::Dataset dataset,
                             featgraph::FeatureGraph graph, double distance) {
  uint64_t fingerprint = featgraph::GraphFingerprint(graph);
  std::lock_guard<std::mutex> lock(mu_);
  counters_.offered.Add();

  if (util::FaultPoint(util::fault_sites::kAdaptEnqueue, fingerprint)) {
    counters_.rejected_fault.Add();
    return Offered::kRejectedFault;
  }
  for (const OodCandidate& pending : items_) {
    if (pending.fingerprint == fingerprint) {
      counters_.deduped.Add();
      return Offered::kDuplicate;
    }
  }

  bool evicted = false;
  if (items_.size() >= capacity_) {
    // Lowest priority = smallest distance, newest (largest sequence)
    // among equals. The new candidate only displaces a STRICTLY less
    // OOD one, so ties keep the earlier arrival — deterministic either
    // way.
    auto victim = items_.begin();
    for (auto it = std::next(items_.begin()); it != items_.end(); ++it) {
      if (it->distance < victim->distance ||
          (it->distance == victim->distance &&
           it->sequence > victim->sequence)) {
        victim = it;
      }
    }
    if (victim->distance >= distance) {
      counters_.rejected_full.Add();
      return Offered::kRejectedFull;
    }
    items_.erase(victim);
    counters_.evicted.Add();
    evicted = true;
  }

  OodCandidate item;
  item.dataset = std::move(dataset);
  item.graph = std::move(graph);
  item.distance = distance;
  item.sequence = next_sequence_++;
  item.fingerprint = fingerprint;
  items_.push_back(std::move(item));
  counters_.admitted.Add();
  DepthGauge()->Set(static_cast<double>(items_.size()));
  // Crash window: the candidate is admitted but the queue is in-memory
  // by design — dying here loses pending feedback, never the durable
  // model (the recovery harness re-offers the stream on restart).
  util::KillPoint(util::kill_sites::kAdaptEnqueue, fingerprint);
  return evicted ? Offered::kAdmittedEvicting : Offered::kAdmitted;
}

std::vector<OodCandidate> FeedbackQueue::DrainBatch(std::size_t max_items) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<OodCandidate> batch;
  // Drain in arrival order (the deque is sequence-sorted: eviction
  // removes from the middle but never reorders).
  std::size_t n = std::min(max_items, items_.size());
  batch.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    batch.push_back(std::move(items_.front()));
    items_.pop_front();
  }
  counters_.drained.Add(n);
  DepthGauge()->Set(static_cast<double>(items_.size()));
  return batch;
}

std::size_t FeedbackQueue::depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return items_.size();
}

FeedbackQueueStats FeedbackQueue::stats() const {
  // Every counter moves under mu_, so holding it reads a consistent set.
  std::lock_guard<std::mutex> lock(mu_);
  FeedbackQueueStats out;
  out.offered = counters_.offered.value();
  out.admitted = counters_.admitted.value();
  out.deduped = counters_.deduped.value();
  out.evicted = counters_.evicted.value();
  out.rejected_full = counters_.rejected_full.value();
  out.rejected_fault = counters_.rejected_fault.value();
  out.drained = counters_.drained.value();
  return out;
}

}  // namespace autoce::adapt

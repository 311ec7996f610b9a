#ifndef AUTOCE_OBS_TRACE_H_
#define AUTOCE_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>

#include "obs/clock.h"

namespace autoce::obs {

/// \brief RAII tracing spans with per-name aggregation and a
/// Chrome-trace-compatible sink (DESIGN.md §5.9).
///
/// Spans nest via a thread-local stack: a span's *self* time is its
/// duration minus the summed durations of its direct children, so the
/// aggregate table answers "where did the time actually go" without
/// double counting. Serialized events are Chrome "ph":"X" complete
/// events; the sink file loads directly in chrome://tracing / Perfetto.
///
/// Zero-cost-off: while no sink is enabled (`AUTOCE_TRACE` unset and no
/// programmatic Enable*), constructing a TraceSpan is one relaxed
/// atomic load and a branch. Determinism: all timestamps come from the
/// injected `obs::Clock`; with a simulated clock the serialized stream
/// is bit-exact across runs and thread counts, because the repo's
/// convention is to open spans only on the calling thread (worker-side
/// code records counters, never spans).

namespace internal {
/// Fast-path flag mirroring internal::g_metrics_enabled.
extern std::atomic<bool> g_trace_enabled;
}  // namespace internal

/// True iff a trace sink is enabled; spans record only then.
inline bool TraceEnabled() {
  return internal::g_trace_enabled.load(std::memory_order_relaxed);
}

/// Per-span-name rollup maintained alongside the event stream.
struct SpanAggregate {
  int64_t count = 0;
  uint64_t total_us = 0;  ///< summed span durations (children included)
  uint64_t self_us = 0;   ///< durations minus direct children
};

/// \brief The process-wide span sink (thread-safe).
class Tracer {
 public:
  /// The singleton. First construction reads `AUTOCE_TRACE`: a path
  /// value enables a steady-clock file sink flushed at process exit.
  static Tracer& Instance();

  /// Streams events to `path` (Chrome trace JSON). Timestamps are
  /// `clock` seconds rounded to whole microseconds; an empty clock is
  /// the steady clock minus its value at this call, so a trace starts
  /// near 0. Reads happen under the tracer's lock.
  void EnableFile(const std::string& path, Clock clock = {});

  /// Collects events in memory; retrieve with TakeBuffer(). `clock` as
  /// for EnableFile.
  void EnableBuffer(Clock clock = {});

  /// Returns the buffered event stream (one JSON event per line,
  /// trailing commas, no enclosing array) and clears the buffer.
  std::string TakeBuffer();

  /// Stops recording, finalizes + closes a file sink (writes the
  /// closing `]` so the file is loadable), keeps aggregates.
  void Disable();

  /// Per-name rollups since the last Reset, in name order.
  std::map<std::string, SpanAggregate> Aggregates() const;

  /// Clears aggregates and any buffered events.
  void Reset();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

 private:
  friend class TraceSpan;
  Tracer();
  void BeginSpan(const char* name);
  void EndSpan();

  struct State;
  State* state_;  // leaked with the singleton
};

/// \brief RAII span: opens on construction, closes (and emits one
/// Chrome "ph":"X" event) on destruction.
///
/// `name` must outlive the span (string literals in practice). Open
/// spans only on the calling thread of deterministic control flow —
/// never inside ParallelFor bodies — so simulated-clock traces stay
/// bit-exact across AUTOCE_THREADS settings.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) {
    if (TraceEnabled()) {
      active_ = true;
      Tracer::Instance().BeginSpan(name);
    }
  }
  ~TraceSpan() {
    if (active_) Tracer::Instance().EndSpan();
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  bool active_ = false;
};

}  // namespace autoce::obs

#endif  // AUTOCE_OBS_TRACE_H_

#ifndef AUTOCE_OBS_METRICS_H_
#define AUTOCE_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace autoce::obs {

/// \brief Process-wide metrics: counters, gauges, and fixed-bucket
/// histograms (DESIGN.md §5.9).
///
/// Instruments are addressed by interned (name, label set): the first
/// `MetricsRegistry::Get*` call registers the instrument and every
/// later call returns the same stable pointer, so hot paths resolve
/// their handles once and then touch nothing but the instrument's own
/// atomics. Recording follows the established zero-cost-off pattern
/// (util/fault.h): while no sink is enabled (`AUTOCE_METRICS` unset and
/// no programmatic `Enable`), every record call is one relaxed atomic
/// load and a predictable branch.
///
/// Readout is deterministic modulo the recorded values themselves:
/// exporters walk instruments in lexicographic (name, labels) order, so
/// two runs that record the same values export byte-identical text.

/// Ordered `key=value` pairs distinguishing instruments that share a
/// name (e.g. `fault.trips{site=...}`). Keys/values must not contain
/// `"` or newlines; the registry canonicalizes order by sorting.
using LabelSet = std::vector<std::pair<std::string, std::string>>;

namespace internal {
/// Fast-path flag, like `util::FaultRegistry::armed()`.
extern std::atomic<bool> g_metrics_enabled;
}  // namespace internal

/// True iff a metrics sink is enabled; instruments record only then.
inline bool MetricsEnabled() {
  return internal::g_metrics_enabled.load(std::memory_order_relaxed);
}

/// \brief Monotonically increasing integer (requests, bytes, trips).
class Counter {
 public:
  void Add(int64_t delta = 1) {
    if (!MetricsEnabled()) return;
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  Counter() = default;
  std::atomic<int64_t> value_{0};
};

/// \brief Last-write-wins floating-point level (loss, queue depth).
class Gauge {
 public:
  void Set(double v) {
    if (!MetricsEnabled()) return;
    bits_.store(Bits(v), std::memory_order_relaxed);
  }
  double value() const { return Value(bits_.load(std::memory_order_relaxed)); }

 private:
  friend class MetricsRegistry;
  Gauge() = default;
  static uint64_t Bits(double v) {
    uint64_t b;
    __builtin_memcpy(&b, &v, sizeof(b));
    return b;
  }
  static double Value(uint64_t b) {
    double v;
    __builtin_memcpy(&v, &b, sizeof(v));
    return v;
  }
  std::atomic<uint64_t> bits_{0};  // IEEE bits of 0.0
};

/// Point-in-time view of a histogram, with quantile readout.
struct HistogramSnapshot {
  int64_t count = 0;
  double sum = 0.0;
  std::vector<double> bounds;          ///< ascending upper bounds
  std::vector<int64_t> bucket_counts;  ///< bounds.size() + 1 (overflow last)

  /// q-th quantile (q in [0, 1]) by linear interpolation inside the
  /// containing bucket; observations beyond the last bound report the
  /// last finite bound. 0 for an empty histogram.
  double Quantile(double q) const;
  double p50() const { return Quantile(0.50); }
  double p95() const { return Quantile(0.95); }
  double p99() const { return Quantile(0.99); }
};

/// \brief Fixed-bucket histogram (per-request latency, fsync time).
///
/// Bucket bounds are fixed at registration, so `Observe` is a binary
/// search plus two relaxed atomic adds — no allocation, no lock.
class Histogram {
 public:
  void Observe(double v);
  HistogramSnapshot Snapshot() const;
  const std::vector<double>& bounds() const { return bounds_; }

 private:
  friend class MetricsRegistry;
  explicit Histogram(std::vector<double> bounds);
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<int64_t>[]> counts_;  // bounds_.size() + 1
  std::atomic<int64_t> count_{0};
  std::atomic<uint64_t> sum_bits_{0};  // IEEE bits, CAS-accumulated
};

/// `n` exponentially spaced upper bounds starting at `start` (e.g.
/// ExponentialBuckets(0.05, 2.5, 10) for millisecond latencies).
std::vector<double> ExponentialBuckets(double start, double factor, int n);

/// Default latency buckets in milliseconds: 50 µs .. ~47 s.
const std::vector<double>& DefaultLatencyBucketsMs();

/// \brief The process-wide instrument registry (thread-safe).
class MetricsRegistry {
 public:
  /// The singleton. First construction reads `AUTOCE_METRICS` from the
  /// environment: unset/empty/"0" leaves metrics dormant; any other
  /// value enables recording, and a value naming a path additionally
  /// dumps Prometheus text there at process exit ("stderr" dumps to
  /// stderr).
  static MetricsRegistry& Instance();

  /// Interned lookup-or-register; the returned pointer is stable for
  /// the process lifetime. Re-registering a histogram name with
  /// different bounds keeps the first registration's bounds.
  Counter* GetCounter(const std::string& name, const LabelSet& labels = {});
  Gauge* GetGauge(const std::string& name, const LabelSet& labels = {});
  /// Empty `bounds` selects DefaultLatencyBucketsMs().
  Histogram* GetHistogram(const std::string& name, const LabelSet& labels = {},
                          std::vector<double> bounds = {});

  /// Turns recording on/off (values are retained across Disable).
  void Enable();
  void Disable();

  /// Zeroes every registered instrument (tests and bench sweeps).
  void Reset();

  /// Prometheus text exposition: `name{labels} value` lines, sorted;
  /// dots in names render as underscores, histograms expand to
  /// `_bucket`/`_sum`/`_count` plus p50/p95/p99 gauge lines.
  std::string ExportPrometheus() const;

  /// One JSON object keyed by `name{labels}`, sorted; histograms render
  /// as {count, sum, p50, p95, p99}. Embedded by run manifests.
  std::string ExportJson() const;

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

 private:
  MetricsRegistry();
  struct State;
  State* state_;  // leaked with the singleton (instruments must outlive
                  // any static-destruction-order user, like the fault
                  // registry in util/fault.cc)
};

/// \brief One counter field of an object's stats (a server's requests,
/// a queue's drained items): the only storage of that count and its
/// only write.
///
/// `Add` bumps the owner's own count, which always records, so the
/// owner's `stats()` is exact whether or not metrics are enabled, and
/// the same-named registry `Counter`, which records only while
/// `MetricsEnabled()`. The registry counter sums every instance, is
/// zeroed by `Reset`, and keeps its count after the instance is gone.
class StatCounter {
 public:
  explicit StatCounter(const std::string& name)
      : registry_(MetricsRegistry::Instance().GetCounter(name)) {}

  void Add(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
    registry_->Add(static_cast<int64_t>(delta));
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
  Counter* const registry_;
};

}  // namespace autoce::obs

#endif  // AUTOCE_OBS_METRICS_H_

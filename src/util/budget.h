#ifndef AUTOCE_UTIL_BUDGET_H_
#define AUTOCE_UTIL_BUDGET_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "obs/clock.h"
#include "util/status.h"

namespace autoce::util {

/// \brief A wall-clock budget with `Status`-typed exhaustion.
///
/// A DeadlineBudget is armed once (capturing the start instant from the
/// injected clock) and then consulted at well-defined checkpoints:
///
/// ```
/// DeadlineBudget budget(0.250);  // 250 ms
/// budget.Arm();
/// for (auto& unit : batch) {
///   AUTOCE_RETURN_NOT_OK(budget.Check("labeling"));  // or degrade
///   ...
/// }
/// ```
///
/// A budget of <= 0 seconds means "unlimited": `Check` always succeeds
/// and `Exhausted` is always false, so callers can thread one object
/// through unconditionally. The object is safe to share across threads
/// once armed; `Arm` itself must not race with readers.
class DeadlineBudget {
 public:
  /// \param budget_seconds Total allowance; <= 0 disables enforcement.
  /// \param clock Monotonic seconds source (steady clock when empty).
  explicit DeadlineBudget(double budget_seconds, obs::Clock clock = {});

  /// (Re)starts the countdown at the clock's current instant.
  void Arm();

  /// Seconds since the last `Arm` (0 before the first `Arm`).
  double Elapsed() const;

  /// Seconds left before exhaustion; +inf when unlimited, clamped at 0.
  double Remaining() const;

  /// True once `Elapsed() >= budget` for a finite budget.
  bool Exhausted() const;

  /// OK while within budget; `DeadlineExceeded` naming `what` after.
  Status Check(const char* what) const;

  double budget_seconds() const { return budget_seconds_; }
  bool unlimited() const { return budget_seconds_ <= 0.0; }

 private:
  double budget_seconds_;
  obs::Clock clock_;
  std::atomic<double> armed_at_{0.0};
  std::atomic<bool> armed_{false};
};

/// \brief A cumulative byte budget (disk or memory) with `Status`-typed
/// exhaustion.
///
/// `Charge` atomically reserves bytes against the limit and fails with
/// `ResourceExhausted` (without reserving) when the reservation would
/// exceed it; `Release` returns bytes (e.g. when a garbage-collected
/// snapshot generation is deleted). A limit of 0 means "unlimited".
/// All operations are thread-safe and lock-free.
class ByteBudget {
 public:
  /// \param limit_bytes Total allowance; 0 disables enforcement.
  explicit ByteBudget(uint64_t limit_bytes) : limit_(limit_bytes) {}

  /// Reserves `bytes` or fails with `ResourceExhausted` naming `what`.
  Status Charge(uint64_t bytes, const char* what);

  /// Returns `bytes` to the budget (clamped at 0 used).
  void Release(uint64_t bytes);

  uint64_t limit() const { return limit_; }
  uint64_t used() const { return used_.load(std::memory_order_relaxed); }

  /// Bytes left; UINT64_MAX when unlimited.
  uint64_t remaining() const;

  bool unlimited() const { return limit_ == 0; }

 private:
  uint64_t limit_;
  std::atomic<uint64_t> used_{0};
};

}  // namespace autoce::util

#endif  // AUTOCE_UTIL_BUDGET_H_

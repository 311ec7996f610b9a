#ifndef AUTOCE_UTIL_TIMER_H_
#define AUTOCE_UTIL_TIMER_H_

#include "obs/clock.h"

namespace autoce {

/// \brief Monotonic wall-clock stopwatch on `obs::SteadySeconds`.
///
/// Used to measure CE-model inference latency (paper's T_mean metric) and
/// the end-to-end latency of plan execution in the engine substrate.
class Timer {
 public:
  Timer() : start_(obs::SteadySeconds()) {}

  /// Restarts the stopwatch.
  void Reset() { start_ = obs::SteadySeconds(); }

  /// Elapsed seconds since construction or last Reset.
  double ElapsedSeconds() const { return obs::SteadySeconds() - start_; }

  /// Elapsed milliseconds.
  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

  /// Elapsed microseconds.
  double ElapsedMicros() const { return ElapsedSeconds() * 1e6; }

 private:
  double start_;
};

}  // namespace autoce

#endif  // AUTOCE_UTIL_TIMER_H_

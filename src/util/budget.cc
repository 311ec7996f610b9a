#include "util/budget.h"

#include <cstdio>
#include <utility>

namespace autoce::util {

DeadlineBudget::DeadlineBudget(double budget_seconds, obs::Clock clock)
    : budget_seconds_(budget_seconds), clock_(std::move(clock)) {}

void DeadlineBudget::Arm() {
  armed_at_.store(obs::Now(clock_), std::memory_order_relaxed);
  armed_.store(true, std::memory_order_release);
}

double DeadlineBudget::Elapsed() const {
  if (!armed_.load(std::memory_order_acquire)) return 0.0;
  double elapsed = obs::Now(clock_) - armed_at_.load(std::memory_order_relaxed);
  return elapsed < 0.0 ? 0.0 : elapsed;
}

bool DeadlineBudget::Exhausted() const {
  return !unlimited() && Elapsed() >= budget_seconds_;
}

Status DeadlineBudget::Check(const char* what) const {
  if (!Exhausted()) return Status::OK();
  char msg[160];
  std::snprintf(msg, sizeof(msg),
                "%s: deadline budget of %.3fs exhausted (elapsed %.3fs)",
                what, budget_seconds_, Elapsed());
  return Status::DeadlineExceeded(msg);
}

}  // namespace autoce::util

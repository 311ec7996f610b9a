#include "util/budget.h"

#include <cstdio>
#include <limits>
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

double DeadlineBudget::Remaining() const {
  if (unlimited()) return std::numeric_limits<double>::infinity();
  double left = budget_seconds_ - Elapsed();
  return left < 0.0 ? 0.0 : left;
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

Status ByteBudget::Charge(uint64_t bytes, const char* what) {
  if (unlimited()) return Status::OK();
  uint64_t prev = used_.load(std::memory_order_relaxed);
  while (true) {
    if (prev > limit_ || bytes > limit_ - prev) {
      char msg[160];
      std::snprintf(msg, sizeof(msg),
                    "%s: byte budget exhausted (%llu used + %llu requested "
                    "> %llu limit)",
                    what, static_cast<unsigned long long>(prev),
                    static_cast<unsigned long long>(bytes),
                    static_cast<unsigned long long>(limit_));
      return Status::ResourceExhausted(msg);
    }
    if (used_.compare_exchange_weak(prev, prev + bytes,
                                    std::memory_order_relaxed)) {
      return Status::OK();
    }
  }
}

void ByteBudget::Release(uint64_t bytes) {
  uint64_t prev = used_.load(std::memory_order_relaxed);
  while (true) {
    uint64_t next = bytes > prev ? 0 : prev - bytes;
    if (used_.compare_exchange_weak(prev, next, std::memory_order_relaxed)) {
      return;
    }
  }
}

uint64_t ByteBudget::remaining() const {
  if (unlimited()) return std::numeric_limits<uint64_t>::max();
  uint64_t u = used();
  return u > limit_ ? 0 : limit_ - u;
}

}  // namespace autoce::util

#include "obs/clock.h"

#include <chrono>

namespace autoce::obs {

double SteadySeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace autoce::obs

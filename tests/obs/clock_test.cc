#include "obs/clock.h"

#include <gtest/gtest.h>

namespace autoce::obs {
namespace {

TEST(ClockTest, EmptyClockIsMonotonic) {
  // An empty Clock reads the process steady clock.
  double a = Now(Clock{});
  double b = Now(Clock{});
  EXPECT_GE(b, a);
  EXPECT_GE(SteadySeconds(), b);
}

}  // namespace
}  // namespace autoce::obs

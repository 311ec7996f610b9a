#include "util/budget.h"

#include <gtest/gtest.h>

#include <string>

#include "util/status.h"

namespace autoce::util {
namespace {

/// Injectable clock backed by a plain variable the test advances.
struct FakeClock {
  double now = 0.0;
  obs::Clock fn() {
    return [this] { return now; };
  }
};

TEST(DeadlineBudgetTest, UnlimitedNeverExhausts) {
  FakeClock clock;
  DeadlineBudget budget(0.0, clock.fn());
  EXPECT_TRUE(budget.unlimited());
  budget.Arm();
  clock.now = 1e9;
  EXPECT_FALSE(budget.Exhausted());
  EXPECT_TRUE(budget.Check("forever").ok());
}

TEST(DeadlineBudgetTest, ChecksAgainstInjectedClock) {
  FakeClock clock;
  clock.now = 10.0;
  DeadlineBudget budget(0.5, clock.fn());
  budget.Arm();
  EXPECT_DOUBLE_EQ(budget.Elapsed(), 0.0);
  EXPECT_TRUE(budget.Check("labeling").ok());

  clock.now = 10.4;
  EXPECT_FALSE(budget.Exhausted());
  EXPECT_NEAR(budget.Elapsed(), 0.4, 1e-12);

  clock.now = 10.5;  // Elapsed == budget counts as exhausted.
  EXPECT_TRUE(budget.Exhausted());
  Status st = budget.Check("labeling");
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(st.message().find("labeling"), std::string::npos);
}

TEST(DeadlineBudgetTest, RearmRestartsTheCountdown) {
  FakeClock clock;
  DeadlineBudget budget(1.0, clock.fn());
  budget.Arm();
  clock.now = 2.0;
  EXPECT_TRUE(budget.Exhausted());
  budget.Arm();  // re-arm at t=2
  EXPECT_FALSE(budget.Exhausted());
  clock.now = 2.5;
  EXPECT_DOUBLE_EQ(budget.Elapsed(), 0.5);
}

TEST(DeadlineBudgetTest, UnarmedReportsZeroElapsed) {
  FakeClock clock;
  clock.now = 99.0;
  DeadlineBudget budget(1.0, clock.fn());
  EXPECT_DOUBLE_EQ(budget.Elapsed(), 0.0);
  EXPECT_FALSE(budget.Exhausted());
}

TEST(DeadlineBudgetTest, DefaultClockIsMonotonic) {
  DeadlineBudget budget(3600.0);
  budget.Arm();
  double a = budget.Elapsed();
  double b = budget.Elapsed();
  EXPECT_GE(b, a);
  EXPECT_TRUE(budget.Check("steady").ok());
}

}  // namespace
}  // namespace autoce::util

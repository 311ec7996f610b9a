#include "util/budget.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

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
  EXPECT_TRUE(std::isinf(budget.Remaining()));
}

TEST(DeadlineBudgetTest, ChecksAgainstInjectedClock) {
  FakeClock clock;
  clock.now = 10.0;
  DeadlineBudget budget(0.5, clock.fn());
  budget.Arm();
  EXPECT_DOUBLE_EQ(budget.Elapsed(), 0.0);
  EXPECT_DOUBLE_EQ(budget.Remaining(), 0.5);
  EXPECT_TRUE(budget.Check("labeling").ok());

  clock.now = 10.4;
  EXPECT_FALSE(budget.Exhausted());
  EXPECT_NEAR(budget.Remaining(), 0.1, 1e-12);

  clock.now = 10.5;  // Elapsed == budget counts as exhausted.
  EXPECT_TRUE(budget.Exhausted());
  Status st = budget.Check("labeling");
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(st.message().find("labeling"), std::string::npos);
  EXPECT_DOUBLE_EQ(budget.Remaining(), 0.0);
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

TEST(ByteBudgetTest, UnlimitedAcceptsEverything) {
  ByteBudget budget(0);
  EXPECT_TRUE(budget.unlimited());
  EXPECT_TRUE(budget.Charge(UINT64_MAX, "all").ok());
  EXPECT_EQ(budget.remaining(), UINT64_MAX);
}

TEST(ByteBudgetTest, ChargeAndReleaseTrackUsage) {
  ByteBudget budget(100);
  EXPECT_TRUE(budget.Charge(60, "a").ok());
  EXPECT_EQ(budget.used(), 60u);
  EXPECT_EQ(budget.remaining(), 40u);

  Status st = budget.Charge(41, "b");
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(st.message().find("b"), std::string::npos);
  EXPECT_EQ(budget.used(), 60u) << "failed charge must not reserve";

  EXPECT_TRUE(budget.Charge(40, "c").ok());
  EXPECT_EQ(budget.remaining(), 0u);

  budget.Release(50);
  EXPECT_EQ(budget.used(), 50u);
  EXPECT_TRUE(budget.Charge(50, "d").ok());
}

TEST(ByteBudgetTest, ReleaseClampsAtZero) {
  ByteBudget budget(10);
  EXPECT_TRUE(budget.Charge(4, "x").ok());
  budget.Release(1000);
  EXPECT_EQ(budget.used(), 0u);
}

TEST(ByteBudgetTest, ConcurrentChargesNeverOversubscribe) {
  ByteBudget budget(1000);
  constexpr int kThreads = 8;
  constexpr int kAttempts = 100;
  std::atomic<uint64_t> granted{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kAttempts; ++i) {
        if (budget.Charge(7, "race").ok()) {
          granted.fetch_add(7, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_LE(granted.load(), 1000u);
  EXPECT_EQ(granted.load(), budget.used());
}

}  // namespace
}  // namespace autoce::util

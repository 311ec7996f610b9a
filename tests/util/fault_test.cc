#include "util/fault.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

namespace autoce::util {
namespace {

/// Restores a clean registry around every test so suites can run in any
/// order.
class FaultTest : public ::testing::Test {
 protected:
  void TearDown() override { Faults().Disable(); }
};

TEST_F(FaultTest, SiteListIsNonEmptyAndUnique) {
  auto sites = AllFaultSites();
  EXPECT_GE(sites.size(), 8u);
  std::set<std::string> unique(sites.begin(), sites.end());
  EXPECT_EQ(unique.size(), sites.size());
}

TEST_F(FaultTest, DisabledByDefault) {
  Faults().Disable();
  for (const char* site : AllFaultSites()) {
    EXPECT_FALSE(FaultPoint(site, 0));
    EXPECT_FALSE(FaultPoint(site, 12345));
  }
}

TEST_F(FaultTest, RejectsUnknownSite) {
  auto& reg = Faults();
  EXPECT_FALSE(reg.Configure("no.such.site").ok());
  EXPECT_FALSE(reg.Configure("data.csv.row,bogus:0.5").ok());
  // A failed Configure must not half-enable injection.
  EXPECT_FALSE(FaultPoint(fault_sites::kCsvRow, 0));
}

TEST_F(FaultTest, RejectsBadProbability) {
  auto& reg = Faults();
  EXPECT_FALSE(reg.Configure("data.csv.row:1.5").ok());
  EXPECT_FALSE(reg.Configure("data.csv.row:-0.1").ok());
  EXPECT_FALSE(reg.Configure("data.csv.row:abc").ok());
}

TEST_F(FaultTest, ProbabilityOneAlwaysFires) {
  auto& reg = Faults();
  ASSERT_TRUE(reg.Configure(std::string(fault_sites::kNnLoss) + ":1.0").ok());
  for (uint64_t key = 0; key < 50; ++key) {
    EXPECT_TRUE(FaultPoint(fault_sites::kNnLoss, key));
  }
  EXPECT_EQ(reg.FireCount(fault_sites::kNnLoss), 50);
  // Other sites stay silent.
  EXPECT_FALSE(FaultPoint(fault_sites::kCsvRow, 0));
}

TEST_F(FaultTest, ProbabilityZeroNeverFires) {
  auto& reg = Faults();
  ASSERT_TRUE(reg.Configure(std::string(fault_sites::kNnLoss) + ":0.0").ok());
  for (uint64_t key = 0; key < 50; ++key) {
    EXPECT_FALSE(FaultPoint(fault_sites::kNnLoss, key));
  }
  EXPECT_EQ(reg.FireCount(fault_sites::kNnLoss), 0);
}

TEST_F(FaultTest, DecisionIsDeterministicInSeedSiteKey) {
  auto& reg = Faults();
  ASSERT_TRUE(reg.Configure("*:0.5", /*seed=*/7).ok());
  std::vector<bool> first;
  for (uint64_t key = 0; key < 200; ++key) {
    first.push_back(FaultPoint(fault_sites::kTestbedTrain, key));
  }
  // Re-configuring with the same seed reproduces the exact decisions,
  // regardless of how many other calls happened in between.
  ASSERT_TRUE(reg.Configure("*:0.5", /*seed=*/7).ok());
  for (uint64_t key = 0; key < 200; ++key) {
    EXPECT_EQ(FaultPoint(fault_sites::kTestbedTrain, key), first[key]);
  }
  // A different seed decides differently somewhere.
  ASSERT_TRUE(reg.Configure("*:0.5", /*seed=*/8).ok());
  bool any_diff = false;
  for (uint64_t key = 0; key < 200; ++key) {
    any_diff |= FaultPoint(fault_sites::kTestbedTrain, key) != first[key];
  }
  EXPECT_TRUE(any_diff);
}

TEST_F(FaultTest, SitesDecideIndependently) {
  auto& reg = Faults();
  ASSERT_TRUE(reg.Configure("*:0.5", /*seed=*/3).ok());
  bool any_diff = false;
  for (uint64_t key = 0; key < 200; ++key) {
    any_diff |= FaultPoint(fault_sites::kDmlLoss, key) !=
                FaultPoint(fault_sites::kDmlGrad, key);
  }
  EXPECT_TRUE(any_diff) << "sites share decisions; name hash is broken";
}

TEST_F(FaultTest, IntermediateProbabilityFiresRoughlyAsOften) {
  auto& reg = Faults();
  ASSERT_TRUE(reg.Configure(std::string(fault_sites::kFitSample) + ":0.3").ok());
  int fires = 0;
  for (uint64_t key = 0; key < 1000; ++key) {
    fires += FaultPoint(fault_sites::kFitSample, key) ? 1 : 0;
  }
  EXPECT_GT(fires, 200);
  EXPECT_LT(fires, 400);
  EXPECT_EQ(reg.FireCount(fault_sites::kFitSample), fires);
}

TEST_F(FaultTest, WildcardSelectsEverySite) {
  auto& reg = Faults();
  ASSERT_TRUE(reg.Configure("*").ok());
  for (const char* site : AllFaultSites()) {
    EXPECT_TRUE(FaultPoint(site, 1)) << site;
  }
}

TEST_F(FaultTest, ResetCountsKeepsConfiguration) {
  auto& reg = Faults();
  ASSERT_TRUE(reg.Configure(std::string(fault_sites::kCsvRow)).ok());
  EXPECT_TRUE(FaultPoint(fault_sites::kCsvRow, 9));
  EXPECT_EQ(reg.FireCount(fault_sites::kCsvRow), 1);
  reg.ResetCounts();
  EXPECT_EQ(reg.FireCount(fault_sites::kCsvRow), 0);
  EXPECT_TRUE(FaultPoint(fault_sites::kCsvRow, 9));  // still configured
}

TEST_F(FaultTest, KeyHelpersAreStable) {
  EXPECT_EQ(FaultKeyMix(1, 2), FaultKeyMix(1, 2));
  EXPECT_NE(FaultKeyMix(1, 2), FaultKeyMix(2, 1));
  const double a[] = {1.0, 2.0, 3.0};
  const double b[] = {1.0, 2.0, 4.0};
  EXPECT_EQ(FaultKeyFromDoubles(a, 3), FaultKeyFromDoubles(a, 3));
  EXPECT_NE(FaultKeyFromDoubles(a, 3), FaultKeyFromDoubles(b, 3));
}

}  // namespace
}  // namespace autoce::util

#include "bench/support/chaos.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "util/fault.h"

namespace autoce::util {
namespace {

ChaosScheduleConfig SmallConfig() {
  ChaosScheduleConfig config;
  config.seed = 7;
  config.ticks = 20;
  config.phase_ticks = 4;
  config.site_pool = {fault_sites::kAdaptLabel, fault_sites::kAdaptTrain,
                      fault_sites::kSnapshotWrite,
                      fault_sites::kSnapshotManifest,
                      fault_sites::kServeAdmission};
  config.kill_events = 3;
  return config;
}

TEST(ChaosScheduleTest, SameSeedSameSchedule) {
  auto a = GenerateChaosSchedule(SmallConfig());
  auto b = GenerateChaosSchedule(SmallConfig());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->ToJson(), b->ToJson());
  EXPECT_EQ(a->Describe(), b->Describe());
}

TEST(ChaosScheduleTest, DifferentSeedsDiverge) {
  auto a = GenerateChaosSchedule(SmallConfig());
  auto config = SmallConfig();
  config.seed = 8;
  auto b = GenerateChaosSchedule(config);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a->ToJson(), b->ToJson());
}

TEST(ChaosScheduleTest, PhasesTileTheTickRange) {
  auto schedule = GenerateChaosSchedule(SmallConfig());
  ASSERT_TRUE(schedule.ok());
  uint64_t expected_first = 0;
  for (const auto& phase : schedule->phases) {
    EXPECT_EQ(phase.first_tick, expected_first);
    EXPECT_GE(phase.last_tick, phase.first_tick);
    expected_first = phase.last_tick + 1;
  }
  EXPECT_EQ(expected_first, schedule->ticks);
}

TEST(ChaosScheduleTest, ArmsRespectConfigBounds) {
  auto config = SmallConfig();
  config.min_concurrent_sites = 2;
  config.max_concurrent_sites = 3;
  config.calm_fraction = 0.0;
  auto schedule = GenerateChaosSchedule(config);
  ASSERT_TRUE(schedule.ok());
  std::set<std::string> pool(config.site_pool.begin(),
                             config.site_pool.end());
  for (const auto& phase : schedule->phases) {
    EXPECT_GE(phase.arms.size(), 2u);
    EXPECT_LE(phase.arms.size(), 3u);
    std::set<std::string> seen;
    for (const auto& arm : phase.arms) {
      EXPECT_TRUE(pool.count(arm.site)) << arm.site;
      EXPECT_TRUE(seen.insert(arm.site).second)
          << "duplicate site in one phase: " << arm.site;
      EXPECT_GE(arm.probability, config.min_probability);
      EXPECT_LE(arm.probability, config.max_probability);
    }
  }
  EXPECT_GE(schedule->MaxConcurrentSites(), 2);
}

TEST(ChaosScheduleTest, SpecsParseableByFaultRegistry) {
  auto config = SmallConfig();
  config.calm_fraction = 0.0;
  auto schedule = GenerateChaosSchedule(config);
  ASSERT_TRUE(schedule.ok());
  auto& reg = Faults();
  for (uint64_t tick = 0; tick < schedule->ticks; ++tick) {
    std::string spec = schedule->SpecForTick(tick);
    ASSERT_FALSE(spec.empty()) << "tick " << tick;
    EXPECT_TRUE(reg.Configure(spec).ok()) << spec;
  }
  reg.Disable();
}

TEST(ChaosScheduleTest, KillTicksAreDistinctInRangeAndNonZero) {
  auto schedule = GenerateChaosSchedule(SmallConfig());
  ASSERT_TRUE(schedule.ok());
  ASSERT_EQ(schedule->kill_ticks.size(), 3u);
  std::set<uint64_t> unique(schedule->kill_ticks.begin(),
                            schedule->kill_ticks.end());
  EXPECT_EQ(unique.size(), schedule->kill_ticks.size());
  EXPECT_TRUE(std::is_sorted(schedule->kill_ticks.begin(),
                             schedule->kill_ticks.end()));
  for (uint64_t t : schedule->kill_ticks) {
    EXPECT_GE(t, 1u);
    EXPECT_LT(t, schedule->ticks);
    EXPECT_TRUE(schedule->KillAtTick(t));
  }
  EXPECT_FALSE(schedule->KillAtTick(0));
}

TEST(ChaosScheduleTest, CalmFractionOneArmsNothing) {
  auto config = SmallConfig();
  config.calm_fraction = 1.0;
  auto schedule = GenerateChaosSchedule(config);
  ASSERT_TRUE(schedule.ok());
  for (const auto& phase : schedule->phases) {
    EXPECT_TRUE(phase.arms.empty());
  }
  EXPECT_EQ(schedule->SpecForTick(0), "");
  EXPECT_EQ(schedule->MaxConcurrentSites(), 0);
}

TEST(ChaosScheduleTest, RejectsInvalidConfigs) {
  auto config = SmallConfig();
  config.site_pool.clear();
  EXPECT_FALSE(GenerateChaosSchedule(config).ok());

  config = SmallConfig();
  config.ticks = 0;
  EXPECT_FALSE(GenerateChaosSchedule(config).ok());

  config = SmallConfig();
  config.phase_ticks = 0;
  EXPECT_FALSE(GenerateChaosSchedule(config).ok());

  config = SmallConfig();
  config.min_concurrent_sites = 3;
  config.max_concurrent_sites = 2;
  EXPECT_FALSE(GenerateChaosSchedule(config).ok());

  config = SmallConfig();
  config.min_probability = 0.0;
  EXPECT_FALSE(GenerateChaosSchedule(config).ok());

  config = SmallConfig();
  config.max_probability = 1.5;
  EXPECT_FALSE(GenerateChaosSchedule(config).ok());

  config = SmallConfig();
  config.calm_fraction = -0.1;
  EXPECT_FALSE(GenerateChaosSchedule(config).ok());

  config = SmallConfig();
  config.kill_events = -1;
  EXPECT_FALSE(GenerateChaosSchedule(config).ok());
}

TEST(ChaosScheduleTest, JsonCarriesSeedTicksPhasesAndKills) {
  auto schedule = GenerateChaosSchedule(SmallConfig());
  ASSERT_TRUE(schedule.ok());
  std::string json = schedule->ToJson();
  EXPECT_NE(json.find("\"seed\": 7"), std::string::npos) << json;
  EXPECT_NE(json.find("\"ticks\": 20"), std::string::npos) << json;
  EXPECT_NE(json.find("\"phases\""), std::string::npos);
  EXPECT_NE(json.find("\"kill_ticks\""), std::string::npos);
}

}  // namespace
}  // namespace autoce::util

// Kill-point recovery harness for the online-adaptation loop (the
// tentpole crash contract, DESIGN.md §5.11): for every stage of the
// pipeline — enqueue, label, train-and-commit, checkpoint, snapshot
// commit, server reload — a helper process adapts a fixed feedback
// stream with AUTOCE_KILLPOINTS armed so it dies at that stage with
// exit code 137. After the kill:
//
//   1. a fresh server over the store must still answer (it serves the
//      newest durable generation, never a torn one), and
//   2. rerunning the adaptation unarmed must converge to a final model
//      digest bit-identical to an uninterrupted baseline — replay
//      dedup consumes already-committed items, content-keyed seeds
//      relabel in-flight ones to the same bits.
//
// The helper binary path is injected at compile time
// (AUTOCE_ADAPT_CRASH_HELPER_PATH, see tests/CMakeLists.txt).

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "util/snapshot.h"

namespace autoce {
namespace {

struct RunResult {
  int exit_code = -1;
  std::string output;
};

RunResult RunCmd(const std::string& cmd) {
  RunResult r;
  FILE* pipe = ::popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << cmd;
  if (pipe == nullptr) return r;
  char buf[512];
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) r.output += buf;
  int status = ::pclose(pipe);
  if (WIFEXITED(status)) r.exit_code = WEXITSTATUS(status);
  return r;
}

std::string ExtractDigest(const std::string& output) {
  size_t pos = output.find("DIGEST ");
  if (pos == std::string::npos) return "";
  return output.substr(pos + 7, 16);
}

uint64_t ExtractGen(const std::string& output) {
  size_t pos = output.find("GEN ");
  if (pos == std::string::npos) return 0;
  return std::strtoull(output.c_str() + pos + 4, nullptr, 10);
}

std::string FreshDir(const std::string& name) {
  std::string dir = std::string(::testing::TempDir()) + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

std::string HelperCmd(const std::string& mode, const std::string& dir,
                      const std::string& killpoints) {
  std::string cmd = "env -u AUTOCE_KILLPOINTS -u AUTOCE_FAULTS";
  if (!killpoints.empty()) cmd += " AUTOCE_KILLPOINTS=" + killpoints;
  cmd += " " AUTOCE_ADAPT_CRASH_HELPER_PATH " --" + mode + " --dir=" + dir;
  cmd += " 2>/dev/null";
  return cmd;
}

/// The adaptation stages, each named by the kill site that fires there.
const char* const kStages[] = {
    util::kill_sites::kAdaptEnqueue,       // queue admission
    util::kill_sites::kAdaptLabeled,       // item labeled, unit pending
    util::kill_sites::kAdaptTrained,       // unit trained and committed
    util::kill_sites::kAdvisorCheckpoint,  // online-update checkpoint
    util::kill_sites::kCommitted,          // snapshot store commit point
    util::kill_sites::kServeReload,        // post-batch hot reload
};

class AdaptKillSweepTest : public ::testing::TestWithParam<const char*> {};

TEST_P(AdaptKillSweepTest, CrashedStageRecoversToBaselineDigest) {
  const std::string site = GetParam();

  // Uninterrupted baseline: setup + full adaptation in one go. The
  // baseline dir is per-stage: ctest runs each TEST_P instance as its
  // own process, so a shared dir would race under `ctest -j`.
  std::string base_dir = FreshDir("adapt_crash_baseline_" + site);
  RunResult setup = RunCmd(HelperCmd("setup", base_dir, ""));
  ASSERT_EQ(setup.exit_code, 0) << setup.output;
  RunResult baseline = RunCmd(HelperCmd("adapt", base_dir, ""));
  ASSERT_EQ(baseline.exit_code, 0) << baseline.output;
  const std::string want = ExtractDigest(baseline.output);
  ASSERT_EQ(want.size(), 16u) << baseline.output;

  // Victim store: clean setup, then adaptation armed to die at the
  // stage under test.
  std::string dir = FreshDir("adapt_crash_" + site);
  RunResult victim_setup = RunCmd(HelperCmd("setup", dir, ""));
  ASSERT_EQ(victim_setup.exit_code, 0) << victim_setup.output;
  uint64_t setup_gen = ExtractGen(victim_setup.output);

  RunResult killed = RunCmd(HelperCmd("adapt", dir, site));
  ASSERT_EQ(killed.exit_code, util::kKillExitCode)
      << site << ": expected the kill point to fire, got exit "
      << killed.exit_code << "\n" << killed.output;

  // A restarted server answers from a durable generation — never
  // older than the setup state, never torn.
  RunResult probe = RunCmd(HelperCmd("probe", dir, ""));
  ASSERT_EQ(probe.exit_code, 0) << site << "\n" << probe.output;
  EXPECT_GE(ExtractGen(probe.output), setup_gen) << site;

  // The rerun adaptation must land on the baseline digest, bit for bit.
  RunResult resumed = RunCmd(HelperCmd("adapt", dir, ""));
  ASSERT_EQ(resumed.exit_code, 0) << site << "\n" << resumed.output;
  EXPECT_EQ(ExtractDigest(resumed.output), want) << site;
  EXPECT_EQ(ExtractGen(resumed.output), ExtractGen(baseline.output)) << site;
  std::filesystem::remove_all(base_dir);
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(
    Stages, AdaptKillSweepTest, ::testing::ValuesIn(kStages),
    [](const ::testing::TestParamInfo<const char*>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '.') c = '_';
      }
      return name;
    });

TEST(AdaptKillSweepTest, RepeatedKillsStillConverge) {
  // Die at a seed-deterministic subset of trained-unit commits (p=0.5),
  // rerunning until a pass survives: progress is monotone because every
  // committed unit is deduped by the next pass.
  std::string base_dir = FreshDir("adapt_repeat_baseline");
  ASSERT_EQ(RunCmd(HelperCmd("setup", base_dir, "")).exit_code, 0);
  RunResult baseline = RunCmd(HelperCmd("adapt", base_dir, ""));
  ASSERT_EQ(baseline.exit_code, 0) << baseline.output;
  const std::string want = ExtractDigest(baseline.output);

  std::string dir = FreshDir("adapt_repeat");
  ASSERT_EQ(RunCmd(HelperCmd("setup", dir, "")).exit_code, 0);
  std::string spec = std::string(util::kill_sites::kAdaptTrained) + ":0.5";
  RunResult last = RunCmd(HelperCmd("adapt", dir, spec));
  int attempts = 0;
  while (last.exit_code == util::kKillExitCode && attempts < 16) {
    last = RunCmd(HelperCmd("adapt", dir, spec));
    ++attempts;
  }
  ASSERT_EQ(last.exit_code, 0) << "never survived after " << attempts
                               << " reruns\n" << last.output;
  EXPECT_EQ(ExtractDigest(last.output), want);
  std::filesystem::remove_all(base_dir);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace autoce

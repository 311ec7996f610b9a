// `autoce` refuses a numeric flag value it cannot use with exit code 2
// and a message naming the flag, and its train -> inspect round trip
// over a snapshot store reports the training cursor. The binary path is
// injected at compile time (AUTOCE_CLI_PATH, see tests/CMakeLists.txt).

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <filesystem>
#include <ostream>
#include <string>

namespace autoce {
namespace {

/// Runs `autoce <args>` and returns its exit code; `output` receives
/// stdout and stderr.
int RunCli(const std::string& args, std::string* output) {
  std::string cmd = std::string(AUTOCE_CLI_PATH) + " " + args + " 2>&1";
  FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) return -1;
  char buf[512];
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) *output += buf;
  int status = ::pclose(pipe);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

struct BadFlagCase {
  const char* name;
  const char* args;  ///< the command line after `autoce`
  const char* flag;  ///< the flag the message must name
};

void PrintTo(const BadFlagCase& c, std::ostream* os) { *os << c.args; }

class CliFlagsTest : public ::testing::TestWithParam<BadFlagCase> {};

TEST_P(CliFlagsTest, ExitsTwoNamingTheFlag) {
  const BadFlagCase& c = GetParam();
  std::string output;
  EXPECT_EQ(RunCli(c.args, &output), 2) << c.args << "\n" << output;
  EXPECT_NE(output.find(c.flag), std::string::npos) << output;
}

// --out names a missing directory: should a value slip through, the
// command fails to write instead of filling the working directory.
INSTANTIATE_TEST_SUITE_P(
    BadValues, CliFlagsTest,
    ::testing::Values(
        BadFlagCase{"MalformedInteger", "generate --out no_such_dir --count abc",
                    "--count"},
        BadFlagCase{"TrailingGarbage", "generate --out no_such_dir --count 3x",
                    "--count"},
        BadFlagCase{"IntegerPastItsType",
                    "generate --out no_such_dir --count 99999999999", "--count"},
        BadFlagCase{"IntegerPastInt64",
                    "generate --out no_such_dir --count 1 "
                    "--max-rows 99999999999999999999",
                    "--max-rows"},
        BadFlagCase{"CountBelowOne", "generate --out no_such_dir --count 0",
                    "--count"},
        BadFlagCase{"MinTablesBelowOne",
                    "generate --out no_such_dir --count 1 --min-tables 0 "
                    "--max-tables 0",
                    "--min-tables"},
        BadFlagCase{"PerCellBelowOne", "dyn gen --out no_such_dir --per-cell 0",
                    "--per-cell"},
        BadFlagCase{"MinTablesAboveMax",
                    "generate --out no_such_dir --count 1 --min-tables 3 "
                    "--max-tables 1",
                    "--min-tables"},
        BadFlagCase{"MinRowsAboveDefaultMax",
                    "generate --out no_such_dir --count 1 --min-rows 2000",
                    "--min-rows"},
        BadFlagCase{"DynGenMinRowsAboveMax",
                    "dyn gen --out no_such_dir --min-rows 9 --max-rows 3",
                    "--min-rows"},
        BadFlagCase{"MalformedNumber", "version --deadline-ms soon",
                    "--deadline-ms"},
        BadFlagCase{"NonFiniteNumber", "version --label-budget-ms nan",
                    "--label-budget-ms"}),
    [](const ::testing::TestParamInfo<BadFlagCase>& info) {
      return std::string(info.param.name);
    });

TEST(CliSnapshotTest, InspectReportsTheTrainingCursor) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / "cli_snapshot";
  fs::remove_all(dir);
  fs::create_directories(dir / "corpus");
  const std::string d = dir.string();
  std::string output;
  ASSERT_EQ(RunCli("generate --out " + d + "/corpus --count 6 --min-tables 1 "
                   "--max-tables 2 --min-rows 150 --max-rows 300 --seed 31",
                   &output),
            0)
      << output;
  ASSERT_EQ(RunCli("train --data " + d + "/corpus --out " + d + "/m.ace "
                   "--snapshot-dir " + d + "/store --train-queries 24 "
                   "--test-queries 12 --epochs 4",
                   &output),
            0)
      << output;
  output.clear();
  ASSERT_EQ(RunCli("inspect --snapshot-dir " + d + "/store", &output), 0)
      << output;
  EXPECT_NE(output.find("training cursor     : phase done, "),
            std::string::npos)
      << output;
  fs::remove_all(dir);
}

}  // namespace
}  // namespace autoce

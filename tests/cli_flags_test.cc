// `autoce` refuses a numeric flag value it cannot use with exit code 2
// and a message naming the flag, its train -> inspect round trip over a
// snapshot store reports the training cursor, and its adaptation
// commands (`serve --adapt`, `adapt`, `adapt quarantine`, `adapt
// requeue`) run end to end. The binary path is injected at compile time
// (AUTOCE_CLI_PATH, see tests/CMakeLists.txt).

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <ostream>
#include <sstream>
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

TEST(CliAdaptTest, QuarantineJsonEscapesTheReason) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / "cli_quarantine";
  fs::remove_all(dir);
  fs::create_directories(dir);
  std::ofstream(dir / "QUARANTINE.log")
      << "42\ttrain\tcannot open \"x\\y\" for reading\n";
  std::string output;
  ASSERT_EQ(RunCli("adapt quarantine --json --snapshot-dir " + dir.string(),
                   &output),
            0)
      << output;
  EXPECT_NE(output.find(R"("reason": "cannot open \"x\\y\" for reading")"),
            std::string::npos)
      << output;
  fs::remove_all(dir);
}

TEST(CliAdaptTest, RequeueRefusesAFingerprintThatIsNotHex) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / "cli_requeue";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string store = (dir / "store").string();
  for (const char* bad : {"12zz", "zz", "0x12", "-1", "12345678901234567"}) {
    std::string output;
    EXPECT_EQ(RunCli(std::string("adapt requeue ") + bad + " --snapshot-dir " +
                         store + " --data " + (dir / "data").string(),
                     &output),
              2)
        << bad << "\n" << output;
    EXPECT_NE(output.find("FINGERPRINT"), std::string::npos) << output;
    // Refused before anything is opened: the store is never created.
    EXPECT_FALSE(fs::exists(store)) << bad;
  }
  fs::remove_all(dir);
}

/// The first line of `output` that starts with `prefix`, or "".
std::string LineStartingWith(const std::string& output,
                             const std::string& prefix) {
  std::istringstream lines(output);
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind(prefix, 0) == 0) return line;
  }
  return "";
}

/// The bytes of the newest `snap-*.snap` generation in store `dir`.
std::string NewestGenerationBytes(const std::filesystem::path& dir) {
  std::string newest;  // names are zero-padded, so the largest is newest
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    const std::string name = e.path().filename().string();
    if (name.rfind("snap-", 0) == 0 && e.path().extension() == ".snap") {
      newest = std::max(newest, name);
    }
  }
  if (newest.empty()) return "";
  std::ifstream in(dir / newest, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

TEST(CliAdaptTest, ServeAdaptAndAdaptApplyDriftedDatasets) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / "cli_adapt";
  fs::remove_all(dir);
  fs::create_directories(dir / "corpus");
  fs::create_directories(dir / "drift");
  const std::string d = dir.string();
  std::string output;
  ASSERT_EQ(RunCli("generate --out " + d + "/corpus --count 6 --min-tables 1 "
                   "--max-tables 2 --min-rows 150 --max-rows 300 --seed 31",
                   &output),
            0)
      << output;
  // Wider and larger than anything in the corpus: out of distribution.
  ASSERT_EQ(RunCli("generate --out " + d + "/drift --count 3 --min-tables 3 "
                   "--max-tables 5 --min-rows 600 --max-rows 1200 --seed 32",
                   &output),
            0)
      << output;
  ASSERT_EQ(RunCli("train --data " + d + "/corpus --out " + d + "/m.ace "
                   "--snapshot-dir " + d + "/store --train-queries 24 "
                   "--test-queries 12 --epochs 4",
                   &output),
            0)
      << output;
  // Each command adapts its own copy of the trained store.
  for (const char* copy : {"serve", "w1", "w2", "adapt"}) {
    fs::copy(dir / "store", dir / copy, fs::copy_options::recursive);
  }

  output.clear();
  ASSERT_EQ(RunCli("serve --snapshot-dir " + d + "/serve --data " + d +
                       "/drift --adapt",
                   &output),
            0)
      << output;
  int enqueued = 0, applied = 0, sentinel = -1, quarantined = -1;
  ASSERT_EQ(std::sscanf(LineStartingWith(output, "adaptation: ").c_str(),
                        "adaptation: %d OOD enqueued, %d applied, %d "
                        "sentinel, %d quarantined",
                        &enqueued, &applied, &sentinel, &quarantined),
            4)
      << output;
  EXPECT_GE(enqueued, 1) << output;
  EXPECT_EQ(applied, enqueued) << output;
  EXPECT_EQ(sentinel, 0) << output;
  EXPECT_EQ(quarantined, 0) << output;

  std::string lines[2];
  for (int workers : {1, 2}) {
    output.clear();
    ASSERT_EQ(RunCli("adapt --snapshot-dir " + d + "/w" +
                         std::to_string(workers) + " --data " + d +
                         "/drift --train-queries 24 --test-queries 12 "
                         "--workers " + std::to_string(workers),
                     &output),
              0)
        << output;
    lines[workers - 1] = LineStartingWith(output, "server now at generation ");
  }
  EXPECT_NE(lines[0].find("(RCS "), std::string::npos) << lines[0];
  EXPECT_EQ(lines[0], lines[1]);

  // `serve --adapt` labels with the same testbed as a default `adapt`,
  // so both commit the same final generation from the same store.
  output.clear();
  ASSERT_EQ(RunCli("adapt --snapshot-dir " + d + "/adapt --data " + d +
                       "/drift",
                   &output),
            0)
      << output;
  const std::string served = NewestGenerationBytes(dir / "serve");
  ASSERT_FALSE(served.empty());
  EXPECT_TRUE(served == NewestGenerationBytes(dir / "adapt"))
      << "serve --adapt and adapt committed different generations";
  fs::remove_all(dir);
}

}  // namespace
}  // namespace autoce

// End-to-end benchmark of the three user paths of AutoCE: `autoce train`
// (workload `train`), recommendation serving (`recommend`, and
// `recommend_adapt` with online adaptation writing beside it) and the
// per-subplan estimator service behind the optimizer (`fss`).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Every input is generated from --seed. The last stdout line is one JSON
// object {correct, attempted, failed, metrics}: end-to-end metrics with
// --trace 0, per-layer metrics with --trace 1. The exit code is non-zero
// when a correctness check failed. perfbench/README.md has the details.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "harness.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "util/parallel.h"
#include "util/simd.h"

namespace {

using autoce::perfbench::Args;

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "train|recommend|recommend_adapt|fss --seed N --seconds S "
               "--trace 0|1 [--out DIR]\n",
               why);
  return 2;
}

bool Parse(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--out") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace autoce;
  using namespace autoce::perfbench;
  std::setvbuf(stdout, nullptr, _IOLBF, 0);  // progress lines survive a crash
  Args args;
  if (!Parse(argc, argv, &args)) return Usage("bad arguments");
  void (*run)(const Args&, Report*) = nullptr;
  if (args.workload == "train") run = RunTrain;
  if (args.workload == "recommend") run = RunRecommend;
  if (args.workload == "recommend_adapt") run = RunRecommendAdapt;
  if (args.workload == "fss") run = RunFss;
  if (run == nullptr) return Usage("unknown workload");

  // End-to-end numbers are measured with the registry off; the traced
  // phases turn it on themselves.
  obs::MetricsRegistry::Instance().Disable();
  if (!FreshDir(args.out_dir)) return Usage("cannot create the --out directory");

  Report report;
  report.Header("workload", args.workload);
  report.Header("seed", static_cast<int64_t>(args.seed));
  report.Header("seconds", std::to_string(args.seconds));
  report.Header("trace", static_cast<int64_t>(args.trace));
  report.Header("threads", util::GlobalParallelism());
  report.Header("nproc",
                static_cast<int64_t>(std::thread::hardware_concurrency()));
  report.Header("simd_compiled",
                util::simd::LevelName(util::simd::CompiledLevel()));
  report.Header("simd_selected",
                util::simd::LevelName(util::simd::ActiveLevel()));
  report.Header("build_type", AUTOCE_BENCH_BUILD_TYPE);
  report.Header("git_describe", obs::GitDescribe());

  run(args, &report);
  if (!args.trace) report.Set("peak_rss_mb", PeakRssMb(), "MB");

  std::ofstream(args.out_dir + "/RUN_" + args.workload + ".json")
      << report.ManifestJson("perfbench_" + args.workload);
  std::printf("%s\n", report.ResultJson().c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}

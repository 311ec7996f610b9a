// Chaos soak of the full serve + adapt + snapshot loop (DESIGN.md
// §5.12): N simulated serving windows driven by a seeded chaos
// schedule that arms several fault sites concurrently and runs
// kill/restart cycles mid-run, with per-request deadlines and
// per-batch label budgets on a simulated clock. Emits BENCH_soak.json
// and exits non-zero if any standing invariant or determinism contract
// fails:
//
//   * generation monotonicity, no stuck queue, bounded sentinel
//     fraction, ends durable (enforced inside adapt::RunSoak);
//   * unarmed replay (kills disabled, same seed) is bit-identical;
//   * workers 1/2/4 land on the same model bits (unlimited budgets —
//     clock observation order under parallel labeling is
//     scheduler-dependent by design);
//
// plus a budget-tightness sweep: sentinel fraction vs label budget and
// shed rate vs request deadline, chaos disabled so the curves isolate
// budget pressure.
//
// Runtime: ~5 s at the default scale, ~1 min at
// AUTOCE_BENCH_SCALE=paper (docs/repro.md).
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/common.h"
#include "bench/support/chaos.h"
#include "bench/support/soak.h"
#include "util/fault.h"

namespace autoce::bench {
namespace {

constexpr uint64_t kSeed = 4242;

std::string FreshStoreDir(const std::string& name) {
  const char* tmp = std::getenv("TMPDIR");
  std::string dir = std::string(tmp != nullptr ? tmp : "/tmp") + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

/// The soak shape shared by every run in this bench. The site pool is
/// spelled out (instead of relying on the driver default) so the
/// schedule rendered into BENCH_soak.json is exactly the one that ran.
adapt::SoakConfig BaseConfig(const std::string& dir) {
  adapt::SoakConfig config;
  config.seed = kSeed;
  config.ticks = PaperScale() ? 288 : 24;  // ~24 vs ~2 simulated hours
  config.items_per_tick = 2;
  config.requests_per_tick = 6;
  config.chaos.phase_ticks = 4;
  config.chaos.kill_events = PaperScale() ? 8 : 3;
  config.chaos.min_concurrent_sites = 3;  // >= 3 sites armed at once
  config.chaos.max_concurrent_sites = 4;
  config.chaos.calm_fraction = 0.2;
  // Milder per-decision probabilities than the chaos default: retries
  // and commit attempts face faults repeatedly, so 0.4+ per decision
  // quarantines nearly everything — chaos should hurt, not sterilize.
  config.chaos.min_probability = 0.02;
  config.chaos.max_probability = 0.15;
  config.chaos.site_pool = {
      util::fault_sites::kAdaptLabel,    util::fault_sites::kAdaptTrain,
      util::fault_sites::kAdaptCommit,   util::fault_sites::kSnapshotWrite,
      util::fault_sites::kSnapshotManifest,
      util::fault_sites::kServeAdmission,
  };
  config.store_dir = dir;
  return config;
}

int Fail(const char* what) {
  std::fprintf(stderr, "FAIL: %s\n", what);
  return 1;
}

}  // namespace
}  // namespace autoce::bench

int main() {
  using namespace autoce;
  using namespace autoce::bench;

  Timer timer;
  obs::RunManifest manifest = BenchManifest("soak_serve_adapt", kSeed);

  // ---- Main soak: budgets + chaos + kill/restart cycles ------------
  adapt::SoakConfig main_config =
      BaseConfig(FreshStoreDir("autoce_bench_soak_main"));
  main_config.request_deadline_ms = 20.0;
  main_config.label_budget_ms_per_batch = 25.0;

  // Rendered from the same pure-function schedule the driver runs.
  util::ChaosScheduleConfig chaos = main_config.chaos;
  chaos.seed = main_config.seed;
  chaos.ticks = main_config.ticks;
  auto schedule = util::GenerateChaosSchedule(chaos);
  if (!schedule.ok()) return Fail(schedule.status().ToString().c_str());
  std::printf("# chaos schedule (seed %" PRIu64 ")\n%s\n", kSeed,
              schedule->Describe().c_str());

  auto soak = adapt::RunSoak(main_config);
  if (!soak.ok()) return Fail(soak.status().ToString().c_str());
  std::printf(
      "# main soak: %zu ticks, %" PRIu64 " kills, %d sites max concurrent\n"
      "#   applied %" PRIu64 "/%" PRIu64 " offered, sentinel fraction %.3f"
      " (%" PRIu64 " budget-expired), quarantined %" PRIu64 "\n"
      "#   shed %" PRIu64 "/%" PRIu64 " requests (%.3f; %" PRIu64
      " by deadline), final gen %" PRIu64 " digest %016" PRIx64 "\n",
      soak->ticks.size(), soak->kills, soak->max_concurrent_sites,
      soak->items_applied, soak->items_offered, soak->SentinelFraction(),
      soak->labels_budget_expired, soak->items_quarantined, soak->shed,
      soak->requests, soak->ShedRate(), soak->deadline_shed,
      soak->final_generation, soak->final_digest);
  if (soak->kills < 2) return Fail("fewer than 2 kill/restart cycles ran");
  if (soak->max_concurrent_sites < 3) {
    return Fail("fewer than 3 fault sites armed concurrently");
  }

  // ---- Determinism contract 1: unarmed replay ----------------------
  adapt::SoakConfig replay_config =
      BaseConfig(FreshStoreDir("autoce_bench_soak_replay"));
  replay_config.request_deadline_ms = main_config.request_deadline_ms;
  replay_config.label_budget_ms_per_batch =
      main_config.label_budget_ms_per_batch;
  replay_config.arm_kills = false;
  auto replay = adapt::RunSoak(replay_config);
  if (!replay.ok()) return Fail(replay.status().ToString().c_str());
  bool replay_identical =
      replay->final_digest == soak->final_digest &&
      replay->final_generation == soak->final_generation &&
      replay->items_applied == soak->items_applied &&
      replay->labels_sentinel == soak->labels_sentinel;
  std::printf("# unarmed replay: digest %016" PRIx64 " -> %s\n",
              replay->final_digest,
              replay_identical ? "bit-identical" : "MISMATCH");
  if (!replay_identical) return Fail("unarmed replay diverged");

  // ---- Determinism contract 2: worker count ------------------------
  // Unlimited budgets: concurrent clock observation order is
  // scheduler-dependent, so clock budgets are excluded from this
  // contract (and tested at workers=1 everywhere else).
  uint64_t worker_digest = 0;
  bool workers_identical = true;
  for (int workers : {1, 2, 4}) {
    adapt::SoakConfig config = BaseConfig(
        FreshStoreDir("autoce_bench_soak_w" + std::to_string(workers)));
    config.num_workers = workers;
    auto report = adapt::RunSoak(config);
    if (!report.ok()) return Fail(report.status().ToString().c_str());
    std::printf("# workers=%d: digest %016" PRIx64 " gen %" PRIu64 "\n",
                workers, report->final_digest, report->final_generation);
    if (workers == 1) {
      worker_digest = report->final_digest;
    } else if (report->final_digest != worker_digest) {
      workers_identical = false;
    }
  }
  if (!workers_identical) return Fail("worker-count sweep diverged");

  // ---- Budget tightness sweeps (chaos off, workers=1) --------------
  // One clock observation costs 5 simulated ms, so a 10 ms budget
  // affords one or two observations — the tight end of each sweep.
  const std::vector<double> budgets = {0.0, 80.0, 40.0, 20.0, 10.0};
  std::string label_sweep = "[";
  std::string deadline_sweep = "[";
  std::printf("#\n# budget tightness (chaos off)\n");
  PrintRow({"label_budget_ms", "sentinel_frac", "deadline_ms", "shed_rate"},
           16);
  for (size_t i = 0; i < budgets.size(); ++i) {
    adapt::SoakConfig label_config = BaseConfig(
        FreshStoreDir("autoce_bench_soak_lb" + std::to_string(i)));
    label_config.ticks = PaperScale() ? 48 : 12;
    label_config.arm_faults = false;
    label_config.arm_kills = false;
    label_config.label_budget_ms_per_batch = budgets[i];
    auto label_run = adapt::RunSoak(label_config);
    if (!label_run.ok()) return Fail(label_run.status().ToString().c_str());

    adapt::SoakConfig deadline_config = BaseConfig(
        FreshStoreDir("autoce_bench_soak_dl" + std::to_string(i)));
    deadline_config.ticks = label_config.ticks;
    deadline_config.arm_faults = false;
    deadline_config.arm_kills = false;
    deadline_config.request_deadline_ms = budgets[i];
    auto deadline_run = adapt::RunSoak(deadline_config);
    if (!deadline_run.ok()) {
      return Fail(deadline_run.status().ToString().c_str());
    }

    PrintRow({budgets[i] == 0.0 ? "unlimited" : Fmt(budgets[i], 0),
              Fmt(label_run->SentinelFraction()),
              budgets[i] == 0.0 ? "unlimited" : Fmt(budgets[i], 0),
              Fmt(deadline_run->ShedRate())},
             16);
    char row[160];
    std::snprintf(row, sizeof(row),
                  "%s{\"budget_ms\":%.0f,\"sentinel_fraction\":%.4f}",
                  i == 0 ? "" : ",", budgets[i],
                  label_run->SentinelFraction());
    label_sweep += row;
    std::snprintf(row, sizeof(row),
                  "%s{\"deadline_ms\":%.0f,\"shed_rate\":%.4f}",
                  i == 0 ? "" : ",", budgets[i], deadline_run->ShedRate());
    deadline_sweep += row;
  }
  label_sweep += "]";
  deadline_sweep += "]";

  manifest.AddInt("chaos_seed", static_cast<int64_t>(main_config.seed))
      .AddInt("ticks", static_cast<int64_t>(main_config.ticks))
      .AddInt("kills", static_cast<int64_t>(soak->kills))
      .AddInt("max_concurrent_sites", soak->max_concurrent_sites)
      .AddDouble("request_deadline_ms", main_config.request_deadline_ms)
      .AddDouble("label_budget_ms_per_batch",
                 main_config.label_budget_ms_per_batch)
      .AddInt("items_offered", static_cast<int64_t>(soak->items_offered))
      .AddInt("items_applied", static_cast<int64_t>(soak->items_applied))
      .AddInt("items_quarantined",
              static_cast<int64_t>(soak->items_quarantined))
      .AddInt("labels_budget_expired",
              static_cast<int64_t>(soak->labels_budget_expired))
      .AddDouble("sentinel_fraction", soak->SentinelFraction())
      .AddInt("requests", static_cast<int64_t>(soak->requests))
      .AddInt("deadline_shed", static_cast<int64_t>(soak->deadline_shed))
      .AddDouble("shed_rate", soak->ShedRate())
      .AddInt("final_generation",
              static_cast<int64_t>(soak->final_generation))
      .AddString("final_digest",
                 [&] {
                   char buf[32];
                   std::snprintf(buf, sizeof(buf), "%016" PRIx64,
                                 soak->final_digest);
                   return std::string(buf);
                 }())
      .AddBool("replay_bit_identical", replay_identical)
      .AddBool("workers_bit_identical", workers_identical)
      .AddRaw("label_budget_sweep", label_sweep)
      .AddRaw("deadline_sweep", deadline_sweep)
      .AddRaw("chaos_schedule", schedule->ToJson())
      .AddDouble("wall_seconds", timer.ElapsedSeconds())
      .AddMetricsSnapshot();
  AUTOCE_CHECK(manifest.WriteTo("BENCH_soak.json"));
  std::printf("# done in %.1fs -> BENCH_soak.json\n", timer.ElapsedSeconds());
  return 0;
}

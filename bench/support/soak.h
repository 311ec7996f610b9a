#ifndef AUTOCE_BENCH_SUPPORT_SOAK_H_
#define AUTOCE_BENCH_SUPPORT_SOAK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bench/support/chaos.h"
#include "util/result.h"
#include "util/status.h"

namespace autoce::adapt {

/// Configuration of one deterministic soak run (DESIGN.md §5.12): N
/// simulated serving windows ("ticks") of serve + adapt over one
/// snapshot store, driven by a seeded chaos schedule that arms fault
/// sites per phase and schedules kill/restart cycles at tick starts.
struct SoakConfig {
  /// Drives everything: the fitted corpus, the feed stream, the chaos
  /// schedule, and every fault decision.
  uint64_t seed = 42;
  /// Simulated serving windows. Each tick serves a request burst,
  /// offers fresh feedback, and drains the adaptation queue.
  uint64_t ticks = 24;
  /// Fresh OOD datasets offered to the feedback queue per tick.
  std::size_t items_per_tick = 2;
  /// Recommendation requests served per tick.
  std::size_t requests_per_tick = 4;

  /// Arms the chaos schedule's fault sites. The "unarmed replay"
  /// determinism check keeps this TRUE and only disables kills: fault
  /// decisions are content-keyed, so the same faults fire either way.
  bool arm_faults = true;
  /// Runs the schedule's kill/restart cycles (teardown + reopen from
  /// the durable store at tick start). False = unarmed replay.
  bool arm_kills = true;

  /// Adaptation labeling workers (the multi-worker determinism sweep).
  int num_workers = 1;
  /// Per-request serve deadline on the SIMULATED clock (0 = off). Every
  /// clock observation consumes 5 simulated ms, so budget tightness is
  /// a pure function of the schedule.
  double request_deadline_ms = 0.0;
  /// Per-batch labeling budget on the SIMULATED clock (0 = off).
  double label_budget_ms_per_batch = 0.0;

  /// Dynamic-data drive (DESIGN.md §5.14): when positive, the feedback
  /// stream comes from a persistent dataset pool that drifts under the
  /// dyn mutation stream at this intensity — each tick applies
  /// `drift_epochs_per_tick` epochs to every pool member and offers
  /// the drifted copies. 0 keeps the classic fresh-dataset feed (and
  /// the seed-compatible digests tests pin).
  double drift_intensity = 0.0;
  /// Mutation epochs applied to the drift pool per tick.
  uint64_t drift_epochs_per_tick = 1;

  /// Chaos shape; `seed` above overrides its seed and the driver fills
  /// `site_pool` with the serve/adapt/snapshot sites when empty.
  util::ChaosScheduleConfig chaos;

  /// Snapshot store directory. A store with no durable generation is
  /// set up in place (a small fitted advisor); an existing store is
  /// resumed — which is how a kill/restart cycle reopens.
  std::string store_dir;
};

/// One tick's observable outcome.
struct SoakTickRow {
  uint64_t tick = 0;
  bool killed = false;        ///< a kill/restart cycle ran at tick start
  std::string fault_spec;     ///< chaos arming active during the tick
  uint64_t generation = 0;    ///< durable generation after the tick
  uint64_t applied = 0;       ///< items trained + committed this tick
  uint64_t sentinel = 0;      ///< degraded labels this tick
  uint64_t shed = 0;          ///< requests shed this tick
  uint64_t deadline_shed = 0; ///< subset shed by expired deadlines
};

/// Aggregate result of a soak run. All counters are totals across the
/// run (summed across restarts — restarted pipelines start fresh
/// in-memory stats).
struct SoakReport {
  uint64_t final_digest = 0;      ///< trainer model digest at the end
  uint64_t final_generation = 0;  ///< durable MANIFEST generation
  bool ended_durable = false;     ///< MANIFEST readable at the end
  uint64_t kills = 0;
  int max_concurrent_sites = 0;

  uint64_t items_offered = 0;
  uint64_t items_applied = 0;
  uint64_t items_deduped = 0;
  uint64_t items_quarantined = 0;
  uint64_t labels_ok = 0;
  uint64_t labels_sentinel = 0;
  uint64_t labels_budget_expired = 0;
  uint64_t commit_failures = 0;

  uint64_t requests = 0;
  uint64_t shed = 0;
  uint64_t deadline_shed = 0;
  uint64_t drift_epochs = 0;  ///< mutation epochs applied to the pool

  std::vector<SoakTickRow> ticks;

  /// Fraction of labeled items that degraded to the sentinel label.
  double SentinelFraction() const {
    uint64_t labeled = labels_ok + labels_sentinel;
    return labeled == 0 ? 0.0
                        : static_cast<double>(labels_sentinel) /
                              static_cast<double>(labeled);
  }
  /// Fraction of requests shed (overload, faults, or deadlines).
  double ShedRate() const {
    return requests == 0 ? 0.0
                         : static_cast<double>(shed) /
                               static_cast<double>(requests);
  }
};

/// \brief Runs the soak and enforces its standing invariants.
///
/// Returns InternalError naming the violated invariant and tick if any
/// of these break mid-run:
///
///   1. generation monotonicity — the durable generation never
///      decreases, across faults, rollbacks, and kill/restart cycles;
///   2. no stuck queue — every tick's DrainAll leaves the queue empty;
///   3. bounded degradation — the cumulative sentinel fraction stays
///      below 90% (labeling faults are retried, so a healthy loop
///      labels most items even under heavy chaos);
///
/// and on success the run ended on a durable generation
/// (`ended_durable`). Determinism contract: two runs with the same
/// config land on the same `final_digest` bit for bit; disabling
/// `arm_kills` alone (the unarmed replay) must too, because kill
/// cycles happen at tick starts with a drained queue — the item
/// stream and every content-keyed fault decision are identical.
Result<SoakReport> RunSoak(const SoakConfig& config);

}  // namespace autoce::adapt

#endif  // AUTOCE_BENCH_SUPPORT_SOAK_H_

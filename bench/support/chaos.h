#ifndef AUTOCE_BENCH_SUPPORT_CHAOS_H_
#define AUTOCE_BENCH_SUPPORT_CHAOS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/result.h"
#include "util/status.h"

namespace autoce::util {

/// \brief One armed fault site inside a chaos phase.
struct ChaosArm {
  std::string site;    ///< A registered `fault_sites::` name.
  double probability;  ///< Per-decision fire probability in (0, 1].
};

/// \brief A contiguous run of driver ticks with a fixed fault arming.
///
/// Within a phase the fault configuration is constant, so every
/// decision made during the phase is a pure function of (fault seed,
/// site, caller key) — replaying the phase replays its faults.
struct ChaosPhase {
  uint64_t first_tick = 0;  ///< Inclusive.
  uint64_t last_tick = 0;   ///< Inclusive.
  std::vector<ChaosArm> arms;

  /// `site:prob,...` spec for `util::Faults().Configure`; empty when
  /// the phase arms nothing (a calm phase).
  std::string Spec() const;
};

/// Configuration for `GenerateChaosSchedule`.
struct ChaosScheduleConfig {
  uint64_t seed = 42;       ///< Drives every schedule decision.
  uint64_t ticks = 24;      ///< Total driver ticks covered.
  uint64_t phase_ticks = 4; ///< Nominal phase length (>= 1).
  /// Fault sites the generator may arm. Empty = error.
  std::vector<std::string> site_pool;
  /// Sites armed concurrently per stormy phase, inclusive bounds.
  int min_concurrent_sites = 1;
  int max_concurrent_sites = 3;
  /// Per-site probability range sampled per arming.
  double min_probability = 0.1;
  double max_probability = 0.6;
  /// Fraction of phases that are calm (no site armed).
  double calm_fraction = 0.25;
  /// Number of kill/restart events scattered over the schedule (each
  /// lands on a distinct tick boundary).
  int kill_events = 2;
};

/// \brief A deterministic multi-fault, time-varying chaos scenario.
///
/// The schedule is a pure function of its config (seeded `Rng`, no
/// wall-clock): the same config always yields the same phases, arms,
/// and kill ticks — the precondition for the soak harness's
/// "unarmed replay reproduces bit-identical results" invariant.
struct ChaosSchedule {
  uint64_t seed = 0;
  uint64_t ticks = 0;
  std::vector<ChaosPhase> phases;
  /// Ticks at whose START the driver simulates a kill + restart cycle
  /// (teardown + reopen from the durable store), ascending.
  std::vector<uint64_t> kill_ticks;

  /// Fault spec active at `tick` (empty = calm / out of range).
  std::string SpecForTick(uint64_t tick) const;

  /// Whether the driver should run a kill/restart cycle before `tick`.
  bool KillAtTick(uint64_t tick) const;

  /// Maximum number of sites armed concurrently in any phase.
  int MaxConcurrentSites() const;

  /// One human-readable line per phase + the kill ticks.
  std::string Describe() const;

  /// Machine-readable rendering for manifests / BENCH_*.json.
  std::string ToJson() const;
};

/// Generates the schedule; rejects invalid configs (empty site pool,
/// inverted bounds, probabilities outside (0, 1]).
Result<ChaosSchedule> GenerateChaosSchedule(const ChaosScheduleConfig& config);

}  // namespace autoce::util

#endif  // AUTOCE_BENCH_SUPPORT_CHAOS_H_

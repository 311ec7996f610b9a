#include "bench/support/chaos.h"

#include <algorithm>
#include <cstdio>

#include "util/rng.h"

namespace autoce::util {

namespace {

std::string FormatProb(double p) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4f", p);
  return buf;
}

}  // namespace

std::string ChaosPhase::Spec() const {
  std::string spec;
  for (const auto& arm : arms) {
    if (!spec.empty()) spec += ",";
    spec += arm.site + ":" + FormatProb(arm.probability);
  }
  return spec;
}

std::string ChaosSchedule::SpecForTick(uint64_t tick) const {
  for (const auto& phase : phases) {
    if (tick >= phase.first_tick && tick <= phase.last_tick) {
      return phase.Spec();
    }
  }
  return "";
}

bool ChaosSchedule::KillAtTick(uint64_t tick) const {
  return std::find(kill_ticks.begin(), kill_ticks.end(), tick) !=
         kill_ticks.end();
}

int ChaosSchedule::MaxConcurrentSites() const {
  int most = 0;
  for (const auto& phase : phases) {
    most = std::max(most, static_cast<int>(phase.arms.size()));
  }
  return most;
}

std::string ChaosSchedule::Describe() const {
  std::string out;
  char line[160];
  std::snprintf(line, sizeof(line), "chaos schedule seed=%llu ticks=%llu\n",
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(ticks));
  out += line;
  for (const auto& phase : phases) {
    std::snprintf(line, sizeof(line), "  ticks %llu-%llu: %s\n",
                  static_cast<unsigned long long>(phase.first_tick),
                  static_cast<unsigned long long>(phase.last_tick),
                  phase.arms.empty() ? "(calm)" : phase.Spec().c_str());
    out += line;
  }
  out += "  kill ticks:";
  if (kill_ticks.empty()) out += " (none)";
  for (uint64_t t : kill_ticks) {
    std::snprintf(line, sizeof(line), " %llu",
                  static_cast<unsigned long long>(t));
    out += line;
  }
  out += "\n";
  return out;
}

std::string ChaosSchedule::ToJson() const {
  std::string out = "{";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "\"seed\": %llu, \"ticks\": %llu, ",
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(ticks));
  out += buf;
  out += "\"phases\": [";
  for (size_t i = 0; i < phases.size(); ++i) {
    if (i > 0) out += ", ";
    std::snprintf(buf, sizeof(buf), "{\"first\": %llu, \"last\": %llu, ",
                  static_cast<unsigned long long>(phases[i].first_tick),
                  static_cast<unsigned long long>(phases[i].last_tick));
    out += buf;
    out += "\"spec\": \"" + phases[i].Spec() + "\"}";
  }
  out += "], \"kill_ticks\": [";
  for (size_t i = 0; i < kill_ticks.size(); ++i) {
    if (i > 0) out += ", ";
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(kill_ticks[i]));
    out += buf;
  }
  out += "]}";
  return out;
}

Result<ChaosSchedule> GenerateChaosSchedule(
    const ChaosScheduleConfig& config) {
  if (config.site_pool.empty()) {
    return Status::InvalidArgument("chaos site pool must not be empty");
  }
  if (config.ticks == 0) {
    return Status::InvalidArgument("chaos schedule needs ticks >= 1");
  }
  if (config.phase_ticks == 0) {
    return Status::InvalidArgument("chaos phase length must be >= 1");
  }
  if (config.min_concurrent_sites < 1 ||
      config.max_concurrent_sites < config.min_concurrent_sites) {
    return Status::InvalidArgument("bad concurrent-site bounds");
  }
  if (config.min_probability <= 0.0 || config.max_probability > 1.0 ||
      config.max_probability < config.min_probability) {
    return Status::InvalidArgument(
        "chaos probabilities must satisfy 0 < min <= max <= 1");
  }
  if (config.calm_fraction < 0.0 || config.calm_fraction > 1.0) {
    return Status::InvalidArgument("calm_fraction must be in [0, 1]");
  }
  if (config.kill_events < 0 ||
      static_cast<uint64_t>(config.kill_events) > config.ticks) {
    return Status::InvalidArgument("kill_events must be in [0, ticks]");
  }

  ChaosSchedule schedule;
  schedule.seed = config.seed;
  schedule.ticks = config.ticks;

  // The whole schedule flows from one forked Rng per concern, so adding
  // a new decision to one concern never perturbs the others.
  Rng root(config.seed);
  Rng phase_rng = root.Fork(0x70686173ULL);  // "phas"
  Rng kill_rng = root.Fork(0x6B696C6CULL);   // "kill"

  const int pool_size = static_cast<int>(config.site_pool.size());
  const int max_sites = std::min(config.max_concurrent_sites, pool_size);
  const int min_sites = std::min(config.min_concurrent_sites, max_sites);
  for (uint64_t first = 0; first < config.ticks;
       first += config.phase_ticks) {
    ChaosPhase phase;
    phase.first_tick = first;
    phase.last_tick =
        std::min(first + config.phase_ticks - 1, config.ticks - 1);
    if (!phase_rng.Bernoulli(config.calm_fraction)) {
      int n_sites = static_cast<int>(
          phase_rng.UniformInt(min_sites, max_sites));
      auto picks = phase_rng.SampleWithoutReplacement(pool_size, n_sites);
      std::sort(picks.begin(), picks.end());  // stable spec ordering
      for (int64_t idx : picks) {
        ChaosArm arm;
        arm.site = config.site_pool[static_cast<size_t>(idx)];
        arm.probability = phase_rng.Uniform(config.min_probability,
                                            config.max_probability);
        phase.arms.push_back(std::move(arm));
      }
    }
    schedule.phases.push_back(std::move(phase));
  }

  // Kill ticks: distinct ticks > 0 (a kill before the first tick would
  // just restart an empty run), sampled without replacement.
  if (config.kill_events > 0 && config.ticks > 1) {
    int64_t n = static_cast<int64_t>(config.ticks) - 1;
    int64_t k = std::min<int64_t>(config.kill_events, n);
    auto picks = kill_rng.SampleWithoutReplacement(n, k);
    for (int64_t p : picks) {
      schedule.kill_ticks.push_back(static_cast<uint64_t>(p) + 1);
    }
    std::sort(schedule.kill_ticks.begin(), schedule.kill_ticks.end());
  }
  return schedule;
}

}  // namespace autoce::util

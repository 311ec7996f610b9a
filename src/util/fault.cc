#include "util/fault.h"

#include <cstdlib>

#include "obs/metrics.h"
#include "util/hash.h"
#include "util/rng.h"

namespace autoce::util {

namespace {

constexpr std::array<const char*, 18> kAllSites = {
    fault_sites::kCsvRow,          fault_sites::kTestbedTrain,
    fault_sites::kTestbedEstimate, fault_sites::kNnLoss,
    fault_sites::kDmlLoss,         fault_sites::kDmlGrad,
    fault_sites::kFitSample,       fault_sites::kRecommendEmbed,
    fault_sites::kServeAdmission,  fault_sites::kServeReload,
    fault_sites::kAdaptEnqueue,    fault_sites::kAdaptLabel,
    fault_sites::kAdaptTrain,      fault_sites::kAdaptCommit,
    fault_sites::kSnapshotWrite,   fault_sites::kSnapshotManifest,
    fault_sites::kFssLookup,       fault_sites::kFssCommit,
};
static_assert(kAllSites.size() <= FaultRegistry::kMaxSites);

}  // namespace

namespace internal {
constinit FaultRegistry g_faults(kAllSites);
}  // namespace internal

namespace {
// Arms the registry from the environment before main(): FaultPoint
// reads only the armed flag, so a process driven by AUTOCE_FAULTS alone
// (no Configure call) would otherwise never inject.
const bool g_faults_from_env =
    (Faults().ConfigureFromEnv("AUTOCE_FAULTS", "AUTOCE_FAULT_SEED"), true);
}  // namespace

std::span<const char* const> AllFaultSites() {
  return {kAllSites.data(), kAllSites.size()};
}

uint64_t FaultKeyMix(uint64_t a, uint64_t b) {
  return SplitMix64(a ^ (b * 0x9E3779B97F4A7C15ULL));
}

uint64_t FaultKeyFromDoubles(const double* data, std::size_t n) {
  uint64_t h = SplitMix64(n);
  // Sample up to 16 evenly spaced elements so huge tensors stay cheap.
  std::size_t stride = n > 16 ? n / 16 : 1;
  for (std::size_t i = 0; i < n; i += stride) {
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(double));
    __builtin_memcpy(&bits, &data[i], sizeof(bits));
    h = FaultKeyMix(h, bits);
  }
  return h;
}

int FaultRegistry::IndexOf(std::string_view site) const {
  for (std::size_t i = 0; i < sites_.size(); ++i) {
    if (site == sites_[i]) return static_cast<int>(i);
  }
  return -1;
}

Status FaultRegistry::Configure(const std::string& spec, uint64_t seed) {
  uint32_t configured = 0;
  std::array<double, kMaxSites> probability{};
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    std::string entry = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (entry.empty()) continue;
    std::string site = entry;
    double p = 1.0;
    std::size_t colon = entry.find(':');
    if (colon != std::string::npos) {
      site = entry.substr(0, colon);
      char* end = nullptr;
      const std::string p_str = entry.substr(colon + 1);
      p = std::strtod(p_str.c_str(), &end);
      if (end == p_str.c_str() || *end != '\0' || p < 0.0 || p > 1.0) {
        return Status::InvalidArgument("bad fault probability in entry: " +
                                       entry);
      }
    }
    if (site == "*") {
      for (std::size_t i = 0; i < sites_.size(); ++i) {
        configured |= 1u << i;
        probability[i] = p;
      }
    } else if (int i = IndexOf(site); i >= 0) {
      configured |= 1u << i;
      probability[static_cast<std::size_t>(i)] = p;
    } else {
      return Status::InvalidArgument("unknown fault site: " + site);
    }
  }

  std::lock_guard<std::mutex> lock(mu_);
  configured_ = configured;
  probability_ = probability;
  fires_ = {};
  seed_ = seed;
  armed_.store(configured != 0, std::memory_order_relaxed);
  return Status::OK();
}

void FaultRegistry::ConfigureFromEnv(const char* spec_var,
                                     const char* seed_var) {
  const char* spec = std::getenv(spec_var);
  if (spec == nullptr || spec[0] == '\0') return;
  uint64_t seed = 42;
  if (const char* s = std::getenv(seed_var)) {
    char* end = nullptr;
    unsigned long long v = std::strtoull(s, &end, 10);
    if (end != s && *end == '\0') seed = v;
  }
  (void)Configure(spec, seed);
}

void FaultRegistry::Disable() {
  std::lock_guard<std::mutex> lock(mu_);
  configured_ = 0;
  fires_ = {};
  armed_.store(false, std::memory_order_relaxed);
}

bool FaultRegistry::Decide(const char* site, uint64_t key) {
  const int i = IndexOf(site);
  if (i < 0) return false;
  const auto at = static_cast<std::size_t>(i);
  double p;
  uint64_t seed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if ((configured_ & (1u << at)) == 0) return false;
    p = probability_[at];
    seed = seed_;
  }
  // Pure decision: an Rng seeded from (seed, site, key) alone, so the
  // outcome is independent of call order and thread count.
  Rng decision(FaultKeyMix(seed ^ Fnv1a(std::string_view(site)), key));
  bool fire = p >= 1.0 || decision.Uniform() < p;
  if (fire) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++fires_[at];
    }
    if (obs::MetricsEnabled()) {
      obs::MetricsRegistry::Instance()
          .GetCounter("fault.trips", {{"site", site}})
          ->Add();
    }
  }
  return fire;
}

int64_t FaultRegistry::FireCount(const std::string& site) const {
  const int i = IndexOf(site);
  if (i < 0) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  return fires_[static_cast<std::size_t>(i)];
}

void FaultRegistry::ResetCounts() {
  std::lock_guard<std::mutex> lock(mu_);
  fires_ = {};
}

}  // namespace autoce::util

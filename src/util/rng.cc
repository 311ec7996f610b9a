#include "util/rng.h"

#include <cassert>
#include <cmath>
#include <unordered_set>

#include "util/hash.h"

namespace autoce {

namespace {

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  for (auto& s : s_) {
    s = util::SplitMix64(seed);
    seed += 0x9E3779B97F4A7C15ULL;
  }
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(s_[0] + s_[3], 23) + s_[0];
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::Uniform() {
  // 53 random mantissa bits -> double in [0, 1).
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  assert(lo <= hi);
  uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<int64_t>(Next());  // full 64-bit range
  // Rejection sampling to avoid modulo bias.
  uint64_t limit = UINT64_MAX - UINT64_MAX % span;
  uint64_t r;
  do {
    r = Next();
  } while (r >= limit);
  return lo + static_cast<int64_t>(r % span);
}

double Rng::Gaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u1, u2;
  do {
    u1 = Uniform();
  } while (u1 <= 1e-300);
  u2 = Uniform();
  double mag = std::sqrt(-2.0 * std::log(u1));
  cached_gaussian_ = mag * std::sin(2.0 * M_PI * u2);
  has_cached_gaussian_ = true;
  return mag * std::cos(2.0 * M_PI * u2);
}

double Rng::ParetoSkewed(double skew, double v_min, double v_max) {
  assert(v_max >= v_min);
  if (skew <= 1e-9) return Uniform(v_min, v_max);
  // Bounded Pareto-style power law matching the behavioral contract of the
  // paper's Eq. 1: density f(x) proportional to x^(-skew) on normalized
  // x in (0, 1]. skew = 0 is exactly uniform; as skew -> 1 the density
  // diverges at x = 0 (most values small, long tail toward v_max), i.e.
  // the classic Pareto shape truncated to the domain. Inverse CDF:
  // x = u^(1 / (1 - skew)).
  double a = std::min(skew, 0.99);
  double p = 1.0 / (1.0 - a);
  double x = std::pow(Uniform(), p);
  return v_min + x * (v_max - v_min);
}

bool Rng::Bernoulli(double p) { return Uniform() < p; }

double Rng::Gamma(double shape) {
  if (shape < 1.0) {
    // Boost to shape+1 and correct (Marsaglia-Tsang trick).
    double u = Uniform();
    while (u <= 1e-300) u = Uniform();
    return Gamma(shape + 1.0) * std::pow(u, 1.0 / shape);
  }
  double d = shape - 1.0 / 3.0;
  double c = 1.0 / std::sqrt(9.0 * d);
  while (true) {
    double x = Gaussian();
    double v = 1.0 + c * x;
    if (v <= 0.0) continue;
    v = v * v * v;
    double u = Uniform();
    if (u < 1.0 - 0.0331 * x * x * x * x) return d * v;
    if (std::log(std::max(u, 1e-300)) <
        0.5 * x * x + d * (1.0 - v + std::log(v))) {
      return d * v;
    }
  }
}

double Rng::Beta(double alpha, double beta) {
  double x = Gamma(alpha);
  double y = Gamma(beta);
  if (x + y <= 0.0) return 0.5;
  return x / (x + y);
}

std::vector<int64_t> Rng::SampleWithoutReplacement(int64_t n, int64_t k) {
  assert(k <= n);
  if (k > n / 2) {
    // Dense path: shuffle identity and take prefix.
    std::vector<int64_t> idx(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) idx[static_cast<size_t>(i)] = i;
    Shuffle(&idx);
    idx.resize(static_cast<size_t>(k));
    return idx;
  }
  std::unordered_set<int64_t> seen;
  std::vector<int64_t> out;
  out.reserve(static_cast<size_t>(k));
  while (static_cast<int64_t>(out.size()) < k) {
    int64_t v = UniformInt(0, n - 1);
    if (seen.insert(v).second) out.push_back(v);
  }
  return out;
}

Rng Rng::Fork(uint64_t label) {
  uint64_t seed = Next() ^ (label * 0x9E3779B97F4A7C15ULL);
  return Rng(seed);
}

Rng::State Rng::SaveState() const {
  State state;
  for (int i = 0; i < 4; ++i) state.s[static_cast<size_t>(i)] = s_[i];
  state.has_cached_gaussian = has_cached_gaussian_;
  state.cached_gaussian = cached_gaussian_;
  return state;
}

void Rng::RestoreState(const State& state) {
  for (int i = 0; i < 4; ++i) s_[i] = state.s[static_cast<size_t>(i)];
  has_cached_gaussian_ = state.has_cached_gaussian;
  cached_gaussian_ = state.cached_gaussian;
}

}  // namespace autoce

#ifndef AUTOCE_UTIL_RNG_H_
#define AUTOCE_UTIL_RNG_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace autoce {

/// \brief Deterministic pseudo-random number generator (xoshiro256++).
///
/// Every stochastic component in AutoCE (dataset generation, model
/// initialization, sampling-based estimators, Mixup) draws from an explicit
/// `Rng` so that experiments are reproducible bit-for-bit across runs.
class Rng {
 public:
  /// Seeds the generator with splitmix64-expanded state.
  explicit Rng(uint64_t seed = 42);

  /// Next raw 64-bit value.
  uint64_t Next();

  /// Uniform double in [0, 1).
  double Uniform();

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Standard normal via Box-Muller.
  double Gaussian();

  /// Pareto-style skewed sample per the paper's Eq. 1: returns a value in
  /// [v_min, v_max]. skew = 0 degenerates to uniform; larger skew
  /// concentrates mass near v_min.
  double ParetoSkewed(double skew, double v_min, double v_max);

  /// Bernoulli trial with success probability p.
  bool Bernoulli(double p);

  /// Samples from a Beta(alpha, beta) distribution (used by Mixup).
  double Beta(double alpha, double beta);

  /// In-place Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    if (v->empty()) return;
    for (std::size_t i = v->size() - 1; i > 0; --i) {
      std::size_t j =
          static_cast<std::size_t>(UniformInt(0, static_cast<int64_t>(i)));
      std::swap((*v)[i], (*v)[j]);
    }
  }

  /// Samples k distinct indices from [0, n) without replacement.
  std::vector<int64_t> SampleWithoutReplacement(int64_t n, int64_t k);

  /// Forks a child generator with an independent stream; deterministic in
  /// (parent state, label).
  Rng Fork(uint64_t label);

  /// \brief The complete generator state — the "RNG cursor" persisted by
  /// crash-safe snapshots. Restoring it resumes the stream exactly
  /// where SaveState left it (including the cached Box-Muller value).
  struct State {
    std::array<uint64_t, 4> s{};
    bool has_cached_gaussian = false;
    double cached_gaussian = 0.0;
  };

  State SaveState() const;
  void RestoreState(const State& state);

 private:
  /// Gamma(shape, 1) sampler (Marsaglia-Tsang); helper for Beta.
  double Gamma(double shape);

  uint64_t s_[4];
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace autoce

#endif  // AUTOCE_UTIL_RNG_H_

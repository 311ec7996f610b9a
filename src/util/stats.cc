#include "util/stats.h"

#include <algorithm>
#include <cmath>

namespace autoce {
namespace stats {

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

template <typename T>
Moments MomentsOf(const std::vector<T>& v) {
  Moments out;
  if (v.empty()) return out;
  const double n = static_cast<double>(v.size());
  double sum = 0.0;
  T lo = v[0], hi = v[0];
  for (T x : v) {
    sum += static_cast<double>(x);
    lo = std::min(lo, x);
    hi = std::max(hi, x);
  }
  out.mean = sum / n;
  out.min = static_cast<double>(lo);
  out.max = static_cast<double>(hi);
  if (v.size() < 2) return out;

  const double m = out.mean;
  double ss = 0.0;
  for (T x : v) {
    const double d = static_cast<double>(x) - m;
    ss += d * d;
  }
  const double sd = std::sqrt(ss / n);
  out.stddev = sd;
  if (v.size() < 3 || sd < 1e-12) return out;

  double s3 = 0.0, s4 = 0.0;
  for (T x : v) {
    const double z = (static_cast<double>(x) - m) / sd;
    const double z3 = z * z * z;
    s3 += z3;
    s4 += z3 * z;
  }
  out.skewness = s3 / n;
  if (v.size() >= 4) out.kurtosis = s4 / n - 3.0;
  return out;
}

template Moments MomentsOf(const std::vector<int32_t>& v);
template Moments MomentsOf(const std::vector<double>& v);

double PearsonCorrelation(const std::vector<double>& a,
                          const std::vector<double>& b) {
  if (a.size() != b.size() || a.size() < 2) return 0.0;
  double ma = Mean(a), mb = Mean(b);
  double cov = 0.0, va = 0.0, vb = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    double da = a[i] - ma, db = b[i] - mb;
    cov += da * db;
    va += da * da;
    vb += db * db;
  }
  if (va < 1e-12 || vb < 1e-12) return 0.0;
  return cov / std::sqrt(va * vb);
}

double PositionalMatchRatio(const std::vector<int32_t>& a,
                            const std::vector<int32_t>& b) {
  if (a.size() != b.size() || a.empty()) return 0.0;
  size_t matches = 0;
  for (size_t i = 0; i < a.size(); ++i) matches += a[i] == b[i];
  return static_cast<double>(matches) / static_cast<double>(a.size());
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  std::sort(v.begin(), v.end());
  double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

double Min(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return *std::min_element(v.begin(), v.end());
}

double Max(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return *std::max_element(v.begin(), v.end());
}

double GeometricMean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += std::log(std::max(x, 1e-300));
  return std::exp(s / static_cast<double>(v.size()));
}

}  // namespace stats
}  // namespace autoce

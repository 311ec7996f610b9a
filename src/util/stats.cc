#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <numeric>

#include "util/logging.h"
#include "util/simd.h"

namespace autoce {
namespace stats {

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

namespace {

namespace simd = util::simd;

/// Sweeps 2 and 3 of one column whose mean is already in `out`: the
/// scalar order that each lane of the column-lane kernels repeats.
template <typename T>
void FinishMoments(const T* x, size_t size, Moments* out) {
  if (size < 2) return;
  const double n = static_cast<double>(size);
  const double m = out->mean;
  double ss = 0.0;
  for (size_t i = 0; i < size; ++i) {
    const double d = static_cast<double>(x[i]) - m;
    ss += d * d;
  }
  const double sd = std::sqrt(ss / n);
  out->stddev = sd;
  if (size < 3 || sd < 1e-12) return;

  double s3 = 0.0, s4 = 0.0;
  for (size_t i = 0; i < size; ++i) {
    const double z = (static_cast<double>(x[i]) - m) / sd;
    const double z3 = z * z * z;
    s3 += z3;
    s4 += z3 * z;
  }
  out->skewness = s3 / n;
  if (size >= 4) out->kurtosis = s4 / n - 3.0;
}

/// Mean, min and max of a non-empty code column. The int64 sum equals
/// the left-to-right double sum when size * max(|min|, |max|) <= 2^53:
/// every partial sum is then an integer of magnitude <= 2^53, which a
/// double holds exactly. Past that bound the double chain runs.
void SumMoments(std::span<const int32_t> x, Moments* out) {
  int64_t sum = 0;
  int32_t lo = 0, hi = 0;
  simd::SumMinMaxI32(x.data(), x.size(), &sum, &lo, &hi);
  const uint64_t max_abs = static_cast<uint64_t>(
      std::max(std::abs(int64_t{lo}), std::abs(int64_t{hi})));
  double total = static_cast<double>(sum);
  if (max_abs != 0 && x.size() > (uint64_t{1} << 53) / max_abs) {
    total = 0.0;
    for (int32_t v : x) total += static_cast<double>(v);
  }
  out->mean = total / static_cast<double>(x.size());
  out->min = static_cast<double>(lo);
  out->max = static_cast<double>(hi);
}

/// Moments of 1..kColumnLanes columns of one length `size`,
/// columns[idx[j]] into out[idx[j]].
void MomentsOfBlock(std::span<const std::span<const int32_t>> columns,
                    std::span<const size_t> idx, size_t size,
                    std::span<Moments> out) {
  for (size_t c : idx) {
    out[c] = Moments{};
    if (size > 0) SumMoments(columns[c], &out[c]);
  }
  if (size < 2) return;
  if (idx.size() == 1) {
    // One column: the scalar sweeps. A four-lane kernel with three
    // idle lanes would be slower.
    FinishMoments(columns[idx[0]].data(), size, &out[idx[0]]);
    return;
  }

  // Unused lanes repeat column idx[0]; their results are dropped.
  const int32_t* cols[simd::kColumnLanes];
  double mean[simd::kColumnLanes], ss[simd::kColumnLanes];
  for (size_t j = 0; j < simd::kColumnLanes; ++j) {
    const size_t c = idx[j < idx.size() ? j : 0];
    cols[j] = columns[c].data();
    mean[j] = out[c].mean;
  }
  simd::ColumnLaneSquaredDeviations(cols, size, mean, ss);

  const double n = static_cast<double>(size);
  double sd[simd::kColumnLanes];
  bool any_spread = false;
  for (size_t j = 0; j < simd::kColumnLanes; ++j) {
    sd[j] = std::sqrt(ss[j] / n);
    if (j < idx.size()) out[idx[j]].stddev = sd[j];
    any_spread |= sd[j] >= 1e-12;
  }
  if (size < 3 || !any_spread) return;

  // A lane with sd < 1e-12 divides by 1 instead and its sums are
  // dropped, as the scalar path skips them.
  double sd_or_one[simd::kColumnLanes], s3[simd::kColumnLanes],
      s4[simd::kColumnLanes];
  for (size_t j = 0; j < simd::kColumnLanes; ++j) {
    sd_or_one[j] = sd[j] < 1e-12 ? 1.0 : sd[j];
  }
  simd::ColumnLaneStandardizedPowers(cols, size, mean, sd_or_one, s3, s4);
  for (size_t j = 0; j < idx.size(); ++j) {
    if (sd[j] < 1e-12) continue;
    Moments& mo = out[idx[j]];
    mo.skewness = s3[j] / n;
    if (size >= 4) mo.kurtosis = s4[j] / n - 3.0;
  }
}

}  // namespace

template <typename T>
Moments MomentsOf(const std::vector<T>& v) {
  Moments out;
  if (v.empty()) return out;
  double sum = 0.0;
  T lo = v[0], hi = v[0];
  for (T x : v) {
    sum += static_cast<double>(x);
    lo = std::min(lo, x);
    hi = std::max(hi, x);
  }
  out.mean = sum / static_cast<double>(v.size());
  out.min = static_cast<double>(lo);
  out.max = static_cast<double>(hi);
  FinishMoments(v.data(), v.size(), &out);
  return out;
}

template Moments MomentsOf(const std::vector<double>& v);

void MomentsOfColumns(std::span<const std::span<const int32_t>> columns,
                      std::span<Moments> out) {
  AUTOCE_CHECK(out.size() == columns.size());
  // Equal lengths become adjacent (in column order within a length), so
  // no block mixes lengths and reads past a short column.
  std::vector<size_t> order(columns.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return columns[a].size() < columns[b].size();
  });
  for (size_t begin = 0; begin < order.size();) {
    const size_t size = columns[order[begin]].size();
    size_t end = begin + 1;
    while (end < order.size() && end - begin < simd::kColumnLanes &&
           columns[order[end]].size() == size) {
      ++end;
    }
    MomentsOfBlock(columns, std::span(order).subspan(begin, end - begin),
                   size, out);
    begin = end;
  }
}

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
  const size_t matches = simd::CountEqualI32(a.data(), b.data(), a.size());
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

double Max(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return *std::max_element(v.begin(), v.end());
}

}  // namespace stats
}  // namespace autoce

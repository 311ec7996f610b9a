#ifndef AUTOCE_UTIL_STATS_H_
#define AUTOCE_UTIL_STATS_H_

#include <cstdint>
#include <span>
#include <vector>

namespace autoce {

/// \brief Descriptive statistics over numeric sequences.
///
/// These are the primitives behind both the feature-extraction stage
/// (skewness, kurtosis, correlation of columns; paper Sec. V-A) and the
/// score aggregation of the CE testbed (mean Q-error, percentiles).
namespace stats {

/// Arithmetic mean; 0 for empty input.
double Mean(const std::vector<double>& v);

/// Moments and extremes of one sequence (see MomentsOf).
struct Moments {
  double mean = 0.0;      ///< arithmetic mean; 0 for empty input
  double stddev = 0.0;    ///< population stddev; 0 for fewer than 2 elements
  double skewness = 0.0;  ///< Fisher-Pearson g1; 0 when undefined
  double kurtosis = 0.0;  ///< excess kurtosis g2; 0 when undefined
  double min = 0.0;       ///< smallest element; 0 for empty input
  double max = 0.0;       ///< largest element; 0 for empty input
};

/// All of `Moments` in three sweeps: sum and extremes, squared
/// deviations, then z^3 and z^4 together. Every element is converted to
/// double before any arithmetic and each sum runs left to right.
/// Skewness needs 3 elements, kurtosis 4, and both are 0 when
/// stddev < 1e-12. Instantiated for `double` only: the scalar reference
/// that `MomentsOfColumns` matches bit for bit.
template <typename T>
Moments MomentsOf(const std::vector<T>& v);

/// `out[c]` = the moments of int32 code column `columns[c]`, the same
/// bits as `MomentsOf<double>` over the codes widened to double.
/// Equal-length columns run four at a time, one per lane of the
/// column-lane kernels (util/simd.h); the columns may differ in length.
void MomentsOfColumns(std::span<const std::span<const int32_t>> columns,
                      std::span<Moments> out);

/// Pearson correlation coefficient; 0 when either side is constant.
double PearsonCorrelation(const std::vector<double>& a,
                          const std::vector<double>& b);

/// Fraction of positions where a[i] == b[i] (the paper's positional
/// column-correlation notion, the inverse of generation step F2).
double PositionalMatchRatio(const std::vector<int32_t>& a,
                            const std::vector<int32_t>& b);

/// p-th percentile (p in [0, 100]) with linear interpolation. Copies and
/// sorts internally; 0 for empty input.
double Percentile(std::vector<double> v, double p);

/// Largest element; 0 for empty input.
double Max(const std::vector<double>& v);

}  // namespace stats
}  // namespace autoce

#endif  // AUTOCE_UTIL_STATS_H_

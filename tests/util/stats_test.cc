#include "util/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "util/rng.h"
#include "util/simd.h"

namespace autoce {
namespace {

TEST(StatsTest, MeanBasic) {
  EXPECT_DOUBLE_EQ(stats::Mean({1, 2, 3, 4}), 2.5);
  EXPECT_DOUBLE_EQ(stats::Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(stats::Mean({-5}), -5.0);
}

TEST(StatsTest, StdDevBasic) {
  EXPECT_DOUBLE_EQ(stats::MomentsOf<double>({2, 2, 2}).stddev, 0.0);
  EXPECT_NEAR(stats::MomentsOf<double>({1, 2, 3, 4}).stddev, std::sqrt(1.25),
              1e-12);
  EXPECT_DOUBLE_EQ(stats::MomentsOf<double>({7}).stddev, 0.0);
}

TEST(StatsTest, SkewnessSymmetricIsZero) {
  EXPECT_NEAR(stats::MomentsOf<double>({1, 2, 3, 4, 5}).skewness, 0.0, 1e-12);
}

TEST(StatsTest, SkewnessRightTailPositive) {
  std::vector<double> v{1, 1, 1, 1, 10};
  EXPECT_GT(stats::MomentsOf(v).skewness, 0.5);
}

TEST(StatsTest, SkewnessConstantIsZero) {
  EXPECT_DOUBLE_EQ(stats::MomentsOf<double>({3, 3, 3, 3}).skewness, 0.0);
}

TEST(StatsTest, KurtosisHeavyTails) {
  // A distribution with an extreme outlier has positive excess kurtosis.
  std::vector<double> heavy{0, 0, 0, 0, 0, 0, 0, 0, 0, 100};
  EXPECT_GT(stats::MomentsOf(heavy).kurtosis, 1.0);
  EXPECT_DOUBLE_EQ(stats::MomentsOf<double>({5, 5, 5, 5}).kurtosis, 0.0);
}

TEST(StatsTest, MomentsGuardsBySize) {
  // Skewness needs 3 elements and kurtosis 4; below that they read 0.
  stats::Moments two = stats::MomentsOf<double>({1, 5});
  EXPECT_DOUBLE_EQ(two.mean, 3.0);
  EXPECT_DOUBLE_EQ(two.stddev, 2.0);
  EXPECT_DOUBLE_EQ(two.skewness, 0.0);
  EXPECT_DOUBLE_EQ(two.kurtosis, 0.0);
  stats::Moments three = stats::MomentsOf<double>({1, 1, 10});
  EXPECT_GT(three.skewness, 0.5);
  EXPECT_DOUBLE_EQ(three.kurtosis, 0.0);
  stats::Moments empty = stats::MomentsOf(std::vector<double>{});
  EXPECT_DOUBLE_EQ(empty.mean, 0.0);
  EXPECT_DOUBLE_EQ(empty.stddev, 0.0);
}

TEST(StatsTest, MomentsOfCodesMatchDoublesBitForBit) {
  // Feature extraction reads int32 codes in place; every moment must be
  // the same bits as over the codes widened to double.
  std::vector<int32_t> codes;
  for (int i = 0; i < 997; ++i) codes.push_back((i * 7919) % 1013 - 300);
  std::vector<double> wide(codes.begin(), codes.end());
  const std::span<const int32_t> column(codes);
  stats::Moments a;
  stats::MomentsOfColumns({&column, 1}, {&a, 1});
  stats::Moments b = stats::MomentsOf(wide);
  for (auto field : {&stats::Moments::mean, &stats::Moments::stddev,
                     &stats::Moments::skewness, &stats::Moments::kurtosis,
                     &stats::Moments::min, &stats::Moments::max}) {
    EXPECT_EQ(std::memcmp(&(a.*field), &(b.*field), sizeof(double)), 0);
  }
}

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// MomentsOfColumns over `columns` at every available SIMD level; each
/// column's moments must be the bits of MomentsOf<double> over it.
void ExpectColumnsMatchReference(const std::vector<std::vector<int32_t>>& columns,
                                 const std::string& what) {
  std::vector<stats::Moments> want;
  for (const auto& column : columns) {
    want.push_back(
        stats::MomentsOf(std::vector<double>(column.begin(), column.end())));
  }
  const std::vector<std::span<const int32_t>> spans(columns.begin(),
                                                    columns.end());
  const util::simd::Level prev = util::simd::ActiveLevel();
  for (util::simd::Level level :
       {util::simd::Level::kScalar, util::simd::Level::kAvx2}) {
    if (!util::simd::SetActiveLevel(level)) continue;
    std::vector<stats::Moments> got(columns.size());
    stats::MomentsOfColumns(spans, got);
    for (size_t c = 0; c < columns.size(); ++c) {
      for (auto field : {&stats::Moments::mean, &stats::Moments::stddev,
                         &stats::Moments::skewness, &stats::Moments::kurtosis,
                         &stats::Moments::min, &stats::Moments::max}) {
        EXPECT_EQ(Bits(got[c].*field), Bits(want[c].*field))
            << what << " column " << c << " level "
            << util::simd::LevelName(level);
      }
    }
  }
  ASSERT_TRUE(util::simd::SetActiveLevel(prev));
}

TEST(StatsTest, MomentsOfColumnsMatchScalarReferenceBitForBit) {
  Rng rng(17);
  auto column = [&](size_t n, int kind) {
    std::vector<int32_t> v(n);
    for (size_t i = 0; i < n; ++i) {
      switch (kind % 4) {
        case 0:  // constant: sd < 1e-12 in this lane only
          v[i] = 42;
          break;
        case 1:  // small codes
          v[i] = static_cast<int32_t>(rng.UniformInt(1, 30));
          break;
        case 2:  // skewed wide codes
          v[i] = 1 + static_cast<int32_t>(std::pow(rng.Uniform(), 3) * 30000);
          break;
        default:  // any int32, extremes included
          v[i] = i % 5 == 0   ? INT32_MIN
                 : i % 5 == 1 ? INT32_MAX
                              : static_cast<int32_t>(rng.UniformInt(
                                    INT32_MIN, INT32_MAX));
      }
    }
    return v;
  };
  // Blocks of 1-4 columns and more than 4, at every guard of n.
  for (size_t n : {0, 1, 2, 3, 4, 5, 17, 600}) {
    for (int width = 1; width <= 9; ++width) {
      std::vector<std::vector<int32_t>> columns;
      for (int c = 0; c < width; ++c) columns.push_back(column(n, c + width));
      ExpectColumnsMatchReference(
          columns, "n=" + std::to_string(n) + " width=" + std::to_string(width));
    }
  }
  // Lengths interleaved: no block may mix them.
  std::vector<std::vector<int32_t>> mixed;
  for (size_t n : {5, 3, 5, 5, 3, 0, 5, 5, 1, 3}) mixed.push_back(column(n, 2));
  ExpectColumnsMatchReference(mixed, "mixed lengths");
}

TEST(StatsTest, MomentsOfColumnsKeepTheDoubleSumPastTwoToThe53) {
  // size * max|code| <= 2^53 keeps every partial sum exact, so the int64
  // sum stands in for the double chain; past the bound the chain rounds
  // and must run. Each case shares its block with a small-code column.
  const size_t at_bound = size_t{1} << 22;  // 2^22 * 2^31 = 2^53
  std::vector<std::vector<int32_t>> exact = {
      std::vector<int32_t>(at_bound, INT32_MIN), std::vector<int32_t>(at_bound)};
  for (size_t i = 0; i < at_bound; ++i) exact[1][i] = static_cast<int32_t>(i % 7);
  ExpectColumnsMatchReference(exact, "at the bound");

  const size_t past = at_bound + 2;
  std::vector<std::vector<int32_t>> rounded = {
      std::vector<int32_t>(past, INT32_MAX), std::vector<int32_t>(past)};
  for (size_t i = 0; i < past; ++i) rounded[1][i] = static_cast<int32_t>(i % 7);
  // The chain really rounds here: the exact sum gives another mean.
  const double exact_mean = static_cast<double>(int64_t{INT32_MAX} *
                                                static_cast<int64_t>(past)) /
                            static_cast<double>(past);
  const std::vector<double> wide(rounded[0].begin(), rounded[0].end());
  ASSERT_NE(Bits(exact_mean), Bits(stats::MomentsOf(wide).mean));
  ExpectColumnsMatchReference(rounded, "past the bound");
}

TEST(StatsTest, PearsonPerfectCorrelation) {
  std::vector<double> a{1, 2, 3, 4};
  std::vector<double> b{2, 4, 6, 8};
  EXPECT_NEAR(stats::PearsonCorrelation(a, b), 1.0, 1e-12);
  std::vector<double> c{8, 6, 4, 2};
  EXPECT_NEAR(stats::PearsonCorrelation(a, c), -1.0, 1e-12);
}

TEST(StatsTest, PearsonConstantSideIsZero) {
  std::vector<double> a{1, 2, 3, 4};
  std::vector<double> b{5, 5, 5, 5};
  EXPECT_DOUBLE_EQ(stats::PearsonCorrelation(a, b), 0.0);
}

TEST(StatsTest, PearsonSizeMismatchIsZero) {
  EXPECT_DOUBLE_EQ(stats::PearsonCorrelation({1, 2}, {1, 2, 3}), 0.0);
}

TEST(StatsTest, PositionalMatchRatio) {
  std::vector<int32_t> a{1, 2, 3, 4};
  std::vector<int32_t> b{1, 2, 9, 4};
  EXPECT_DOUBLE_EQ(stats::PositionalMatchRatio(a, b), 0.75);
  EXPECT_DOUBLE_EQ(stats::PositionalMatchRatio(a, a), 1.0);
  EXPECT_DOUBLE_EQ(stats::PositionalMatchRatio({}, {}), 0.0);
}

TEST(StatsTest, PercentileInterpolates) {
  std::vector<double> v{10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(stats::Percentile(v, 0), 10.0);
  EXPECT_DOUBLE_EQ(stats::Percentile(v, 100), 40.0);
  EXPECT_DOUBLE_EQ(stats::Percentile(v, 50), 25.0);
  EXPECT_DOUBLE_EQ(stats::Percentile({5}, 99), 5.0);
}

TEST(StatsTest, PercentileUnsortedInput) {
  std::vector<double> v{40, 10, 30, 20};
  EXPECT_DOUBLE_EQ(stats::Percentile(v, 50), 25.0);
}

TEST(StatsTest, PercentileEmptyIsZero) {
  EXPECT_DOUBLE_EQ(stats::Percentile({}, 0), 0.0);
  EXPECT_DOUBLE_EQ(stats::Percentile({}, 50), 0.0);
  EXPECT_DOUBLE_EQ(stats::Percentile({}, 100), 0.0);
}

TEST(StatsTest, PercentileSingleSampleIsThatSample) {
  for (double p : {0.0, 1.0, 50.0, 99.0, 100.0}) {
    EXPECT_DOUBLE_EQ(stats::Percentile({42}, p), 42.0);
  }
}

TEST(StatsTest, PercentileDuplicateHeavy) {
  // All duplicates: every percentile is the repeated value.
  std::vector<double> same{5, 5, 5, 5, 5, 5};
  EXPECT_DOUBLE_EQ(stats::Percentile(same, 1), 5.0);
  EXPECT_DOUBLE_EQ(stats::Percentile(same, 50), 5.0);
  EXPECT_DOUBLE_EQ(stats::Percentile(same, 99), 5.0);
  // One outlier among duplicates only surfaces at the top of the range.
  std::vector<double> outlier{1, 1, 1, 1, 1, 1, 1, 1, 1, 100};
  EXPECT_DOUBLE_EQ(stats::Percentile(outlier, 50), 1.0);
  EXPECT_GT(stats::Percentile(outlier, 95), 1.0);
  EXPECT_DOUBLE_EQ(stats::Percentile(outlier, 100), 100.0);
}

TEST(StatsTest, PercentileClampsOutOfRangeP) {
  std::vector<double> v{10, 20, 30};
  EXPECT_DOUBLE_EQ(stats::Percentile(v, -5), 10.0);
  EXPECT_DOUBLE_EQ(stats::Percentile(v, 250), 30.0);
}

TEST(StatsTest, Max) {
  std::vector<double> v{3, -1, 7, 2};
  EXPECT_DOUBLE_EQ(stats::Max(v), 7.0);
  EXPECT_DOUBLE_EQ(stats::Max({}), 0.0);
}

}  // namespace
}  // namespace autoce

#include "util/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

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
  stats::Moments a = stats::MomentsOf(codes);
  stats::Moments b = stats::MomentsOf(wide);
  for (auto field : {&stats::Moments::mean, &stats::Moments::stddev,
                     &stats::Moments::skewness, &stats::Moments::kurtosis,
                     &stats::Moments::min, &stats::Moments::max}) {
    EXPECT_EQ(std::memcmp(&(a.*field), &(b.*field), sizeof(double)), 0);
  }
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

TEST(StatsTest, MinMax) {
  std::vector<double> v{3, -1, 7, 2};
  EXPECT_DOUBLE_EQ(stats::Min(v), -1.0);
  EXPECT_DOUBLE_EQ(stats::Max(v), 7.0);
  EXPECT_DOUBLE_EQ(stats::Min({}), 0.0);
  EXPECT_DOUBLE_EQ(stats::Max({}), 0.0);
}

TEST(StatsTest, GeometricMean) {
  EXPECT_NEAR(stats::GeometricMean({1, 100}), 10.0, 1e-9);
  EXPECT_NEAR(stats::GeometricMean({4, 4, 4}), 4.0, 1e-9);
}

}  // namespace
}  // namespace autoce

#include "util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "util/stats.h"

namespace autoce {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 4);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformMeanNearHalf) {
  Rng rng(11);
  std::vector<double> xs(20000);
  for (auto& x : xs) x = rng.Uniform();
  EXPECT_NEAR(stats::Mean(xs), 0.5, 0.02);
}

TEST(RngTest, UniformIntCoversInclusiveRange) {
  Rng rng(5);
  std::set<int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.UniformInt(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, UniformIntSingleton) {
  Rng rng(5);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.UniformInt(42, 42), 42);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(13);
  std::vector<double> xs(40000);
  for (auto& x : xs) x = rng.Gaussian();
  EXPECT_NEAR(stats::Mean(xs), 0.0, 0.03);
  EXPECT_NEAR(stats::MomentsOf(xs).stddev, 1.0, 0.03);
}

TEST(RngTest, ParetoSkewZeroIsUniform) {
  Rng rng(17);
  std::vector<double> xs(20000);
  for (auto& x : xs) x = rng.ParetoSkewed(0.0, 0.0, 1.0);
  EXPECT_NEAR(stats::Mean(xs), 0.5, 0.02);
  // Uniform has skewness ~ 0.
  EXPECT_NEAR(stats::MomentsOf(xs).skewness, 0.0, 0.1);
}

TEST(RngTest, ParetoSkewIncreasesWithParameter) {
  Rng rng(19);
  auto sample_skew = [&](double skew) {
    std::vector<double> xs(20000);
    for (auto& x : xs) x = rng.ParetoSkewed(skew, 0.0, 1.0);
    return stats::MomentsOf(xs).skewness;
  };
  double s_low = sample_skew(0.2);
  double s_high = sample_skew(0.9);
  EXPECT_GT(s_high, s_low);
  EXPECT_GT(s_high, 0.5);  // strongly skewed
}

TEST(RngTest, ParetoRespectsBounds) {
  Rng rng(23);
  for (double skew : {0.0, 0.3, 0.7, 1.0}) {
    for (int i = 0; i < 1000; ++i) {
      double v = rng.ParetoSkewed(skew, 10.0, 20.0);
      EXPECT_GE(v, 10.0);
      EXPECT_LE(v, 20.0);
    }
  }
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(29);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(RngTest, BetaInUnitIntervalWithCorrectMean) {
  Rng rng(31);
  std::vector<double> xs(20000);
  for (auto& x : xs) {
    x = rng.Beta(2.0, 5.0);
    EXPECT_GE(x, 0.0);
    EXPECT_LE(x, 1.0);
  }
  // Beta(2,5) mean = 2/7.
  EXPECT_NEAR(stats::Mean(xs), 2.0 / 7.0, 0.02);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(41);
  for (int trial = 0; trial < 20; ++trial) {
    auto idx = rng.SampleWithoutReplacement(100, 30);
    ASSERT_EQ(idx.size(), 30u);
    std::set<int64_t> s(idx.begin(), idx.end());
    EXPECT_EQ(s.size(), 30u);
    for (int64_t v : idx) {
      EXPECT_GE(v, 0);
      EXPECT_LT(v, 100);
    }
  }
}

TEST(RngTest, SampleWithoutReplacementFull) {
  Rng rng(43);
  auto idx = rng.SampleWithoutReplacement(10, 10);
  std::sort(idx.begin(), idx.end());
  for (int i = 0; i < 10; ++i) EXPECT_EQ(idx[static_cast<size_t>(i)], i);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(47);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, ForkProducesIndependentStreams) {
  Rng parent(53);
  Rng c1 = parent.Fork(1);
  Rng c2 = parent.Fork(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (c1.Next() == c2.Next());
  EXPECT_LT(same, 4);
}

}  // namespace
}  // namespace autoce

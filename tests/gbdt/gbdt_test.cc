#include "gbdt/gbdt.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/rng.h"

namespace autoce::gbdt {
namespace {

TEST(RegressionTreeTest, FitsConstantTarget) {
  std::vector<std::vector<double>> x{{0}, {1}, {2}, {3}};
  std::vector<double> y{5, 5, 5, 5};
  RegressionTree tree;
  GbdtParams p;
  tree.Fit(x, y, {0, 1, 2, 3}, p);
  EXPECT_DOUBLE_EQ(tree.Predict({1.5}), 5.0);
  EXPECT_EQ(tree.NumNodes(), 1u);  // pure node, no split
}

TEST(RegressionTreeTest, LearnsStepFunction) {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  std::vector<int> rows;
  for (int i = 0; i < 100; ++i) {
    x.push_back({static_cast<double>(i)});
    y.push_back(i < 50 ? 1.0 : 9.0);
    rows.push_back(i);
  }
  RegressionTree tree;
  GbdtParams p;
  p.max_depth = 3;
  tree.Fit(x, y, rows, p);
  EXPECT_NEAR(tree.Predict({10}), 1.0, 0.2);
  EXPECT_NEAR(tree.Predict({90}), 9.0, 0.2);
}

TEST(RegressionTreeTest, MultiFeatureSplitPicksInformative) {
  // Feature 0 is noise; feature 1 determines target.
  Rng rng(3);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  std::vector<int> rows;
  for (int i = 0; i < 200; ++i) {
    double noise = rng.Uniform();
    double signal = rng.Uniform();
    x.push_back({noise, signal});
    y.push_back(signal > 0.5 ? 10.0 : -10.0);
    rows.push_back(i);
  }
  RegressionTree tree;
  GbdtParams p;
  p.max_depth = 2;
  tree.Fit(x, y, rows, p);
  EXPECT_GT(tree.Predict({0.5, 0.9}), 5.0);
  EXPECT_LT(tree.Predict({0.5, 0.1}), -5.0);
}

TEST(GradientBoostingTest, EmptyInputSafe) {
  GradientBoosting gb;
  gb.Fit({}, {});
  EXPECT_DOUBLE_EQ(gb.Predict({1.0}), 0.0);
}

TEST(GradientBoostingTest, FitsLinearFunction) {
  Rng rng(7);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 400; ++i) {
    double v = rng.Uniform(0, 10);
    x.push_back({v});
    y.push_back(3.0 * v + 1.0);
  }
  GbdtParams p;
  p.num_trees = 60;
  p.max_depth = 4;
  GradientBoosting gb(p);
  gb.Fit(x, y);
  double mae = 0;
  for (int i = 0; i < 50; ++i) {
    double v = rng.Uniform(0.5, 9.5);
    mae += std::abs(gb.Predict({v}) - (3.0 * v + 1.0));
  }
  mae /= 50;
  EXPECT_LT(mae, 0.8);
}

TEST(GradientBoostingTest, FitsInteraction) {
  Rng rng(11);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 600; ++i) {
    double a = rng.Uniform(), b = rng.Uniform();
    x.push_back({a, b});
    y.push_back((a > 0.5) == (b > 0.5) ? 4.0 : -4.0);  // XOR-like
  }
  GbdtParams p;
  p.num_trees = 60;
  p.max_depth = 4;
  GradientBoosting gb(p);
  gb.Fit(x, y);
  EXPECT_GT(gb.Predict({0.9, 0.9}), 2.0);
  EXPECT_GT(gb.Predict({0.1, 0.1}), 2.0);
  EXPECT_LT(gb.Predict({0.9, 0.1}), -2.0);
  EXPECT_LT(gb.Predict({0.1, 0.9}), -2.0);
}

TEST(GradientBoostingTest, DeterministicForSeed) {
  Rng rng(17);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 100; ++i) {
    double v = rng.Uniform();
    x.push_back({v});
    y.push_back(v * v);
  }
  GradientBoosting a, b;
  a.Fit(x, y);
  b.Fit(x, y);
  for (double q : {0.1, 0.5, 0.9}) {
    EXPECT_DOUBLE_EQ(a.Predict({q}), b.Predict({q}));
  }
}

TEST(GradientBoostingTest, MoreTreesReduceTrainError) {
  Rng rng(19);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 300; ++i) {
    double v = rng.Uniform(0, 2 * M_PI);
    x.push_back({v});
    y.push_back(std::sin(v));
  }
  auto train_mse = [&](int trees) {
    GbdtParams p;
    p.num_trees = trees;
    GradientBoosting gb(p);
    gb.Fit(x, y);
    double mse = 0;
    for (size_t i = 0; i < x.size(); ++i) {
      double d = gb.Predict(x[i]) - y[i];
      mse += d * d;
    }
    return mse / static_cast<double>(x.size());
  };
  EXPECT_LT(train_mse(40), train_mse(5));
}

}  // namespace
}  // namespace autoce::gbdt

#include "nn/layers.h"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "nn/loss.h"
#include "nn/optimizer.h"

namespace autoce::nn {
namespace {

// Central-difference numerical gradient of a scalar function of a matrix
// entry; used to validate the hand-written backprop.
double NumericalGrad(Matrix* param, size_t idx,
                     const std::function<double()>& loss_fn) {
  const double eps = 1e-6;
  double orig = param->data()[idx];
  param->data()[idx] = orig + eps;
  double up = loss_fn();
  param->data()[idx] = orig - eps;
  double down = loss_fn();
  param->data()[idx] = orig;
  return (up - down) / (2.0 * eps);
}

TEST(LinearTest, ForwardComputesAffine) {
  Rng rng(1);
  Linear lin(2, 2, &rng);
  // Overwrite weights deterministically.
  (*lin.weight()) = Matrix::FromRows({{1, 2}, {3, 4}});
  (*lin.bias()) = Matrix::FromRows({{10, 20}});
  Matrix x = Matrix::FromRows({{1, 1}});
  Matrix y = lin.Forward(x);
  EXPECT_DOUBLE_EQ(y(0, 0), 14.0);  // 1*1 + 1*3 + 10
  EXPECT_DOUBLE_EQ(y(0, 1), 26.0);  // 1*2 + 1*4 + 20
}

TEST(LinearTest, GradientsMatchNumerical) {
  Rng rng(7);
  Linear lin(3, 2, &rng);
  Matrix x = Matrix::Xavier(4, 3, &rng);
  Matrix target = Matrix::Xavier(4, 2, &rng);

  auto loss_fn = [&]() {
    return MseLoss(lin.Forward(x), target).loss;
  };

  lin.ZeroGrad();
  Matrix pred = lin.Forward(x);
  auto loss = MseLoss(pred, target);
  Matrix gx = lin.Backward(x, loss.grad);

  // Weight gradients.
  for (size_t i = 0; i < lin.weight()->size(); ++i) {
    double num = NumericalGrad(lin.weight(), i, loss_fn);
    EXPECT_NEAR(lin.weight_grad()->data()[i], num, 1e-5);
  }
  // Bias gradients.
  for (size_t i = 0; i < lin.bias()->size(); ++i) {
    double num = NumericalGrad(lin.bias(), i, loss_fn);
    EXPECT_NEAR(lin.bias_grad()->data()[i], num, 1e-5);
  }
  // Input gradients.
  for (size_t i = 0; i < x.size(); ++i) {
    double num = NumericalGrad(&x, i, loss_fn);
    EXPECT_NEAR(gx.data()[i], num, 1e-5);
  }
}

TEST(ActivationTest, ReluForwardBackward) {
  Matrix pre = Matrix::FromRows({{-1, 0, 2}});
  Matrix out = ApplyActivation(Activation::kRelu, pre);
  EXPECT_DOUBLE_EQ(out(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(out(0, 2), 2.0);
  Matrix g = Matrix::FromRows({{1, 1, 1}});
  ActivationBackwardInPlace(Activation::kRelu, pre, &g);
  EXPECT_DOUBLE_EQ(g(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(g(0, 2), 1.0);
}

TEST(ActivationTest, SigmoidRange) {
  Matrix pre = Matrix::FromRows({{-100, 0, 100}});
  Matrix out = ApplyActivation(Activation::kSigmoid, pre);
  EXPECT_NEAR(out(0, 0), 0.0, 1e-12);
  EXPECT_DOUBLE_EQ(out(0, 1), 0.5);
  EXPECT_NEAR(out(0, 2), 1.0, 1e-12);
}

class MlpGradParamTest : public ::testing::TestWithParam<Activation> {};

TEST_P(MlpGradParamTest, MlpGradientsMatchNumerical) {
  Activation act = GetParam();
  Rng rng(11);
  Mlp mlp({3, 5, 4, 2}, act, Activation::kIdentity, &rng);
  Matrix x = Matrix::Xavier(3, 3, &rng);
  Matrix target = Matrix::Xavier(3, 2, &rng);

  auto loss_fn = [&]() { return MseLoss(mlp.Forward(x), target).loss; };

  mlp.ZeroGrad();
  MlpTrace trace;
  Matrix pred = mlp.Forward(x, &trace);
  auto loss = MseLoss(pred, target);
  Matrix gx = mlp.Backward(trace, loss.grad);

  auto params = mlp.Params();
  auto grads = mlp.Grads();
  ASSERT_EQ(params.size(), grads.size());
  for (size_t p = 0; p < params.size(); ++p) {
    for (size_t i = 0; i < params[p]->size(); ++i) {
      double num = NumericalGrad(params[p], i, loss_fn);
      EXPECT_NEAR(grads[p]->data()[i], num, 2e-5)
          << "param " << p << " index " << i;
    }
  }
  for (size_t i = 0; i < x.size(); ++i) {
    double num = NumericalGrad(&x, i, loss_fn);
    EXPECT_NEAR(gx.data()[i], num, 2e-5);
  }
}

INSTANTIATE_TEST_SUITE_P(AllActivations, MlpGradParamTest,
                         ::testing::Values(Activation::kRelu,
                                           Activation::kSigmoid,
                                           Activation::kTanh,
                                           Activation::kIdentity));

TEST(MlpTest, GradAccumulationAcrossTraces) {
  // Two forward passes with separate traces must allow two backward passes
  // whose gradients accumulate (the pattern used by the GIN batch trainer).
  Rng rng(13);
  Mlp mlp({2, 3, 1}, Activation::kRelu, Activation::kIdentity, &rng);
  Matrix x1 = Matrix::FromRows({{0.5, -0.2}});
  Matrix x2 = Matrix::FromRows({{-0.1, 0.9}});
  Matrix t1 = Matrix::FromRows({{1.0}});
  Matrix t2 = Matrix::FromRows({{-1.0}});

  mlp.ZeroGrad();
  MlpTrace tr1, tr2;
  Matrix p1 = mlp.Forward(x1, &tr1);
  Matrix p2 = mlp.Forward(x2, &tr2);
  mlp.Backward(tr1, MseLoss(p1, t1).grad);
  mlp.Backward(tr2, MseLoss(p2, t2).grad);
  auto grads_batched = mlp.Grads();
  std::vector<Matrix> snapshot;
  for (auto* g : grads_batched) snapshot.push_back(*g);

  // Sequential: grad(x1) then zero then grad(x2), summed manually.
  mlp.ZeroGrad();
  MlpTrace tr;
  Matrix q1 = mlp.Forward(x1, &tr);
  mlp.Backward(tr, MseLoss(q1, t1).grad);
  std::vector<Matrix> g_first;
  for (auto* g : mlp.Grads()) g_first.push_back(*g);
  mlp.ZeroGrad();
  Matrix q2 = mlp.Forward(x2, &tr);
  mlp.Backward(tr, MseLoss(q2, t2).grad);
  auto g_second = mlp.Grads();

  for (size_t p = 0; p < snapshot.size(); ++p) {
    for (size_t i = 0; i < snapshot[p].size(); ++i) {
      EXPECT_NEAR(snapshot[p].data()[i],
                  g_first[p].data()[i] + g_second[p]->data()[i], 1e-12);
    }
  }
}

TEST(MlpTest, TrainsXor) {
  Rng rng(17);
  Mlp mlp({2, 8, 1}, Activation::kTanh, Activation::kIdentity, &rng);
  Matrix x = Matrix::FromRows({{0, 0}, {0, 1}, {1, 0}, {1, 1}});
  Matrix y = Matrix::FromRows({{0}, {1}, {1}, {0}});
  Adam opt(mlp.Params(), mlp.Grads(), 0.05);
  for (int epoch = 0; epoch < 500; ++epoch) {
    mlp.ZeroGrad();
    MlpTrace trace;
    Matrix pred = mlp.Forward(x, &trace);
    auto loss = MseLoss(pred, y);
    mlp.Backward(trace, loss.grad);
    opt.Step();
  }
  Matrix pred = mlp.Forward(x);
  EXPECT_LT(std::abs(pred(0, 0) - 0.0), 0.15);
  EXPECT_LT(std::abs(pred(1, 0) - 1.0), 0.15);
  EXPECT_LT(std::abs(pred(2, 0) - 1.0), 0.15);
  EXPECT_LT(std::abs(pred(3, 0) - 0.0), 0.15);
}

TEST(MlpTest, NumParameters) {
  Rng rng(19);
  Mlp mlp({3, 5, 2}, Activation::kRelu, Activation::kIdentity, &rng);
  // (3*5 + 5) + (5*2 + 2) = 20 + 12 = 32.
  size_t scalars = 0;
  for (const Matrix* p : mlp.Params()) scalars += p->size();
  EXPECT_EQ(scalars, 32u);
}

}  // namespace
}  // namespace autoce::nn

#include "nn/layers.h"

#include <cmath>

#include "util/simd.h"

namespace autoce::nn {

Matrix ApplyActivation(Activation act, const Matrix& pre) {
  Matrix out = pre;
  switch (act) {
    case Activation::kIdentity:
      break;
    case Activation::kRelu:
      util::simd::ReluInPlace(out.data(), out.size());
      break;
    case Activation::kSigmoid:
      for (size_t i = 0; i < out.size(); ++i) {
        out.data()[i] = 1.0 / (1.0 + std::exp(-out.data()[i]));
      }
      break;
    case Activation::kTanh:
      for (size_t i = 0; i < out.size(); ++i) {
        out.data()[i] = std::tanh(out.data()[i]);
      }
      break;
  }
  return out;
}

void ActivationBackwardInPlace(Activation act, const Matrix& pre,
                               Matrix* grad) {
  AUTOCE_CHECK(grad->SameShape(pre));
  switch (act) {
    case Activation::kIdentity:
      break;
    case Activation::kRelu:
      util::simd::ReluBackward(pre.data(), grad->data(), grad->size());
      break;
    case Activation::kSigmoid:
      for (size_t i = 0; i < grad->size(); ++i) {
        double s = 1.0 / (1.0 + std::exp(-pre.data()[i]));
        grad->data()[i] *= s * (1.0 - s);
      }
      break;
    case Activation::kTanh:
      for (size_t i = 0; i < grad->size(); ++i) {
        double t = std::tanh(pre.data()[i]);
        grad->data()[i] *= 1.0 - t * t;
      }
      break;
  }
}

Linear::Linear(size_t in, size_t out, Rng* rng)
    : w_(Matrix::Xavier(in, out, rng)),
      b_(1, out, 0.0),
      gw_(in, out, 0.0),
      gb_(1, out, 0.0) {}

Matrix Linear::Forward(const Matrix& x) const {
  AUTOCE_CHECK(x.cols() == w_.rows());
  Matrix out = x.MatMul(w_);
  out.AddRowBroadcast(b_);
  return out;
}

Matrix Linear::Backward(const Matrix& x, const Matrix& g_out) {
  AUTOCE_CHECK(x.rows() == g_out.rows());
  AUTOCE_CHECK(g_out.cols() == w_.cols());
  gw_.AddInPlace(x.TransposeMatMul(g_out));
  gb_.AddInPlace(g_out.ColSum());
  return g_out.MatMulTranspose(w_);
}

void Linear::ZeroGrad() {
  gw_.Zero();
  gb_.Zero();
}

Mlp::Mlp(const std::vector<size_t>& dims, Activation hidden_act,
         Activation output_act, Rng* rng)
    : hidden_act_(hidden_act), output_act_(output_act) {
  AUTOCE_CHECK(dims.size() >= 2);
  layers_.reserve(dims.size() - 1);
  for (size_t i = 0; i + 1 < dims.size(); ++i) {
    layers_.emplace_back(dims[i], dims[i + 1], rng);
  }
}

Matrix Mlp::Forward(const Matrix& x, MlpTrace* trace) const {
  if (trace != nullptr) {
    trace->layer_inputs.clear();
    trace->preacts.clear();
    trace->layer_inputs.reserve(layers_.size());
    trace->preacts.reserve(layers_.size());
  }
  Matrix h = x;
  for (size_t i = 0; i < layers_.size(); ++i) {
    if (trace != nullptr) trace->layer_inputs.push_back(h);
    Matrix pre = layers_[i].Forward(h);
    if (trace != nullptr) trace->preacts.push_back(pre);
    Activation act =
        (i + 1 == layers_.size()) ? output_act_ : hidden_act_;
    h = ApplyActivation(act, pre);
  }
  return h;
}

Matrix Mlp::Backward(const MlpTrace& trace, const Matrix& g_out) {
  AUTOCE_CHECK(trace.layer_inputs.size() == layers_.size());
  Matrix g = g_out;
  for (size_t idx = layers_.size(); idx-- > 0;) {
    Activation act =
        (idx + 1 == layers_.size()) ? output_act_ : hidden_act_;
    ActivationBackwardInPlace(act, trace.preacts[idx], &g);
    g = layers_[idx].Backward(trace.layer_inputs[idx], g);
  }
  return g;
}

void Mlp::ZeroGrad() {
  for (auto& layer : layers_) layer.ZeroGrad();
}

std::vector<Matrix*> Mlp::Params() {
  std::vector<Matrix*> out;
  for (auto& layer : layers_) {
    out.push_back(layer.weight());
    out.push_back(layer.bias());
  }
  return out;
}

std::vector<Matrix*> Mlp::Grads() {
  std::vector<Matrix*> out;
  for (auto& layer : layers_) {
    out.push_back(layer.weight_grad());
    out.push_back(layer.bias_grad());
  }
  return out;
}

}  // namespace autoce::nn

#include "nn/optimizer.h"

#include <cmath>

#include "util/logging.h"

namespace autoce::nn {

namespace {

constexpr double kBeta1 = 0.9;
constexpr double kBeta2 = 0.999;
constexpr double kEpsilon = 1e-8;

}  // namespace

void ClipGradients(const std::vector<Matrix*>& grads, double max_norm) {
  if (max_norm <= 0.0) return;
  double total = 0.0;
  for (const Matrix* g : grads) {
    double n = g->Norm();
    total += n * n;
  }
  total = std::sqrt(total);
  if (total <= max_norm || total < 1e-12) return;
  double scale = max_norm / total;
  for (Matrix* g : grads) g->ScaleInPlace(scale);
}

Adam::Adam(std::vector<Matrix*> params, std::vector<Matrix*> grads,
           double learning_rate, double clip_norm)
    : params_(std::move(params)),
      grads_(std::move(grads)),
      learning_rate_(learning_rate),
      clip_norm_(clip_norm) {
  AUTOCE_CHECK(params_.size() == grads_.size());
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const Matrix* p : params_) {
    m_.emplace_back(p->rows(), p->cols(), 0.0);
    v_.emplace_back(p->rows(), p->cols(), 0.0);
  }
}

void Adam::Step() {
  ClipGradients(grads_, clip_norm_);
  ++t_;
  double bc1 = 1.0 - std::pow(kBeta1, static_cast<double>(t_));
  double bc2 = 1.0 - std::pow(kBeta2, static_cast<double>(t_));
  for (size_t i = 0; i < params_.size(); ++i) {
    Matrix* p = params_[i];
    const Matrix* g = grads_[i];
    AUTOCE_CHECK(p->SameShape(*g));
    Matrix& m = m_[i];
    Matrix& v = v_[i];
    for (size_t j = 0; j < p->size(); ++j) {
      double gj = g->data()[j];
      m.data()[j] = kBeta1 * m.data()[j] + (1.0 - kBeta1) * gj;
      v.data()[j] = kBeta2 * v.data()[j] + (1.0 - kBeta2) * gj * gj;
      double mhat = m.data()[j] / bc1;
      double vhat = v.data()[j] / bc2;
      p->data()[j] -= learning_rate_ * mhat / (std::sqrt(vhat) + kEpsilon);
    }
  }
}

}  // namespace autoce::nn

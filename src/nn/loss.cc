#include "nn/loss.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/fault.h"
#include "util/logging.h"

namespace autoce::nn {

LossResult MseLoss(const Matrix& pred, const Matrix& target) {
  AUTOCE_CHECK(pred.SameShape(target));
  LossResult out;
  out.grad = Matrix(pred.rows(), pred.cols());
  double n = static_cast<double>(std::max<size_t>(pred.size(), 1));
  for (size_t i = 0; i < pred.size(); ++i) {
    double d = pred.data()[i] - target.data()[i];
    out.loss += d * d;
    out.grad.data()[i] = 2.0 * d / n;
  }
  out.loss /= n;
  // Fault site: simulates the numeric blow-up of a diverging model. The
  // key is content-derived (pure function of the prediction), so the
  // same batch poisons identically at any thread count.
  if (util::FaultPoint(util::fault_sites::kNnLoss,
                       util::FaultKeyFromDoubles(pred.data(), pred.size()))) {
    out.loss = std::numeric_limits<double>::quiet_NaN();
  }
  return out;
}

Matrix Softmax(const Matrix& logits) {
  Matrix out(logits.rows(), logits.cols());
  for (size_t r = 0; r < logits.rows(); ++r) {
    double mx = logits(r, 0);
    for (size_t c = 1; c < logits.cols(); ++c) mx = std::max(mx, logits(r, c));
    double sum = 0.0;
    for (size_t c = 0; c < logits.cols(); ++c) {
      out(r, c) = std::exp(logits(r, c) - mx);
      sum += out(r, c);
    }
    for (size_t c = 0; c < logits.cols(); ++c) out(r, c) /= sum;
  }
  return out;
}

LossResult SoftmaxCrossEntropyLoss(const Matrix& logits,
                                   const std::vector<size_t>& labels) {
  AUTOCE_CHECK(labels.size() == logits.rows());
  LossResult out;
  out.grad = Softmax(logits);
  double n = static_cast<double>(std::max<size_t>(logits.rows(), 1));
  for (size_t r = 0; r < logits.rows(); ++r) {
    AUTOCE_CHECK(labels[r] < logits.cols());
    double p = std::max(out.grad(r, labels[r]), 1e-300);
    out.loss -= std::log(p);
    out.grad(r, labels[r]) -= 1.0;
  }
  out.loss /= n;
  out.grad.ScaleInPlace(1.0 / n);
  return out;
}

}  // namespace autoce::nn

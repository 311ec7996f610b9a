#ifndef AUTOCE_NN_LOSS_H_
#define AUTOCE_NN_LOSS_H_

#include <cstddef>
#include <vector>

#include "nn/matrix.h"

namespace autoce::nn {

/// Loss value plus the gradient w.r.t. the prediction matrix.
struct LossResult {
  double loss = 0.0;
  Matrix grad;  // same shape as the prediction
};

/// Mean squared error, averaged over all elements.
LossResult MseLoss(const Matrix& pred, const Matrix& target);

/// Softmax cross entropy per row; `labels[r]` is the target class of row r.
LossResult SoftmaxCrossEntropyLoss(const Matrix& logits,
                                   const std::vector<size_t>& labels);

/// Row-wise softmax probabilities.
Matrix Softmax(const Matrix& logits);

}  // namespace autoce::nn

#endif  // AUTOCE_NN_LOSS_H_

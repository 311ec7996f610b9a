#ifndef AUTOCE_NN_LAYERS_H_
#define AUTOCE_NN_LAYERS_H_

#include <vector>

#include "nn/matrix.h"
#include "util/rng.h"

namespace autoce::nn {

/// \brief Pointwise nonlinearities supported by the substrate.
enum class Activation { kIdentity, kRelu, kSigmoid, kTanh };

/// Applies an activation elementwise.
Matrix ApplyActivation(Activation act, const Matrix& pre);

/// Multiplies `grad` in place by the derivative of `act` evaluated at the
/// pre-activation `pre`.
void ActivationBackwardInPlace(Activation act, const Matrix& pre,
                               Matrix* grad);

/// \brief Fully connected layer `y = x W + b` with explicit-state backprop.
///
/// The layer itself is stateless across calls: `Forward` is const and
/// `Backward` takes the cached input explicitly, so one layer instance can
/// be reused across many forward passes (e.g. shared GIN MLPs applied to
/// every vertex of every graph in a batch) before gradients are applied.
class Linear {
 public:
  /// Xavier-initialized layer mapping `in` features to `out` features.
  Linear(size_t in, size_t out, Rng* rng);

  size_t in_dim() const { return w_.rows(); }
  size_t out_dim() const { return w_.cols(); }

  /// Computes x W + b for a (batch x in) input.
  Matrix Forward(const Matrix& x) const;

  /// Accumulates parameter gradients given the layer input `x` used in the
  /// corresponding Forward call and the gradient `g_out` w.r.t. the output;
  /// returns the gradient w.r.t. the input.
  Matrix Backward(const Matrix& x, const Matrix& g_out);

  void ZeroGrad();

  Matrix* weight() { return &w_; }
  Matrix* bias() { return &b_; }
  Matrix* weight_grad() { return &gw_; }
  Matrix* bias_grad() { return &gb_; }
  const Matrix& weight() const { return w_; }

 private:
  Matrix w_;   // in x out
  Matrix b_;   // 1 x out
  Matrix gw_;  // accumulated dL/dW
  Matrix gb_;  // accumulated dL/db
};

/// Cached activations of one Mlp forward pass, consumed by Mlp::Backward.
/// Keeping the trace outside the model lets callers run many forwards
/// (one per graph / per set element) and backpropagate each later.
struct MlpTrace {
  std::vector<Matrix> layer_inputs;  // input to each linear layer
  std::vector<Matrix> preacts;       // pre-activation of each layer
};

/// \brief Multi-layer perceptron with hand-written backprop.
class Mlp {
 public:
  /// `dims` = {in, h1, ..., out}. `hidden_act` is applied after every layer
  /// except the last, which uses `output_act`.
  Mlp(const std::vector<size_t>& dims, Activation hidden_act,
      Activation output_act, Rng* rng);

  size_t input_dim() const { return layers_.front().in_dim(); }
  size_t output_dim() const { return layers_.back().out_dim(); }

  /// Forward pass; fills `trace` (required for Backward) if non-null.
  Matrix Forward(const Matrix& x, MlpTrace* trace = nullptr) const;

  /// Backpropagates `g_out` through the pass recorded in `trace`,
  /// accumulating parameter gradients; returns gradient w.r.t. the input.
  Matrix Backward(const MlpTrace& trace, const Matrix& g_out);

  void ZeroGrad();

  /// Flattened parameter / gradient views for optimizers.
  std::vector<Matrix*> Params();
  std::vector<Matrix*> Grads();

 private:
  std::vector<Linear> layers_;
  Activation hidden_act_;
  Activation output_act_;
};

}  // namespace autoce::nn

#endif  // AUTOCE_NN_LAYERS_H_

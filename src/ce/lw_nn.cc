#include "ce/lw_nn.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "nn/loss.h"
#include "nn/optimizer.h"
#include "util/rng.h"

namespace autoce::ce {

LwNnEstimator::LwNnEstimator(const ModelTrainingScale& scale)
    : scale_(scale) {}

Status LwNnEstimator::Train(const TrainContext& ctx) {
  if (ctx.dataset == nullptr || ctx.train_queries == nullptr ||
      ctx.train_cards == nullptr) {
    return Status::InvalidArgument("LW-NN requires dataset and workload");
  }
  if (ctx.train_queries->size() != ctx.train_cards->size()) {
    return Status::InvalidArgument("queries/cards size mismatch");
  }
  featurizer_ = std::make_unique<query::QueryFeaturizer>(ctx.dataset);

  Rng rng(ctx.seed);
  size_t in_dim = featurizer_->flat_dim();
  size_t h = static_cast<size_t>(scale_.hidden);
  mlp_ = std::make_unique<nn::Mlp>(
      std::vector<size_t>{in_dim, h, h / 2 > 0 ? h / 2 : 1, 1},
      nn::Activation::kRelu, nn::Activation::kIdentity, &rng);

  size_t n = ctx.train_queries->size();
  nn::Matrix x(n, in_dim);
  nn::Matrix y(n, 1);
  for (size_t i = 0; i < n; ++i) {
    x.SetRow(i, featurizer_->FlatEncode((*ctx.train_queries)[i]));
    y(i, 0) = query::LogCardinality((*ctx.train_cards)[i]);
  }

  nn::Adam opt(mlp_->Params(), mlp_->Grads(), 0.01, /*clip_norm=*/5.0);
  const size_t batch = 64;
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  for (int epoch = 0; epoch < scale_.epochs; ++epoch) {
    rng.Shuffle(&order);
    for (size_t start = 0; start < n; start += batch) {
      size_t end = std::min(start + batch, n);
      nn::Matrix xb(end - start, in_dim);
      nn::Matrix yb(end - start, 1);
      for (size_t i = start; i < end; ++i) {
        xb.SetRow(i - start, x.RowSpan(order[i]));
        yb(i - start, 0) = y(order[i], 0);
      }
      mlp_->ZeroGrad();
      nn::MlpTrace trace;
      nn::Matrix pred = mlp_->Forward(xb, &trace);
      auto loss = nn::MseLoss(pred, yb);
      // A non-finite loss means the network diverged (or a fault was
      // injected); surface it before the optimizer touches the weights
      // so the testbed can retry with a fresh seed.
      if (!std::isfinite(loss.loss)) {
        return Status::Internal("LW-NN: non-finite training loss at epoch " +
                                std::to_string(epoch));
      }
      mlp_->Backward(trace, loss.grad);
      opt.Step();
    }
  }
  return Status::OK();
}

double LwNnEstimator::EstimateCardinality(const query::Query& q) {
  if (mlp_ == nullptr) return 1.0;
  nn::Matrix x(1, featurizer_->flat_dim());
  x.SetRow(0, featurizer_->FlatEncode(q));
  nn::Matrix pred = mlp_->Forward(x);
  return query::CardinalityFromLog(pred(0, 0));
}

}  // namespace autoce::ce

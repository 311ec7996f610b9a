#include "ce/mscn.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "nn/loss.h"
#include "nn/optimizer.h"
#include "util/rng.h"

namespace autoce::ce {

namespace {

/// Average-pools the set-MLP outputs (each a 1 x h row); returns a zero
/// vector for empty sets.
std::vector<double> AveragePool(const std::vector<nn::Matrix>& outs,
                                size_t h) {
  std::vector<double> pooled(h, 0.0);
  if (outs.empty()) return pooled;
  for (const auto& o : outs) {
    for (size_t j = 0; j < h; ++j) pooled[j] += o(0, j);
  }
  for (double& v : pooled) v /= static_cast<double>(outs.size());
  return pooled;
}

}  // namespace

MscnEstimator::MscnEstimator(const ModelTrainingScale& scale)
    : scale_(scale) {}

Status MscnEstimator::Train(const TrainContext& ctx) {
  if (ctx.dataset == nullptr || ctx.train_queries == nullptr ||
      ctx.train_cards == nullptr) {
    return Status::InvalidArgument("MSCN requires dataset and workload");
  }
  if (ctx.train_queries->size() != ctx.train_cards->size()) {
    return Status::InvalidArgument("queries/cards size mismatch");
  }
  featurizer_ = std::make_unique<query::QueryFeaturizer>(ctx.dataset);

  Rng rng(ctx.seed);
  size_t h = static_cast<size_t>(scale_.hidden);
  table_mlp_ = std::make_unique<nn::Mlp>(
      std::vector<size_t>{featurizer_->table_element_dim(), h, h},
      nn::Activation::kRelu, nn::Activation::kRelu, &rng);
  join_mlp_ = std::make_unique<nn::Mlp>(
      std::vector<size_t>{featurizer_->join_element_dim(), h, h},
      nn::Activation::kRelu, nn::Activation::kRelu, &rng);
  pred_mlp_ = std::make_unique<nn::Mlp>(
      std::vector<size_t>{featurizer_->pred_element_dim(), h, h},
      nn::Activation::kRelu, nn::Activation::kRelu, &rng);
  out_mlp_ = std::make_unique<nn::Mlp>(std::vector<size_t>{3 * h, h, 1},
                                       nn::Activation::kRelu,
                                       nn::Activation::kIdentity, &rng);

  std::vector<nn::Matrix*> params, grads;
  for (nn::Mlp* m : {table_mlp_.get(), join_mlp_.get(), pred_mlp_.get(),
                     out_mlp_.get()}) {
    auto p = m->Params();
    auto g = m->Grads();
    params.insert(params.end(), p.begin(), p.end());
    grads.insert(grads.end(), g.begin(), g.end());
  }
  nn::Adam opt(params, grads, 0.005, /*clip_norm=*/5.0);

  size_t n = ctx.train_queries->size();
  std::vector<query::QueryFeaturizer::SetEncoding> encodings;
  std::vector<double> targets;
  encodings.reserve(n);
  targets.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    encodings.push_back(featurizer_->SetEncode((*ctx.train_queries)[i]));
    targets.push_back(query::LogCardinality((*ctx.train_cards)[i]));
  }

  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  const size_t batch = 32;
  for (int epoch = 0; epoch < scale_.epochs; ++epoch) {
    rng.Shuffle(&order);
    for (size_t start = 0; start < n; start += batch) {
      size_t end = std::min(start + batch, n);
      for (nn::Mlp* m : {table_mlp_.get(), join_mlp_.get(), pred_mlp_.get(),
                         out_mlp_.get()}) {
        m->ZeroGrad();
      }
      for (size_t i = start; i < end; ++i) {
        const auto& enc = encodings[order[i]];
        std::vector<nn::MlpTrace> tt, jt, pt;
        nn::MlpTrace ot;
        double pred = Forward(enc, &tt, &jt, &pt, &ot);
        // A non-finite prediction means the network diverged; surface
        // it before the optimizer step so the testbed can retry.
        if (!std::isfinite(pred)) {
          return Status::Internal("MSCN: non-finite prediction at epoch " +
                                  std::to_string(epoch));
        }
        // d/dpred of (pred - y)^2 / batch.
        double g = 2.0 * (pred - targets[order[i]]) /
                   static_cast<double>(end - start);
        Backward(enc, g, tt, jt, pt, ot);
      }
      opt.Step();
    }
  }
  return Status::OK();
}

double MscnEstimator::Forward(
    const query::QueryFeaturizer::SetEncoding& enc,
    std::vector<nn::MlpTrace>* table_traces,
    std::vector<nn::MlpTrace>* join_traces,
    std::vector<nn::MlpTrace>* pred_traces, nn::MlpTrace* out_trace) {
  size_t h = static_cast<size_t>(scale_.hidden);

  auto run_set = [&](nn::Mlp* mlp,
                     const std::vector<std::vector<double>>& elements,
                     std::vector<nn::MlpTrace>* traces) {
    std::vector<nn::Matrix> outs;
    outs.reserve(elements.size());
    if (traces != nullptr) traces->resize(elements.size());
    for (size_t i = 0; i < elements.size(); ++i) {
      nn::Matrix x(1, elements[i].size());
      x.SetRow(0, elements[i]);
      outs.push_back(mlp->Forward(
          x, traces != nullptr ? &(*traces)[i] : nullptr));
    }
    return AveragePool(outs, h);
  };

  std::vector<double> pt = run_set(table_mlp_.get(), enc.tables, table_traces);
  std::vector<double> pj = run_set(join_mlp_.get(), enc.joins, join_traces);
  std::vector<double> pp =
      run_set(pred_mlp_.get(), enc.predicates, pred_traces);

  nn::Matrix concat(1, 3 * h);
  for (size_t j = 0; j < h; ++j) {
    concat(0, j) = pt[j];
    concat(0, h + j) = pj[j];
    concat(0, 2 * h + j) = pp[j];
  }
  nn::Matrix out = out_mlp_->Forward(concat, out_trace);
  return out(0, 0);
}

void MscnEstimator::Backward(const query::QueryFeaturizer::SetEncoding& enc,
                             double grad_out,
                             std::vector<nn::MlpTrace>& table_traces,
                             std::vector<nn::MlpTrace>& join_traces,
                             std::vector<nn::MlpTrace>& pred_traces,
                             nn::MlpTrace& out_trace) {
  size_t h = static_cast<size_t>(scale_.hidden);
  nn::Matrix g(1, 1);
  g(0, 0) = grad_out;
  nn::Matrix g_concat = out_mlp_->Backward(out_trace, g);

  auto back_set = [&](nn::Mlp* mlp, size_t offset, size_t count,
                      std::vector<nn::MlpTrace>& traces) {
    if (count == 0) return;
    nn::Matrix ge(1, h);
    for (size_t j = 0; j < h; ++j) {
      ge(0, j) = g_concat(0, offset + j) / static_cast<double>(count);
    }
    for (size_t i = 0; i < count; ++i) mlp->Backward(traces[i], ge);
  };

  back_set(table_mlp_.get(), 0, enc.tables.size(), table_traces);
  back_set(join_mlp_.get(), h, enc.joins.size(), join_traces);
  back_set(pred_mlp_.get(), 2 * h, enc.predicates.size(), pred_traces);
}

double MscnEstimator::EstimateCardinality(const query::Query& q) {
  if (out_mlp_ == nullptr) return 1.0;
  auto enc = featurizer_->SetEncode(q);
  double log_card = Forward(enc, nullptr, nullptr, nullptr, nullptr);
  return query::CardinalityFromLog(log_card);
}

}  // namespace autoce::ce

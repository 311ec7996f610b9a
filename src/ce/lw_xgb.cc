#include "ce/lw_xgb.h"

namespace autoce::ce {

LwXgbEstimator::LwXgbEstimator(const ModelTrainingScale& scale)
    : scale_(scale) {}

Status LwXgbEstimator::Train(const TrainContext& ctx) {
  if (ctx.dataset == nullptr || ctx.train_queries == nullptr ||
      ctx.train_cards == nullptr) {
    return Status::InvalidArgument("LW-XGB requires dataset and workload");
  }
  if (ctx.train_queries->size() != ctx.train_cards->size()) {
    return Status::InvalidArgument("queries/cards size mismatch");
  }
  featurizer_ = std::make_unique<query::QueryFeaturizer>(ctx.dataset);

  std::vector<std::vector<double>> x;
  std::vector<double> y;
  x.reserve(ctx.train_queries->size());
  y.reserve(ctx.train_cards->size());
  for (size_t i = 0; i < ctx.train_queries->size(); ++i) {
    x.push_back(featurizer_->FlatEncode((*ctx.train_queries)[i]));
    y.push_back(query::LogCardinality((*ctx.train_cards)[i]));
  }

  gbdt::GbdtParams params;
  params.num_trees = scale_.gbdt_trees;
  params.max_depth = 5;
  booster_ = std::make_unique<gbdt::GradientBoosting>(params);
  booster_->Fit(x, y);
  return Status::OK();
}

double LwXgbEstimator::EstimateCardinality(const query::Query& q) {
  if (booster_ == nullptr) return 1.0;
  return query::CardinalityFromLog(
      booster_->Predict(featurizer_->FlatEncode(q)));
}

}  // namespace autoce::ce

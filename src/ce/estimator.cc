#include "ce/estimator.h"

#include "ce/bayescard.h"
#include "ce/deepdb.h"
#include "ce/lw_nn.h"
#include "ce/lw_xgb.h"
#include "ce/mscn.h"
#include "ce/neurocard.h"
#include "util/logging.h"

namespace autoce::ce {

std::vector<ModelId> AllModels() {
  return {ModelId::kMscn,      ModelId::kLwNn,      ModelId::kLwXgb,
          ModelId::kDeepDb,    ModelId::kBayesCard, ModelId::kNeuroCard,
          ModelId::kUae};
}

const char* ModelName(ModelId id) {
  switch (id) {
    case ModelId::kMscn:
      return "MSCN";
    case ModelId::kLwNn:
      return "LW-NN";
    case ModelId::kLwXgb:
      return "LW-XGB";
    case ModelId::kDeepDb:
      return "DeepDB";
    case ModelId::kBayesCard:
      return "BayesCard";
    case ModelId::kNeuroCard:
      return "NeuroCard";
    case ModelId::kUae:
      return "UAE";
  }
  return "?";
}

ModelTrainingScale ModelTrainingScale::Fast() {
  ModelTrainingScale s;
  s.epochs = 16;
  s.hidden = 24;
  s.progressive_samples = 48;
  s.join_sample_rows = 1000;
  s.gbdt_trees = 30;
  s.spn_min_slice = 350;
  s.bn_max_bins = 12;
  return s;
}

std::unique_ptr<CardinalityEstimator> CreateModel(
    ModelId id, const ModelTrainingScale& scale) {
  switch (id) {
    case ModelId::kMscn:
      return std::make_unique<MscnEstimator>(scale);
    case ModelId::kLwNn:
      return std::make_unique<LwNnEstimator>(scale);
    case ModelId::kLwXgb:
      return std::make_unique<LwXgbEstimator>(scale);
    case ModelId::kDeepDb:
      return std::make_unique<DeepDbEstimator>(scale);
    case ModelId::kBayesCard:
      return std::make_unique<BayesCardEstimator>(scale);
    case ModelId::kNeuroCard:
      return std::make_unique<NeuroCardEstimator>(scale);
    case ModelId::kUae:
      return std::make_unique<UaeEstimator>(scale);
  }
  AUTOCE_CHECK(false);
  return nullptr;
}

}  // namespace autoce::ce

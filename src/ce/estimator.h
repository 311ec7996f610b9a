#ifndef AUTOCE_CE_ESTIMATOR_H_
#define AUTOCE_CE_ESTIMATOR_H_

#include <memory>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "query/query.h"
#include "util/result.h"
#include "util/status.h"

namespace autoce::ce {

/// Identifiers of the seven learned CE models of the paper's testbed
/// (Sec. IV-B1: three query-driven, three data-driven, one hybrid).
enum class ModelId {
  kMscn = 0,       // query-driven, multi-set convolutional network
  kLwNn = 1,       // query-driven, lightweight MLP
  kLwXgb = 2,      // query-driven, gradient-boosted trees
  kDeepDb = 3,     // data-driven, sum-product network
  kBayesCard = 4,  // data-driven, Bayesian network (Chow-Liu tree)
  kNeuroCard = 5,  // data-driven, autoregressive + progressive sampling
  kUae = 6,        // hybrid, autoregressive + query feedback
};

/// Number of candidate models managed by the advisor.
inline constexpr int kNumModels = 7;

/// All model ids in index order.
std::vector<ModelId> AllModels();

/// Canonical model name, e.g. "MSCN".
const char* ModelName(ModelId id);

/// \brief Everything a model may train from: the dataset itself
/// (data-driven models) and/or a training workload with true
/// cardinalities (query-driven models).
struct TrainContext {
  const data::Dataset* dataset = nullptr;
  const std::vector<query::Query>* train_queries = nullptr;
  const std::vector<double>* train_cards = nullptr;
  uint64_t seed = 42;
};

/// \brief Abstract learned cardinality estimator.
///
/// Training and estimation are both non-const operations: several models
/// (NeuroCard, UAE) use internal sampling state during inference.
class CardinalityEstimator {
 public:
  virtual ~CardinalityEstimator() = default;

  virtual ModelId id() const = 0;
  std::string name() const { return ModelName(id()); }

  /// Whether the model learns from data (true) or queries (false);
  /// hybrid models return true and also consume queries.
  virtual bool is_data_driven() const = 0;

  /// Trains the model; query-driven models require train_queries and
  /// train_cards in the context.
  virtual Status Train(const TrainContext& ctx) = 0;

  /// Estimated COUNT(*) for a query; must be >= 0. Never fails — a model
  /// asked about an unknown shape degrades to a coarse estimate.
  virtual double EstimateCardinality(const query::Query& q) = 0;

  /// Re-seeds any inference-time sampling state (progressive sampling in
  /// NeuroCard/UAE). Callers that need call-order-independent estimates
  /// (fss::EstimatorService keys this by subplan content) invoke it
  /// before each EstimateCardinality; models without sampling state
  /// ignore it.
  virtual void SeedInference(uint64_t /*seed*/) {}
};

/// Knobs shared by the model factory. The `Fast` preset shrinks network
/// and sampling sizes so the testbed can label whole corpora.
struct ModelTrainingScale {
  int epochs = 12;
  int hidden = 32;
  int progressive_samples = 64;   // NeuroCard / UAE
  int join_sample_rows = 1500;    // NeuroCard / UAE training sample
  int gbdt_trees = 40;
  int spn_min_slice = 150;        // DeepDB leaf threshold
  int bn_max_bins = 24;           // BayesCard CPT resolution

  static ModelTrainingScale Fast();
};

/// Creates an untrained model instance.
std::unique_ptr<CardinalityEstimator> CreateModel(
    ModelId id, const ModelTrainingScale& scale = {});

}  // namespace autoce::ce

#endif  // AUTOCE_CE_ESTIMATOR_H_

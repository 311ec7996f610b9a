#include "advisor/baselines.h"

#include <algorithm>
#include <cmath>

#include "nn/loss.h"
#include "util/logging.h"

namespace autoce::advisor {

namespace {

/// Trains a GIN + per-weight MLP head stack; shared by MlpSelector
/// (cross-entropy on the best-model class) and MseRegressorSelector
/// (MSE on the score vector).
struct HeadStackTrainer {
  gnn::GinEncoder* encoder;
  std::vector<nn::Mlp>* heads;
  const LabeledCorpus* corpus;
  const std::vector<double>* weights;
  int epochs;
  double learning_rate;
  bool classification;

  void Train(Rng* rng) {
    std::vector<nn::Matrix*> params = encoder->Params();
    std::vector<nn::Matrix*> grads = encoder->Grads();
    for (auto& head : *heads) {
      auto p = head.Params();
      auto g = head.Grads();
      params.insert(params.end(), p.begin(), p.end());
      grads.insert(grads.end(), g.begin(), g.end());
    }
    nn::Adam opt(params, grads, learning_rate, 5.0);

    size_t n = corpus->size();
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; ++i) order[i] = i;
    const size_t batch = 16;
    for (int epoch = 0; epoch < epochs; ++epoch) {
      rng->Shuffle(&order);
      for (size_t start = 0; start < n; start += batch) {
        size_t end = std::min(start + batch, n);
        encoder->ZeroGrad();
        for (auto& head : *heads) head.ZeroGrad();
        for (size_t i = start; i < end; ++i) {
          size_t idx = order[i];
          gnn::GinTrace trace;
          nn::Matrix emb = encoder->Forward(corpus->graphs[idx], &trace);
          nn::Matrix g_emb(1, emb.cols(), 0.0);
          for (size_t w = 0; w < weights->size(); ++w) {
            nn::MlpTrace head_trace;
            nn::Matrix out = (*heads)[w].Forward(emb, &head_trace);
            nn::LossResult loss;
            if (classification) {
              size_t target = static_cast<size_t>(
                  corpus->labels[idx].BestModel((*weights)[w]));
              loss = nn::SoftmaxCrossEntropyLoss(out, {target});
            } else {
              auto target = corpus->labels[idx].ScoreVector((*weights)[w]);
              nn::Matrix t(1, target.size());
              t.SetRow(0, target);
              loss = nn::MseLoss(out, t);
            }
            nn::Matrix g =
                (*heads)[w].Backward(head_trace, loss.grad);
            g_emb.AddInPlace(g);
          }
          g_emb.ScaleInPlace(1.0 / static_cast<double>(end - start));
          encoder->Backward(corpus->graphs[idx], trace, g_emb);
        }
        opt.Step();
      }
    }
  }
};

size_t NearestWeight(const std::vector<double>& weights, double w_a) {
  size_t best = 0;
  for (size_t i = 1; i < weights.size(); ++i) {
    if (std::abs(weights[i] - w_a) < std::abs(weights[best] - w_a)) best = i;
  }
  return best;
}

}  // namespace

// --------------------------- MlpSelector ---------------------------

MlpSelector::MlpSelector(Config config) : config_(std::move(config)) {}

Status MlpSelector::Fit(const LabeledCorpus& corpus) {
  if (corpus.size() < 4) {
    return Status::InvalidArgument("corpus too small for MLP baseline");
  }
  Rng rng(config_.seed);
  featgraph::FeatureExtractor fx(config_.feature);
  encoder_ = std::make_unique<gnn::GinEncoder>(fx.vertex_dim(), config_.gin,
                                               &rng);
  heads_.clear();
  for (size_t w = 0; w < config_.weights.size(); ++w) {
    heads_.emplace_back(
        std::vector<size_t>{static_cast<size_t>(config_.gin.embedding_dim),
                            static_cast<size_t>(config_.hidden),
                            static_cast<size_t>(config_.hidden),
                            static_cast<size_t>(ce::kNumModels)},
        nn::Activation::kRelu, nn::Activation::kIdentity, &rng);
  }
  HeadStackTrainer trainer{encoder_.get(), &heads_,        &corpus,
                           &config_.weights, config_.epochs,
                           config_.learning_rate, /*classification=*/true};
  Rng train_rng = rng.Fork(1);
  trainer.Train(&train_rng);
  return Status::OK();
}

size_t MlpSelector::NearestWeightIndex(double w_a) const {
  return NearestWeight(config_.weights, w_a);
}

Result<ce::ModelId> MlpSelector::Recommend(
    const data::Dataset& /*dataset*/, const featgraph::FeatureGraph& graph,
    double w_a) {
  if (encoder_ == nullptr) {
    return Status::FailedPrecondition("MLP selector not fitted");
  }
  nn::Matrix emb = encoder_->Forward(graph);
  nn::Matrix logits = heads_[NearestWeightIndex(w_a)].Forward(emb);
  size_t best = 0;
  for (size_t m = 1; m < logits.cols(); ++m) {
    if (logits(0, m) > logits(0, best)) best = m;
  }
  return static_cast<ce::ModelId>(best);
}

// --------------------------- RuleSelector ---------------------------

Status RuleSelector::Fit(const LabeledCorpus& /*corpus*/) {
  return Status::OK();  // no training
}

Result<ce::ModelId> RuleSelector::Recommend(
    const data::Dataset& dataset, const featgraph::FeatureGraph& /*graph*/,
    double /*w_a*/) {
  if (dataset.NumTables() == 1) {
    // Random data-driven model.
    static constexpr ce::ModelId kDataDriven[] = {
        ce::ModelId::kDeepDb, ce::ModelId::kBayesCard, ce::ModelId::kNeuroCard};
    return kDataDriven[rng_.UniformInt(0, 2)];
  }
  static constexpr ce::ModelId kQueryDriven[] = {
      ce::ModelId::kMscn, ce::ModelId::kLwNn, ce::ModelId::kLwXgb};
  return kQueryDriven[rng_.UniformInt(0, 2)];
}

// --------------------------- KnnSelector ---------------------------

KnnSelector::KnnSelector(Config config)
    : config_(std::move(config)), extractor_(config_.feature) {}

Status KnnSelector::Fit(const LabeledCorpus& corpus) {
  if (corpus.size() == 0) {
    return Status::InvalidArgument("empty corpus");
  }
  features_.clear();
  labels_ = corpus.labels;
  for (const auto& g : corpus.graphs) {
    features_.push_back(extractor_.Flatten(g, config_.max_tables));
  }
  return Status::OK();
}

Result<ce::ModelId> KnnSelector::Recommend(
    const data::Dataset& /*dataset*/, const featgraph::FeatureGraph& graph,
    double w_a) {
  if (features_.empty()) {
    return Status::FailedPrecondition("Knn selector not fitted");
  }
  auto target = extractor_.Flatten(graph, config_.max_tables);
  std::vector<std::pair<double, size_t>> dist;
  for (size_t i = 0; i < features_.size(); ++i) {
    dist.emplace_back(nn::EuclideanDistance(target, features_[i]), i);
  }
  size_t k = std::min<size_t>(static_cast<size_t>(config_.k), dist.size());
  std::partial_sort(dist.begin(), dist.begin() + static_cast<ptrdiff_t>(k),
                    dist.end());
  std::vector<double> avg(ce::kNumModels, 0.0);
  for (size_t i = 0; i < k; ++i) {
    auto s = labels_[dist[i].second].ScoreVector(w_a);
    for (size_t m = 0; m < avg.size(); ++m) avg[m] += s[m];
  }
  size_t best = 0;
  for (size_t m = 1; m < avg.size(); ++m) {
    if (avg[m] > avg[best]) best = m;
  }
  return static_cast<ce::ModelId>(best);
}

// --------------------------- SamplingSelector ---------------------------

data::Dataset SampleDataset(const data::Dataset& dataset, double fraction,
                            int64_t max_rows, Rng* rng) {
  data::Dataset out(dataset.name() + "_sample");
  for (int t = 0; t < dataset.NumTables(); ++t) {
    const data::Table& src = dataset.table(t);
    int64_t want = std::min<int64_t>(
        max_rows,
        std::max<int64_t>(
            20, static_cast<int64_t>(fraction *
                                     static_cast<double>(src.NumRows()))));
    want = std::min(want, src.NumRows());
    auto idx = rng->SampleWithoutReplacement(src.NumRows(), want);
    data::Table dst;
    dst.name = src.name;
    dst.primary_key = src.primary_key;
    for (const auto& col : src.columns) {
      data::Column c;
      c.name = col.name;
      c.domain_size = col.domain_size;
      c.values.reserve(idx.size());
      for (int64_t r : idx) {
        c.values.push_back(col.values[static_cast<size_t>(r)]);
      }
      dst.columns.push_back(std::move(c));
    }
    out.AddTable(std::move(dst));
  }
  for (const auto& fk : dataset.foreign_keys()) {
    AUTOCE_CHECK(out.AddForeignKey(fk).ok());
  }
  return out;
}

SamplingSelector::SamplingSelector(Config config)
    : config_(std::move(config)), rng_(config_.seed) {}

Status SamplingSelector::Fit(const LabeledCorpus& /*corpus*/) {
  return Status::OK();  // pure online learning
}

Result<ce::ModelId> SamplingSelector::Recommend(
    const data::Dataset& dataset, const featgraph::FeatureGraph& /*graph*/,
    double w_a) {
  auto it = cache_.find(dataset.name());
  if (it == cache_.end()) {
    data::Dataset sample = SampleDataset(dataset, config_.sample_fraction,
                                         config_.max_sample_rows, &rng_);
    ce::TestbedConfig cfg = config_.testbed;
    cfg.seed = rng_.Next();
    auto result = ce::RunTestbed(sample, cfg);
    if (!result.ok()) return result.status();
    it = cache_.emplace(dataset.name(), MakeLabel(*result)).first;
  }
  return it->second.BestModel(w_a);
}

// --------------------------- MseRegressorSelector ---------------------------

MseRegressorSelector::MseRegressorSelector(Config config)
    : config_(std::move(config)) {}

Status MseRegressorSelector::Fit(const LabeledCorpus& corpus) {
  if (corpus.size() < 4) {
    return Status::InvalidArgument("corpus too small");
  }
  Rng rng(config_.seed);
  featgraph::FeatureExtractor fx(config_.feature);
  encoder_ = std::make_unique<gnn::GinEncoder>(fx.vertex_dim(), config_.gin,
                                               &rng);
  heads_.clear();
  for (size_t w = 0; w < config_.weights.size(); ++w) {
    heads_.emplace_back(
        std::vector<size_t>{static_cast<size_t>(config_.gin.embedding_dim),
                            static_cast<size_t>(config_.hidden),
                            static_cast<size_t>(config_.hidden),
                            static_cast<size_t>(ce::kNumModels)},
        nn::Activation::kRelu, nn::Activation::kIdentity, &rng);
  }
  HeadStackTrainer trainer{encoder_.get(), &heads_,        &corpus,
                           &config_.weights, config_.epochs,
                           config_.learning_rate, /*classification=*/false};
  Rng train_rng = rng.Fork(1);
  trainer.Train(&train_rng);
  return Status::OK();
}

size_t MseRegressorSelector::NearestWeightIndex(double w_a) const {
  return NearestWeight(config_.weights, w_a);
}

Result<ce::ModelId> MseRegressorSelector::Recommend(
    const data::Dataset& /*dataset*/, const featgraph::FeatureGraph& graph,
    double w_a) {
  if (encoder_ == nullptr) {
    return Status::FailedPrecondition("regressor not fitted");
  }
  nn::Matrix emb = encoder_->Forward(graph);
  nn::Matrix scores = heads_[NearestWeightIndex(w_a)].Forward(emb);
  size_t best = 0;
  for (size_t m = 1; m < scores.cols(); ++m) {
    if (scores(0, m) > scores(0, best)) best = m;
  }
  return static_cast<ce::ModelId>(best);
}

}  // namespace autoce::advisor

#include "advisor/autoce.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <span>

#include "knn/index.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/fault.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/serde.h"
#include "util/stats.h"
#include "util/timer.h"

namespace autoce::advisor {

namespace {

/// Training instruments (DESIGN.md §5.9): per-chunk loss and held-out
/// validation D-error as gauges (last value = training frontier), chunk
/// count, skipped samples/batches, and checkpoint commit latency.
struct FitMetrics {
  obs::Gauge* chunk_loss;
  obs::Gauge* val_derror;
  obs::Gauge* best_val_derror;
  obs::Counter* chunks;
  obs::Counter* samples_skipped;
  obs::Counter* batches_skipped;
  obs::Histogram* checkpoint_ms;
  static const FitMetrics& Get() {
    static const FitMetrics m = [] {
      auto& reg = obs::MetricsRegistry::Instance();
      return FitMetrics{reg.GetGauge("advisor.fit.chunk_loss"),
                        reg.GetGauge("advisor.fit.val_derror"),
                        reg.GetGauge("advisor.fit.best_val_derror"),
                        reg.GetCounter("advisor.fit.chunks"),
                        reg.GetCounter("advisor.fit.samples_skipped"),
                        reg.GetCounter("advisor.fit.batches_skipped"),
                        reg.GetHistogram("advisor.checkpoint_ms")};
    }();
    return m;
  }
};

/// Eq. 13's vote: the members' score vectors at `w`, added in member
/// order.
std::vector<double> SumScores(const std::vector<DatasetLabel>& labels,
                              const std::vector<size_t>& members, double w) {
  std::vector<double> sum(ce::kNumModels, 0.0);
  for (size_t j : members) {
    auto s = labels[j].ScoreVector(w);
    for (size_t m = 0; m < sum.size(); ++m) sum[m] += s[m];
  }
  return sum;
}

/// The model with the largest score; ties go to the lower model id.
ce::ModelId ArgMax(const std::vector<double>& scores) {
  size_t best = 0;
  for (size_t m = 1; m < scores.size(); ++m) {
    if (scores[m] > scores[best]) best = m;
  }
  return static_cast<ce::ModelId>(best);
}

/// The recommendation of the members' mean score vector at `w_a`.
AutoCe::Recommendation Vote(const std::vector<DatasetLabel>& labels,
                            const std::vector<size_t>& members, double w_a) {
  AutoCe::Recommendation rec;
  rec.score_vector = SumScores(labels, members, w_a);
  for (double& v : rec.score_vector) {
    v /= static_cast<double>(std::max<size_t>(1, members.size()));
  }
  rec.model = ArgMax(rec.score_vector);
  return rec;
}

}  // namespace

AutoCe::AutoCe(AutoCeConfig config)
    : config_(std::move(config)),
      extractor_(config_.feature),
      rng_(config_.seed) {}

Status AutoCe::ValidateSample(const featgraph::FeatureGraph& graph,
                              const DatasetLabel& label,
                              size_t index) const {
  AUTOCE_RETURN_NOT_OK(
      featgraph::ValidateGraph(graph, extractor_.vertex_dim()));
  if (!nn::IsFinite(std::span<const double>(label.accuracy_score)) ||
      !nn::IsFinite(std::span<const double>(label.efficiency_score)) ||
      !nn::IsFinite(std::span<const double>(label.qerror_mean)) ||
      !nn::IsFinite(std::span<const double>(label.latency_ms))) {
    return Status::InvalidArgument("label for sample " +
                                   std::to_string(index) +
                                   " contains non-finite scores");
  }
  if (util::FaultPoint(util::fault_sites::kFitSample, index)) {
    return Status::Internal("injected sample fault at index " +
                            std::to_string(index));
  }
  return Status::OK();
}

Status AutoCe::Fit(const std::vector<featgraph::FeatureGraph>& graphs,
                   const std::vector<DatasetLabel>& labels) {
  if (graphs.size() != labels.size()) {
    return Status::InvalidArgument("graphs/labels size mismatch");
  }
  obs::TraceSpan span("advisor.fit");
  // Skip-and-report: a corrupt sample (bad graph shape, non-finite
  // features or scores) is dropped from the corpus instead of aborting
  // the fit; training only fails when too few valid samples remain.
  fit_report_ = FitReport{};
  fit_report_.samples_total = graphs.size();
  graphs_.clear();
  labels_.clear();
  for (size_t i = 0; i < graphs.size(); ++i) {
    Status st = ValidateSample(graphs[i], labels[i], i);
    if (!st.ok()) {
      ++fit_report_.samples_skipped;
      if (fit_report_.skipped_reasons.size() < 5) {
        fit_report_.skipped_reasons.push_back(st.ToString());
      }
      continue;
    }
    graphs_.push_back(graphs[i]);
    labels_.push_back(labels[i]);
  }
  rcs_section_cache_.clear();
  embed_digest_ = 0;  // corpus replaced: next refresh must be full
  if (fit_report_.samples_skipped > 0) {
    FitMetrics::Get().samples_skipped->Add(
        static_cast<int64_t>(fit_report_.samples_skipped));
    AUTOCE_LOG(Warning) << "Fit skipped " << fit_report_.samples_skipped
                        << "/" << fit_report_.samples_total
                        << " corrupt samples";
  }
  if (graphs_.size() < 4) {
    return Status::InvalidArgument(
        "need at least 4 valid labeled datasets (" +
        std::to_string(graphs_.size()) + " of " +
        std::to_string(graphs.size()) + " usable)");
  }
  // DML similarity labels: concatenated score vectors, centered on the
  // corpus mean. Centering matters: the efficiency components share a
  // large dataset-independent structure (the models' inherent latency
  // profile), which would saturate raw cosine similarity near 1 for all
  // pairs and starve the metric learner of negatives.
  label_mean_.assign(
      config_.training_weights.size() * ce::kNumModels, 0.0);
  for (const auto& label : labels_) {
    auto concat = label.ConcatScores(config_.training_weights);
    for (size_t i = 0; i < concat.size(); ++i) {
      label_mean_[i] += concat[i] / static_cast<double>(labels_.size());
    }
  }
  dml_labels_.clear();
  for (const auto& label : labels_) {
    dml_labels_.push_back(BuildDmlLabel(label));
  }

  Rng init_rng = rng_.Fork(1);
  encoder_ = std::make_unique<gnn::GinEncoder>(extractor_.vertex_dim(),
                                               config_.gin, &init_rng);

  train_rng_ = rng_.Fork(2);
  best_params_.clear();
  cursor_ = TrainCursor{};
  if (config_.validation_interval <= 0) {
    cursor_.phase = FitPhase::kPlain;
  } else {
    // Train in chunks on an 80% split, checkpointing the encoder on the
    // D-error of a held-out 20% validation split. Validating on held-out
    // data (rather than leave-one-out over the training set) is what
    // detects embedding collapse: the contrastive objective pulls
    // training neighbors together *by label*, so training-set KNN keeps
    // improving even as generalization degrades.
    size_t n = graphs_.size();
    std::vector<size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    Rng split_rng = rng_.Fork(7);
    split_rng.Shuffle(&order);
    // Clamp so the 80% side keeps >= 2 graphs: tiny corpora (possible
    // after Fit skipped corrupt samples) must still be trainable.
    size_t val_n = std::min(std::max<size_t>(4, n / 5), n - 2);
    cursor_.val_idx.assign(order.begin(),
                           order.begin() + static_cast<ptrdiff_t>(val_n));
    RefreshEmbeddings();
    cursor_.best_err = HoldOutDError(cursor_.val_idx);
    best_params_ = encoder_->SnapshotParams();
    cursor_.phase = FitPhase::kChunk;
  }
  // Initial checkpoint (no-op without a store): a kill at any later
  // point resumes from here with every RNG stream already forked, so
  // the resumed run replays the same draws.
  AUTOCE_RETURN_NOT_OK(CommitCheckpoint());
  return RunCheckpointedFit();
}

Status AutoCe::RunCheckpointedFit() {
  if (cursor_.phase == FitPhase::kPlain) {
    // Plain Algorithm 1: one single-shot training pass with no
    // intermediate checkpoints. A resume restarts it from the initial
    // snapshot; the restored RNG streams make the restart bit-identical.
    gnn::DmlTrainer trainer(encoder_.get(), config_.dml);
    auto loss = trainer.Train(graphs_, dml_labels_, &train_rng_);
    fit_report_.dml_batches_skipped += trainer.last_skipped_batches();
    if (!loss.ok()) return loss.status();
    RefreshEmbeddings();
    if (config_.enable_incremental) {
      AUTOCE_RETURN_NOT_OK(RunIncrementalLearning());
    }
    RefreshDriftThreshold();
    cursor_.phase = FitPhase::kDone;
    return CommitCheckpoint();
  }

  if (cursor_.phase == FitPhase::kChunk) {
    // Rebuild the 80% training split from the persisted validation
    // indices (the RCS order is stable across save/resume).
    size_t n = graphs_.size();
    std::vector<featgraph::FeatureGraph> fit_graphs;
    std::vector<std::vector<double>> fit_labels;
    {
      std::vector<char> is_val(n, 0);
      for (size_t i : cursor_.val_idx) {
        if (i < n) is_val[i] = 1;
      }
      for (size_t i = 0; i < n; ++i) {
        if (!is_val[i]) {
          fit_graphs.push_back(graphs_[i]);
          fit_labels.push_back(dml_labels_[i]);
        }
      }
    }
    gnn::DmlConfig chunk_cfg = config_.dml;
    chunk_cfg.epochs = config_.validation_interval;
    const FitMetrics& metrics = FitMetrics::Get();
    while (cursor_.trained_epochs < config_.dml.epochs) {
      obs::TraceSpan chunk_span("advisor.fit.chunk");
      gnn::DmlTrainer chunk_trainer(encoder_.get(), chunk_cfg);
      auto loss = chunk_trainer.Train(fit_graphs, fit_labels, &train_rng_);
      fit_report_.dml_batches_skipped += chunk_trainer.last_skipped_batches();
      if (chunk_trainer.last_skipped_batches() > 0) {
        metrics.batches_skipped->Add(
            static_cast<int64_t>(chunk_trainer.last_skipped_batches()));
      }
      if (!loss.ok()) return loss.status();
      cursor_.trained_epochs += chunk_cfg.epochs;
      RefreshEmbeddings();
      double err = HoldOutDError(cursor_.val_idx);
      if (err < cursor_.best_err) {
        cursor_.best_err = err;
        best_params_ = encoder_->SnapshotParams();
      }
      metrics.chunks->Add();
      metrics.chunk_loss->Set(*loss);
      metrics.val_derror->Set(err);
      metrics.best_val_derror->Set(cursor_.best_err);
      AUTOCE_RETURN_NOT_OK(CommitCheckpoint());
    }
    encoder_->RestoreParams(best_params_);
    best_params_.clear();  // later phases never read it; keeps snapshots lean
    RefreshEmbeddings();
    cursor_.phase = FitPhase::kIncremental;
    AUTOCE_RETURN_NOT_OK(CommitCheckpoint());
  }

  if (cursor_.phase == FitPhase::kIncremental) {
    if (config_.enable_incremental) {
      std::vector<nn::Matrix> pre_il = encoder_->SnapshotParams();
      AUTOCE_RETURN_NOT_OK(RunIncrementalLearning());
      if (HoldOutDError(cursor_.val_idx) > cursor_.best_err) {
        // Incremental training hurt the held-out error; keep the
        // augmented RCS but restore the better encoder.
        encoder_->RestoreParams(pre_il);
        RefreshEmbeddings();
      }
    }
    RefreshDriftThreshold();
    cursor_.phase = FitPhase::kDone;
    AUTOCE_RETURN_NOT_OK(CommitCheckpoint());
  }
  return Status::OK();
}

double AutoCe::HoldOutDError(const std::vector<size_t>& val_idx) const {
  // Retrieval restricted to non-validation members: the same index the
  // recommendation path queries, with the split as an `allowed` mask
  // (unusable members are already excluded by the index itself).
  std::vector<char> allowed(graphs_.size(), 1);
  for (size_t i : val_idx) {
    if (i < allowed.size()) allowed[i] = 0;
  }
  double total = 0.0;
  int count = 0;
  for (size_t i : val_idx) {
    if (i >= graphs_.size() || !embedding_ok_[i]) continue;
    auto nn = NearestNeighbors(embeddings_[i],
                               static_cast<size_t>(config_.knn_k),
                               /*exclude=*/SIZE_MAX, &allowed);
    if (nn.empty()) continue;
    for (double w : config_.training_weights) {
      total += labels_[i].DError(ArgMax(SumScores(labels_, nn, w)), w);
      ++count;
    }
  }
  return count == 0 ? 0.0 : total / count;
}

void AutoCe::RefreshEmbeddings() {
  // Incremental path: when the encoder is unchanged since the last
  // refresh and the corpus only grew (the online-adapt append path),
  // the existing prefix is already correct — embed just the tail. Any
  // weight change (digest mismatch) or corpus rebuild (embed_digest_
  // reset to 0) recomputes everything.
  uint64_t digest = EncoderDigest();
  size_t keep = (digest == embed_digest_ && embed_digest_ != 0 &&
                 embeddings_.size() <= graphs_.size())
                    ? embeddings_.size()
                    : 0;
  std::vector<const featgraph::FeatureGraph*> tail;
  for (size_t i = keep; i < graphs_.size(); ++i) tail.push_back(&graphs_[i]);
  embeddings_.resize(keep);
  for (auto& e : encoder_->EmbedBatch(tail)) embeddings_.push_back(std::move(e));
  embedding_ok_.assign(embeddings_.size(), 1);
  for (size_t i = 0; i < embeddings_.size(); ++i) {
    embedding_ok_[i] =
        nn::IsFinite(std::span<const double>(embeddings_[i])) ? 1 : 0;
  }
  knn_index_ = knn::Index::Build(embeddings_, embedding_ok_);
  embed_digest_ = digest;
}

void AutoCe::RefreshDriftThreshold() {
  // 90th percentile of each member's nearest-neighbor distance.
  std::vector<double> nn_dist;
  for (size_t i = 0; i < embeddings_.size(); ++i) {
    if (!embedding_ok_[i]) continue;
    auto hits = knn_index_.Query(embeddings_[i], 1, /*exclude=*/i);
    if (!hits.empty()) nn_dist.push_back(hits[0].distance);
  }
  drift_threshold_ = stats::Percentile(nn_dist, config_.drift_percentile);
}

std::vector<double> AutoCe::BuildDmlLabel(const DatasetLabel& label) const {
  auto concat = label.ConcatScores(config_.training_weights);
  AUTOCE_CHECK(concat.size() == label_mean_.size());
  for (size_t i = 0; i < concat.size(); ++i) concat[i] -= label_mean_[i];
  return concat;
}

std::vector<size_t> AutoCe::NearestNeighbors(
    const std::vector<double>& embedding, size_t k, size_t exclude,
    const std::vector<char>* allowed) const {
  // KNN retrieval (Eq. 13) through the shared index; unusable members
  // and ties are handled by its (distance, index) ordering contract.
  auto hits = knn_index_.Query(embedding, k, exclude, allowed);
  std::vector<size_t> out;
  out.reserve(hits.size());
  for (const knn::Neighbor& nb : hits) out.push_back(nb.index);
  return out;
}

Status AutoCe::RunIncrementalLearning() {
  // Algorithm 2: cross-validated feedback collection + Mixup.
  size_t n = graphs_.size();
  size_t folds = std::min<size_t>(static_cast<size_t>(config_.incremental_folds),
                                  n);
  if (folds < 2) return Status::OK();

  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  Rng fold_rng = rng_.Fork(3);
  fold_rng.Shuffle(&order);

  std::vector<size_t> feedback, reference;
  for (size_t i = 0; i < n; ++i) {
    size_t idx = order[i];
    // Validation fold of `idx` excludes its whole fold from the RCS; for
    // simplicity and per the spirit of Alg. 2 we exclude the sample
    // itself (leave-one-out within folds behaves identically at our
    // corpus sizes).
    auto nn = NearestNeighbors(embeddings_[idx],
                               static_cast<size_t>(config_.knn_k), idx);
    // Mean D-error across the supported weight combinations.
    double d_err = 0.0;
    for (double w : config_.training_weights) {
      d_err += labels_[idx].DError(ArgMax(SumScores(labels_, nn, w)), w);
    }
    d_err /= static_cast<double>(config_.training_weights.size());
    (d_err > config_.d_error_threshold ? feedback : reference).push_back(idx);
  }

  if (feedback.empty() || reference.empty()) return Status::OK();

  std::vector<featgraph::FeatureGraph> new_graphs = graphs_;
  std::vector<std::vector<double>> new_dml_labels = dml_labels_;
  std::vector<DatasetLabel> new_labels = labels_;

  if (config_.enable_augmentation) {
    Rng mix_rng = rng_.Fork(4);
    for (size_t idx : feedback) {
      // Nearest reference neighbor in embedding space.
      double best_d = 1e300;
      size_t best_j = reference[0];
      for (size_t j : reference) {
        double d = nn::EuclideanDistance(embeddings_[idx], embeddings_[j]);
        if (d < best_d) {
          best_d = d;
          best_j = j;
        }
      }
      double lambda = mix_rng.Beta(config_.mixup_alpha, config_.mixup_beta);
      featgraph::FeatureGraph mixed_graph =
          featgraph::MixupGraphs(graphs_[idx], graphs_[best_j], lambda);
      DatasetLabel mixed_label =
          DatasetLabel::Mixup(labels_[idx], labels_[best_j], lambda);
      new_graphs.push_back(std::move(mixed_graph));
      new_labels.push_back(mixed_label);
      new_dml_labels.push_back(BuildDmlLabel(mixed_label));
    }
  }

  // Incremental training on original + synthetic data.
  gnn::DmlConfig inc_cfg = config_.dml;
  inc_cfg.epochs = config_.incremental_epochs;
  gnn::DmlTrainer inc_trainer(encoder_.get(), inc_cfg);
  Rng inc_rng = rng_.Fork(5);
  auto loss = inc_trainer.Train(new_graphs, new_dml_labels, &inc_rng);
  fit_report_.dml_batches_skipped += inc_trainer.last_skipped_batches();
  if (!loss.ok()) return loss.status();

  // Synthetic samples also join the RCS (they carry valid labels).
  graphs_ = std::move(new_graphs);
  labels_ = std::move(new_labels);
  dml_labels_ = std::move(new_dml_labels);
  rcs_section_cache_.clear();
  RefreshEmbeddings();
  return Status::OK();
}

std::vector<double> AutoCe::Embed(
    const featgraph::FeatureGraph& graph) const {
  AUTOCE_CHECK(encoder_ != nullptr);
  return encoder_->Embed(graph);
}

std::vector<std::vector<double>> AutoCe::EmbedBatch(
    const std::vector<const featgraph::FeatureGraph*>& graphs) const {
  AUTOCE_CHECK(encoder_ != nullptr);
  return encoder_->EmbedBatch(graphs);
}

AutoCe::Recommendation AutoCe::CorpusDefault(double w_a,
                                             std::string reason) const {
  // The same default the drift detector hands an out-of-distribution
  // dataset: ignore the (unusable) embedding geometry and pick the
  // model that scores best on average over the whole RCS.
  std::vector<size_t> all(labels_.size());
  std::iota(all.begin(), all.end(), 0);
  Recommendation rec = Vote(labels_, all, w_a);
  rec.degraded = true;
  rec.degraded_reason = std::move(reason);
  return rec;
}

Result<AutoCe::Recommendation> AutoCe::Recommend(
    const featgraph::FeatureGraph& graph, double w_a) const {
  if (encoder_ == nullptr || embeddings_.empty()) {
    return Status::FailedPrecondition("advisor is not fitted");
  }
  AUTOCE_RETURN_NOT_OK(
      featgraph::ValidateGraph(graph, extractor_.vertex_dim()));
  return RecommendFromEmbedding(encoder_->Embed(graph), w_a);
}

Result<AutoCe::Recommendation> AutoCe::RecommendFromEmbedding(
    std::span<const double> target, double w_a) const {
  if (encoder_ == nullptr || embeddings_.empty()) {
    return Status::FailedPrecondition("advisor is not fitted");
  }
  if (target.size() != encoder_->embedding_dim()) {
    return Status::InvalidArgument("embedding dimension mismatch");
  }
  std::vector<double> embedding(target.begin(), target.end());
  if (util::FaultPoint(
          util::fault_sites::kRecommendEmbed,
          util::FaultKeyFromDoubles(embedding.data(), embedding.size()))) {
    std::fill(embedding.begin(), embedding.end(),
              std::numeric_limits<double>::quiet_NaN());
  }
  if (!nn::IsFinite(std::span<const double>(embedding))) {
    return CorpusDefault(w_a, "non-finite target embedding");
  }
  auto nn = NearestNeighbors(embedding, static_cast<size_t>(config_.knn_k));
  if (nn.empty()) return CorpusDefault(w_a, "no usable RCS embedding");
  Recommendation rec = Vote(labels_, nn, w_a);
  rec.neighbors = std::move(nn);
  return rec;
}

Result<AutoCe::Recommendation> AutoCe::RecommendDataset(
    const data::Dataset& dataset, double w_a) const {
  AUTOCE_RETURN_NOT_OK(dataset.Validate());
  return Recommend(extractor_.Extract(dataset), w_a);
}

double AutoCe::DistanceToRcs(const featgraph::FeatureGraph& graph) const {
  AUTOCE_CHECK(encoder_ != nullptr && !embeddings_.empty());
  // A dataset we cannot even embed retrieves nothing (the index skips
  // non-finite queries), so it reads as infinitely far: out of
  // distribution by every drift threshold.
  auto hits = knn_index_.Query(encoder_->Embed(graph), 1);
  if (hits.empty()) return std::numeric_limits<double>::infinity();
  return hits[0].distance;
}

bool AutoCe::IsOutOfDistribution(
    const featgraph::FeatureGraph& graph) const {
  return DistanceToRcs(graph) > drift_threshold_;
}

Status AutoCe::AddLabeledSample(const featgraph::FeatureGraph& graph,
                                const DatasetLabel& label) {
  return AddLabeledSamples({graph}, {label});
}

Status AutoCe::AddLabeledSamples(
    const std::vector<featgraph::FeatureGraph>& graphs,
    const std::vector<DatasetLabel>& labels) {
  if (encoder_ == nullptr) {
    return Status::FailedPrecondition("advisor is not fitted");
  }
  if (graphs.size() != labels.size()) {
    return Status::InvalidArgument("graph/label count mismatch");
  }
  if (graphs.empty()) return Status::OK();
  // All-or-nothing validation before any mutation; the fault keys match
  // the insertion indices sequential AddLabeledSample calls would use.
  for (size_t i = 0; i < graphs.size(); ++i) {
    AUTOCE_RETURN_NOT_OK(ValidateSample(graphs[i], labels[i],
                                        graphs_.size() + i));
  }
  for (size_t i = 0; i < graphs.size(); ++i) {
    graphs_.push_back(graphs[i]);
    labels_.push_back(labels[i]);
    dml_labels_.push_back(BuildDmlLabel(labels[i]));
    rcs_section_cache_.clear();

    if (config_.online_update_epochs > 0) {
      // Fine-tune with a few DML epochs over the updated corpus.
      gnn::DmlConfig cfg = config_.dml;
      cfg.epochs = config_.online_update_epochs;
      gnn::DmlTrainer tuner(encoder_.get(), cfg);
      Rng tune_rng = rng_.Fork(graphs_.size());
      auto loss = tuner.Train(graphs_, dml_labels_, &tune_rng);
      if (!loss.ok()) return loss.status();
    }
  }
  // With fine-tuning disabled (online_update_epochs <= 0) the encoder
  // is unchanged, so this refresh takes the incremental path and embeds
  // only the appended samples.
  RefreshEmbeddings();
  RefreshDriftThreshold();
  // Online updates are durable too: each accepted batch commits a new
  // snapshot generation (no-op without a store).
  return CommitCheckpoint();
}

double AutoCe::EvaluateMeanDError(
    const std::vector<featgraph::FeatureGraph>& graphs,
    const std::vector<DatasetLabel>& labels, double w_a) const {
  AUTOCE_CHECK(graphs.size() == labels.size());
  std::vector<double> errs;
  for (size_t i = 0; i < graphs.size(); ++i) {
    auto rec = Recommend(graphs[i], w_a);
    if (!rec.ok()) continue;
    errs.push_back(labels[i].DError(rec->model, w_a));
  }
  return stats::Mean(errs);
}

// ---------------------------------------------------------------------------
// Persistence (DESIGN.md Sec. 5.7): crash-safe snapshots, resumable
// training, and `.ace` model files, which are single snapshot generations.

namespace {

constexpr uint32_t kSnapshotFormatVersion = 1;
constexpr char kSecConfig[] = "config";
constexpr char kSecRcs[] = "rcs";
constexpr char kSecEncoder[] = "encoder";
constexpr char kSecBest[] = "best";
constexpr char kSecRng[] = "rng";
constexpr char kSecCursor[] = "cursor";

/// Magic of the retired pre-snapshot `.ace` layout (versions 2 and 3),
/// recognized only so Load can name it in its error.
constexpr uint32_t kLegacyAceMagic = 0x41434531;  // "ACE1"

void WriteMatrix(BinaryWriter* w, const nn::Matrix& m) {
  w->WriteU64(m.rows());
  w->WriteU64(m.cols());
  // Mirrors WriteDoubles' framing (u64 count + little-endian payload)
  // without materializing a temporary vector — checkpoints serialize
  // every encoder matrix, so the copy is worth avoiding.
  w->WriteU64(m.size());
  if constexpr (std::endian::native == std::endian::little) {
    w->WriteBytes(m.data(), m.size() * sizeof(double));
  } else {
    for (size_t i = 0; i < m.size(); ++i) w->WriteDouble(m.data()[i]);
  }
}

Result<nn::Matrix> ReadMatrix(BinaryReader* r) {
  uint64_t rows = r->ReadU64();
  uint64_t cols = r->ReadU64();
  std::vector<double> data = r->ReadDoubles();
  if (!r->status().ok()) return r->status();
  // Divides rather than multiplies: rows * cols can wrap around to the
  // payload size.
  if (cols == 0 ? !data.empty()
                : data.size() % cols != 0 || data.size() / cols != rows) {
    return Status::DataLoss("matrix payload size mismatch");
  }
  nn::Matrix m(rows, cols);
  for (size_t i = 0; i < data.size(); ++i) m.data()[i] = data[i];
  return m;
}

/// Deserialized configs must be validated BEFORE constructing an AutoCe:
/// the constructor (and the feature extractor inside it) enforces these
/// invariants with AUTOCE_CHECK, which would turn a corrupt file into a
/// process abort instead of a clean Status.
Status ValidateLoadedConfig(const AutoCeConfig& config) {
  if (config.feature.max_columns < 1 || config.gin.num_layers < 1 ||
      config.gin.hidden < 1 || config.gin.embedding_dim < 1 ||
      config.knn_k < 1 || config.training_weights.empty()) {
    return Status::DataLoss("model config is corrupt");
  }
  return Status::OK();
}

void WriteRngState(BinaryWriter* w, const Rng::State& s) {
  for (uint64_t v : s.s) w->WriteU64(v);
  w->WriteU32(s.has_cached_gaussian ? 1 : 0);
  w->WriteDouble(s.cached_gaussian);
}

Rng::State ReadRngState(BinaryReader* r) {
  Rng::State s;
  for (auto& v : s.s) v = r->ReadU64();
  s.has_cached_gaussian = r->ReadU32() != 0;
  s.cached_gaussian = r->ReadDouble();
  return s;
}

uint64_t DigestMatrix(const nn::Matrix& m, uint64_t h) {
  uint64_t dims[2] = {static_cast<uint64_t>(m.rows()),
                      static_cast<uint64_t>(m.cols())};
  h = util::Fnv1a(dims, sizeof(dims), h);
  return util::Fnv1a(m.data(), m.size() * sizeof(double), h);
}

const util::SnapshotSection* FindSection(
    const std::vector<util::SnapshotSection>& sections, const char* name) {
  for (const auto& s : sections) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

}  // namespace

Status AutoCe::Save(const std::string& path) const {
  if (encoder_ == nullptr) {
    return Status::FailedPrecondition("cannot save an unfitted advisor");
  }
  return util::WriteSnapshotFile(path, BuildSnapshotSections());
}

Result<AutoCe> AutoCe::Load(const std::string& path) {
  auto sections = util::ReadSnapshotFile(path);
  if (!sections.ok()) {
    BinaryReader r(path);
    if (r.ReadU32() == kLegacyAceMagic && r.status().ok()) {
      return Status::InvalidArgument(
          "legacy pre-snapshot .ace file (v2/v3) is no longer readable; "
          "retrain it with `autoce train`: " + path);
    }
    return sections.status();
  }
  return FromSnapshotSections(*sections);
}

Status AutoCe::EnableSnapshots(const std::string& dir,
                               util::SnapshotStoreOptions options) {
  AUTOCE_ASSIGN_OR_RETURN(util::SnapshotStore store,
                          util::SnapshotStore::Open(dir, options));
  store_ = std::make_unique<util::SnapshotStore>(std::move(store));
  return Status::OK();
}

Status AutoCe::CommitCheckpoint() {
  if (store_ == nullptr) return Status::OK();
  if (encoder_ == nullptr) {
    return Status::FailedPrecondition("cannot snapshot an unfitted advisor");
  }
  // Mid-training checkpoints are recomputable (resuming from an older
  // generation replays to the same bits), so they skip the fsyncs and
  // keep checkpoint overhead off the training loop. Once the model is
  // done its loss WOULD lose information — the final commit (and every
  // online update, which runs with phase == kDone) is fully durable.
  util::CommitDurability durability = cursor_.phase == FitPhase::kDone
                                          ? util::CommitDurability::kSync
                                          : util::CommitDurability::kLazy;
  obs::TraceSpan span("advisor.checkpoint");
  Timer commit_timer;
  AUTOCE_ASSIGN_OR_RETURN(uint64_t generation,
                          store_->Commit(BuildSnapshotSections(), durability));
  FitMetrics::Get().checkpoint_ms->Observe(commit_timer.ElapsedMillis());
  util::KillPoint(util::kill_sites::kAdvisorCheckpoint, generation);
  return Status::OK();
}

std::vector<util::SnapshotSection> AutoCe::BuildSnapshotSections() const {
  std::vector<util::SnapshotSection> sections;
  {
    BinaryWriter w;
    w.WriteU32(kSnapshotFormatVersion);
    w.WriteI64(config_.feature.max_columns);
    w.WriteI64(config_.gin.num_layers);
    w.WriteI64(config_.gin.hidden);
    w.WriteI64(config_.gin.embedding_dim);
    w.WriteI64(config_.dml.epochs);
    w.WriteI64(config_.dml.batch_size);
    w.WriteDouble(config_.dml.tau);
    w.WriteDouble(config_.dml.gamma);
    w.WriteDouble(config_.dml.learning_rate);
    w.WriteDouble(config_.dml.clip_norm);
    w.WriteU32(static_cast<uint32_t>(config_.dml.loss));
    w.WriteI64(config_.knn_k);
    w.WriteDoubles(config_.training_weights);
    w.WriteU32(config_.enable_incremental ? 1 : 0);
    w.WriteU32(config_.enable_augmentation ? 1 : 0);
    w.WriteDouble(config_.d_error_threshold);
    w.WriteI64(config_.incremental_folds);
    w.WriteDouble(config_.mixup_alpha);
    w.WriteDouble(config_.mixup_beta);
    w.WriteI64(config_.incremental_epochs);
    w.WriteI64(config_.validation_interval);
    w.WriteDouble(config_.drift_percentile);
    w.WriteI64(config_.online_update_epochs);
    w.WriteU64(config_.seed);
    sections.push_back({kSecConfig, w.buffer()});
  }
  if (rcs_section_cache_.empty()) {
    BinaryWriter w;
    w.WriteU64(graphs_.size());
    for (size_t i = 0; i < graphs_.size(); ++i) {
      w.WriteString(graphs_[i].dataset_name);
      WriteMatrix(&w, graphs_[i].vertices);
      WriteMatrix(&w, graphs_[i].edges);
      const DatasetLabel& label = labels_[i];
      for (int m = 0; m < ce::kNumModels; ++m) {
        w.WriteDouble(label.accuracy_score[static_cast<size_t>(m)]);
        w.WriteDouble(label.efficiency_score[static_cast<size_t>(m)]);
        w.WriteDouble(label.qerror_mean[static_cast<size_t>(m)]);
        w.WriteDouble(label.latency_ms[static_cast<size_t>(m)]);
        w.WriteU32(label.failed[static_cast<size_t>(m)] ? 1 : 0);
      }
    }
    w.WriteDoubles(label_mean_);
    rcs_section_cache_ = w.buffer();
  }
  sections.push_back({kSecRcs, rcs_section_cache_});
  {
    BinaryWriter w;
    auto params = const_cast<gnn::GinEncoder*>(encoder_.get())->Params();
    w.WriteU64(params.size());
    for (const nn::Matrix* p : params) WriteMatrix(&w, *p);
    sections.push_back({kSecEncoder, w.buffer()});
  }
  {
    BinaryWriter w;
    w.WriteU64(best_params_.size());
    for (const nn::Matrix& m : best_params_) WriteMatrix(&w, m);
    sections.push_back({kSecBest, w.buffer()});
  }
  {
    BinaryWriter w;
    WriteRngState(&w, rng_.SaveState());
    WriteRngState(&w, train_rng_.SaveState());
    sections.push_back({kSecRng, w.buffer()});
  }
  {
    BinaryWriter w;
    w.WriteU32(static_cast<uint32_t>(cursor_.phase));
    w.WriteI64(cursor_.trained_epochs);
    w.WriteDouble(cursor_.best_err);
    w.WriteU64(cursor_.val_idx.size());
    for (size_t i : cursor_.val_idx) w.WriteU64(i);
    sections.push_back({kSecCursor, w.buffer()});
  }
  return sections;
}

Result<AutoCe> AutoCe::FromSnapshotSections(
    const std::vector<util::SnapshotSection>& sections) {
  // Unknown sections are ignored, so older generations that still carry
  // an "optimizer" section keep loading.
  const char* required[] = {kSecConfig, kSecRcs, kSecEncoder, kSecBest,
                            kSecRng,    kSecCursor};
  for (const char* name : required) {
    if (FindSection(sections, name) == nullptr) {
      return Status::DataLoss(std::string("snapshot is missing section '") +
                              name + "'");
    }
  }

  AutoCeConfig config;
  {
    const auto* sec = FindSection(sections, kSecConfig);
    BinaryReader r(sec->payload.data(), sec->payload.size());
    uint32_t fmt = r.ReadU32();
    if (r.status().ok() && fmt != kSnapshotFormatVersion) {
      return Status::InvalidArgument("unsupported snapshot format version " +
                                     std::to_string(fmt));
    }
    config.feature.max_columns = static_cast<int>(r.ReadI64());
    config.gin.num_layers = static_cast<int>(r.ReadI64());
    config.gin.hidden = static_cast<int>(r.ReadI64());
    config.gin.embedding_dim = static_cast<int>(r.ReadI64());
    config.dml.epochs = static_cast<int>(r.ReadI64());
    config.dml.batch_size = static_cast<int>(r.ReadI64());
    config.dml.tau = r.ReadDouble();
    config.dml.gamma = r.ReadDouble();
    config.dml.learning_rate = r.ReadDouble();
    config.dml.clip_norm = r.ReadDouble();
    config.dml.loss = static_cast<gnn::ContrastiveLoss>(r.ReadU32());
    config.knn_k = static_cast<int>(r.ReadI64());
    config.training_weights = r.ReadDoubles();
    config.enable_incremental = r.ReadU32() != 0;
    config.enable_augmentation = r.ReadU32() != 0;
    config.d_error_threshold = r.ReadDouble();
    config.incremental_folds = static_cast<int>(r.ReadI64());
    config.mixup_alpha = r.ReadDouble();
    config.mixup_beta = r.ReadDouble();
    config.incremental_epochs = static_cast<int>(r.ReadI64());
    config.validation_interval = static_cast<int>(r.ReadI64());
    config.drift_percentile = r.ReadDouble();
    config.online_update_epochs = static_cast<int>(r.ReadI64());
    config.seed = r.ReadU64();
    AUTOCE_RETURN_NOT_OK(r.status());
    AUTOCE_RETURN_NOT_OK(ValidateLoadedConfig(config));
  }

  AutoCe advisor(config);
  {
    const auto* sec = FindSection(sections, kSecRcs);
    BinaryReader r(sec->payload.data(), sec->payload.size());
    uint64_t n = r.ReadU64();
    AUTOCE_RETURN_NOT_OK(r.status());
    for (uint64_t i = 0; i < n; ++i) {
      featgraph::FeatureGraph g;
      g.dataset_name = r.ReadString();
      AUTOCE_ASSIGN_OR_RETURN(g.vertices, ReadMatrix(&r));
      AUTOCE_ASSIGN_OR_RETURN(g.edges, ReadMatrix(&r));
      DatasetLabel label;
      for (int m = 0; m < ce::kNumModels; ++m) {
        label.accuracy_score[static_cast<size_t>(m)] = r.ReadDouble();
        label.efficiency_score[static_cast<size_t>(m)] = r.ReadDouble();
        label.qerror_mean[static_cast<size_t>(m)] = r.ReadDouble();
        label.latency_ms[static_cast<size_t>(m)] = r.ReadDouble();
        label.failed[static_cast<size_t>(m)] = r.ReadU32() != 0;
      }
      // Every RCS member passed this check on its way in (Fit and
      // AddLabeledSamples validate samples), so a mismatch here is a
      // corrupt file — caught before the encoder would abort on it.
      Status shape = featgraph::ValidateGraph(g, advisor.extractor_.vertex_dim());
      if (!shape.ok()) return Status::DataLoss("snapshot RCS " + shape.message());
      advisor.graphs_.push_back(std::move(g));
      advisor.labels_.push_back(label);
    }
    advisor.label_mean_ = r.ReadDoubles();
    AUTOCE_RETURN_NOT_OK(r.status());
    if (advisor.label_mean_.size() !=
        config.training_weights.size() * static_cast<size_t>(ce::kNumModels)) {
      return Status::DataLoss("snapshot centering vector size mismatch");
    }
    for (const auto& label : advisor.labels_) {
      advisor.dml_labels_.push_back(advisor.BuildDmlLabel(label));
    }
  }

  {
    const auto* sec = FindSection(sections, kSecEncoder);
    BinaryReader r(sec->payload.data(), sec->payload.size());
    Rng init_rng(1);
    advisor.encoder_ = std::make_unique<gnn::GinEncoder>(
        advisor.extractor_.vertex_dim(), config.gin, &init_rng);
    auto params = advisor.encoder_->Params();
    uint64_t num_params = r.ReadU64();
    if (r.status().ok() && num_params != params.size()) {
      return Status::DataLoss("snapshot encoder parameter count mismatch");
    }
    for (nn::Matrix* p : params) {
      AUTOCE_ASSIGN_OR_RETURN(nn::Matrix m, ReadMatrix(&r));
      if (!m.SameShape(*p)) {
        return Status::DataLoss("snapshot encoder parameter shape mismatch");
      }
      *p = std::move(m);
    }
    AUTOCE_RETURN_NOT_OK(r.status());
  }

  {
    // The best checkpointed encoder while chunks run, empty afterwards;
    // when present it must fit the encoder it is restored into.
    const auto* sec = FindSection(sections, kSecBest);
    BinaryReader r(sec->payload.data(), sec->payload.size());
    uint64_t count = r.ReadU64();
    AUTOCE_RETURN_NOT_OK(r.status());
    auto params = advisor.encoder_->Params();
    if (count != 0 && count != params.size()) {
      return Status::DataLoss("snapshot best-encoder parameter count mismatch");
    }
    for (uint64_t i = 0; i < count; ++i) {
      AUTOCE_ASSIGN_OR_RETURN(nn::Matrix m, ReadMatrix(&r));
      if (!m.SameShape(*params[i])) {
        return Status::DataLoss("snapshot best-encoder parameter shape mismatch");
      }
      advisor.best_params_.push_back(std::move(m));
    }
  }

  {
    const auto* sec = FindSection(sections, kSecRng);
    BinaryReader r(sec->payload.data(), sec->payload.size());
    advisor.rng_.RestoreState(ReadRngState(&r));
    advisor.train_rng_.RestoreState(ReadRngState(&r));
    AUTOCE_RETURN_NOT_OK(r.status());
  }

  {
    const auto* sec = FindSection(sections, kSecCursor);
    BinaryReader r(sec->payload.data(), sec->payload.size());
    uint32_t phase = r.ReadU32();
    if (r.status().ok() && phase > static_cast<uint32_t>(FitPhase::kPlain)) {
      return Status::DataLoss("snapshot cursor has invalid phase " +
                              std::to_string(phase));
    }
    advisor.cursor_.phase = static_cast<FitPhase>(phase);
    if (advisor.cursor_.phase == FitPhase::kChunk &&
        advisor.best_params_.empty()) {
      return Status::DataLoss("snapshot in chunk training has no best encoder");
    }
    advisor.cursor_.trained_epochs = static_cast<int>(r.ReadI64());
    advisor.cursor_.best_err = r.ReadDouble();
    uint64_t vn = r.ReadU64();
    AUTOCE_RETURN_NOT_OK(r.status());
    if (vn > r.remaining() / sizeof(uint64_t)) {
      return Status::DataLoss("snapshot cursor val_idx exceeds payload");
    }
    advisor.cursor_.val_idx.reserve(vn);
    for (uint64_t i = 0; i < vn; ++i) {
      advisor.cursor_.val_idx.push_back(static_cast<size_t>(r.ReadU64()));
    }
    AUTOCE_RETURN_NOT_OK(r.status());
  }

  advisor.fit_report_ = FitReport{};
  advisor.fit_report_.samples_total = advisor.graphs_.size();
  advisor.RefreshEmbeddings();
  advisor.RefreshDriftThreshold();
  return advisor;
}

Result<AutoCe> AutoCe::ResumeFit(const std::string& dir,
                                 util::SnapshotStoreOptions options,
                                 uint64_t* generation_out) {
  AUTOCE_ASSIGN_OR_RETURN(util::SnapshotStore store,
                          util::SnapshotStore::Open(dir, options));
  uint64_t generation = 0;
  AUTOCE_ASSIGN_OR_RETURN(std::vector<util::SnapshotSection> sections,
                          store.LoadLatest(&generation));
  AUTOCE_ASSIGN_OR_RETURN(AutoCe advisor, FromSnapshotSections(sections));
  advisor.store_ = std::make_unique<util::SnapshotStore>(std::move(store));
  if (advisor.cursor_.phase != FitPhase::kDone) {
    AUTOCE_LOG(Info) << "resuming interrupted fit from snapshot generation "
                     << generation;
    AUTOCE_RETURN_NOT_OK(advisor.RunCheckpointedFit());
  }
  if (generation_out != nullptr) *generation_out = generation;
  return advisor;
}

uint64_t AutoCe::EncoderDigest() const {
  if (encoder_ == nullptr) return 0;
  uint64_t h = util::kFnv1aBasis;
  auto params = const_cast<gnn::GinEncoder*>(encoder_.get())->Params();
  for (const nn::Matrix* p : params) h = DigestMatrix(*p, h);
  // 0 is the "invalid" sentinel of embed_digest_; remap the (absurdly
  // unlikely) collision so a real digest never reads as invalid.
  return h == 0 ? 1 : h;
}

uint64_t AutoCe::ModelDigest() const {
  uint64_t h = util::kFnv1aBasis;
  uint64_t n = graphs_.size();
  h = util::Fnv1a(&n, sizeof(n), h);
  for (size_t i = 0; i < graphs_.size(); ++i) {
    const featgraph::FeatureGraph& g = graphs_[i];
    h = util::Fnv1a(g.dataset_name, h);
    h = DigestMatrix(g.vertices, h);
    h = DigestMatrix(g.edges, h);
    const DatasetLabel& label = labels_[i];
    h = util::Fnv1a(label.accuracy_score.data(),
                    label.accuracy_score.size() * sizeof(double), h);
    h = util::Fnv1a(label.efficiency_score.data(),
                    label.efficiency_score.size() * sizeof(double), h);
    h = util::Fnv1a(label.qerror_mean.data(),
                    label.qerror_mean.size() * sizeof(double), h);
    h = util::Fnv1a(label.latency_ms.data(),
                    label.latency_ms.size() * sizeof(double), h);
    h = util::Fnv1a(label.failed.data(), label.failed.size(), h);
  }
  h = util::Fnv1a(label_mean_.data(), label_mean_.size() * sizeof(double), h);
  if (encoder_ != nullptr) {
    auto params = const_cast<gnn::GinEncoder*>(encoder_.get())->Params();
    for (const nn::Matrix* p : params) h = DigestMatrix(*p, h);
  }
  h = util::Fnv1a(&drift_threshold_, sizeof(drift_threshold_), h);
  return h;
}

}  // namespace autoce::advisor

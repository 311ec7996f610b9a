#ifndef AUTOCE_ADVISOR_AUTOCE_H_
#define AUTOCE_ADVISOR_AUTOCE_H_

#include <memory>
#include <string>
#include <vector>

#include "advisor/label.h"
#include "gnn/metric_learning.h"
#include "knn/index.h"
#include "util/result.h"
#include "util/snapshot.h"

namespace autoce::advisor {

/// Configuration of the full AutoCE advisor.
struct AutoCeConfig {
  featgraph::FeatureGraphConfig feature;
  gnn::GinConfig gin;
  gnn::DmlConfig dml;

  /// k of the KNN predictor (paper Table IV: k = 2 is best).
  int knn_k = 2;

  /// Weight combinations whose score vectors form the DML similarity
  /// label (and are supported at recommendation time).
  std::vector<double> training_weights = {1.0, 0.9, 0.7, 0.5, 0.3, 0.1};

  /// Stage 3 (incremental learning, Algorithm 2).
  bool enable_incremental = true;
  bool enable_augmentation = true;  ///< false = retrain without Mixup
  double d_error_threshold = 0.1;   ///< b in Algorithm 2
  int incremental_folds = 5;        ///< xi in Algorithm 2
  double mixup_alpha = 2.0;
  double mixup_beta = 2.0;
  int incremental_epochs = 10;

  /// Validation-based checkpointing: DML training runs in chunks of
  /// `validation_interval` epochs; after each chunk the leave-one-out
  /// cross-validated D-error over the training corpus (the signal
  /// Algorithm 2 already computes) is evaluated and the best encoder
  /// state is kept. Guards against embedding collapse from over-training
  /// the contrastive objective on small corpora. 0 disables.
  int validation_interval = 5;

  /// Online adapting (Sec. V-E): drift threshold percentile.
  double drift_percentile = 90.0;
  int online_update_epochs = 3;

  uint64_t seed = 42;
};

/// \brief The AutoCE model advisor (paper Sec. III-VI).
///
/// `Fit` runs Stages 2-3: trains the similarity-aware GIN encoder with
/// deep metric learning over the labeled corpus, then (optionally) runs
/// the incremental-learning phase that Mixup-augments poorly-predicted
/// samples. `Recommend` runs Stage 4: embeds the target dataset,
/// retrieves the k nearest labeled embeddings, averages their score
/// vectors under the requested metric weights, and returns the arg-max
/// model (Eq. 13).
class AutoCe {
 public:
  explicit AutoCe(AutoCeConfig config = {});

  const AutoCeConfig& config() const { return config_; }
  const featgraph::FeatureExtractor& extractor() const { return extractor_; }

  /// What Fit did with corrupt inputs: how many samples were dropped
  /// before training (bad graph shape, non-finite label, injected
  /// fault) and how many DML batches were skipped for non-finite
  /// losses/gradients. `skipped_reasons` keeps the first few diagnoses.
  struct FitReport {
    size_t samples_total = 0;
    size_t samples_skipped = 0;
    int dml_batches_skipped = 0;
    std::vector<std::string> skipped_reasons;
  };

  /// Stage 2 + 3. Graphs/labels are copied into the recommendation
  /// candidate set (RCS). Samples that fail validation (graph shape
  /// mismatch, non-finite features or label scores) are skipped and
  /// reported in `fit_report()` instead of aborting; Fit only fails
  /// when fewer than 4 valid samples remain.
  Status Fit(const std::vector<featgraph::FeatureGraph>& graphs,
             const std::vector<DatasetLabel>& labels);

  /// Degradation report of the most recent Fit() call.
  const FitReport& fit_report() const { return fit_report_; }

  struct Recommendation {
    ce::ModelId model = ce::ModelId::kMscn;
    std::vector<double> score_vector;   // averaged neighbor scores at w_a
    std::vector<size_t> neighbors;      // RCS indices used
    /// True when KNN retrieval was impossible (non-finite target
    /// embedding or no usable RCS embedding) and the recommendation
    /// fell back to the corpus-level default model — the argmax of the
    /// mean RCS score vector, the same model the drift detector
    /// defaults to for out-of-distribution datasets.
    bool degraded = false;
    std::string degraded_reason;
  };

  /// Stage 4 for a pre-extracted feature graph. Rejects graphs whose
  /// shape does not match the trained extractor config
  /// (InvalidArgument); degrades to the corpus default model (see
  /// Recommendation::degraded) instead of failing when the embedding
  /// or the RCS is unusable.
  Result<Recommendation> Recommend(const featgraph::FeatureGraph& graph,
                                   double w_a) const;

  /// Stage 4 end-to-end from a dataset (validated first).
  Result<Recommendation> RecommendDataset(const data::Dataset& dataset,
                                          double w_a) const;

  /// Stage 4 from a precomputed embedding (the serving layer embeds
  /// requests in batches, then answers each through this entry point;
  /// Recommend delegates here after embedding). Same degradation
  /// contract as Recommend.
  Result<Recommendation> RecommendFromEmbedding(
      std::span<const double> embedding, double w_a) const;

  /// Embedding of a graph under the trained encoder.
  std::vector<double> Embed(const featgraph::FeatureGraph& graph) const;

  /// Batched embedding: one stacked GIN forward over all graphs,
  /// bit-identical to calling Embed per graph (see GinEncoder::
  /// EmbedBatch).
  std::vector<std::vector<double>> EmbedBatch(
      const std::vector<const featgraph::FeatureGraph*>& graphs) const;

  /// FNV-1a digest over the encoder parameters alone. Changes exactly
  /// when the encoder weights change (training chunk, incremental
  /// learning, online update, hot reload) — the serving layer keys its
  /// embedding cache on it, and RefreshEmbeddings uses it to detect
  /// that only appended RCS members need embedding.
  uint64_t EncoderDigest() const;

  /// The KNN index over the RCS embeddings (rebuilt by every
  /// RefreshEmbeddings). Exposed for the serving layer and benches.
  const knn::Index& rcs_index() const { return knn_index_; }

  /// The RCS labels, aligned with rcs_index() member indices.
  const std::vector<DatasetLabel>& rcs_labels() const { return labels_; }

  /// The RCS feature graphs, aligned with rcs_labels(). The adaptation
  /// pipeline dedups replayed feedback against them by fingerprint, and
  /// Mixup augmentation interpolates toward them.
  const std::vector<featgraph::FeatureGraph>& rcs_graphs() const {
    return graphs_;
  }

  /// The corpus-default degraded recommendation — the same fallback
  /// Recommend degrades to when KNN retrieval is impossible. The
  /// serving layer sheds overloaded requests to it.
  Recommendation CorpusDefault(double w_a, std::string reason) const;

  /// --- Online adapting (Sec. V-E) ---

  /// Distance from a graph's embedding to the nearest RCS embedding.
  double DistanceToRcs(const featgraph::FeatureGraph& graph) const;

  /// The drift threshold: the configured percentile of each RCS member's
  /// nearest-neighbor distance.
  double DriftThreshold() const { return drift_threshold_; }

  /// True when the graph is an unexpected distribution (distance beyond
  /// the drift threshold).
  bool IsOutOfDistribution(const featgraph::FeatureGraph& graph) const;

  /// Online learning: adds a freshly labeled sample to the RCS and
  /// fine-tunes the encoder on it (a few DML epochs over the
  /// neighborhood), then refreshes embeddings and the drift threshold.
  Status AddLabeledSample(const featgraph::FeatureGraph& graph,
                          const DatasetLabel& label);

  /// Online learning over a small batch applied atomically at the
  /// snapshot level: every sample is validated up front, then appended
  /// and fine-tuned in order, and ONE checkpoint generation is
  /// committed after the shared embedding/threshold refresh (no-op
  /// without a store). Bit-identical to per-sample AddLabeledSample
  /// calls — the per-sample refreshes they run are pure functions of
  /// (encoder, corpus) and do not feed the fine-tune — but a crash
  /// mid-call can never persist a partial batch: the store still holds
  /// the pre-call generation. A fine-tune error mid-batch leaves the
  /// in-memory corpus ahead of the durable store; callers that need
  /// rollback reload from the store (see adapt::AdaptationPipeline).
  Status AddLabeledSamples(const std::vector<featgraph::FeatureGraph>& graphs,
                           const std::vector<DatasetLabel>& labels);

  /// Number of labeled samples in the RCS.
  size_t RcsSize() const { return labels_.size(); }

  /// Persists the fitted advisor to `path` as one snapshot generation:
  /// the same CRC-framed sections a checkpoint commits, so a `.ace` file
  /// is byte-identical to the store generation of the same state. The
  /// write is atomic (temp file + rename); reload with Load().
  Status Save(const std::string& path) const;

  /// Restores an advisor from a Save() file or any snapshot generation
  /// file, bit-identical to the saved one (embeddings and the drift
  /// threshold are recomputed). A corrupt or truncated file fails with
  /// DataLoss; a file in the retired pre-snapshot `.ace` layout fails
  /// with InvalidArgument.
  static Result<AutoCe> Load(const std::string& path);

  /// --- Crash-safe snapshots and resumable training ---

  /// Where a (possibly interrupted) Fit stands. Persisted in every
  /// snapshot so ResumeFit knows which phase to re-enter.
  enum class FitPhase : uint32_t {
    kChunk = 0,        ///< chunked DML training in progress
    kIncremental = 1,  ///< chunks done; incremental learning pending
    kDone = 2,         ///< training complete
    kPlain = 3,        ///< single-shot fit (validation_interval <= 0) pending
  };

  /// The training cursor: phase, epochs completed, and the held-out
  /// validation split plus its best error so far.
  struct TrainCursor {
    FitPhase phase = FitPhase::kDone;
    int trained_epochs = 0;
    double best_err = 0.0;
    std::vector<size_t> val_idx;
  };

  /// Attaches a crash-safe snapshot store at `dir` (created if needed).
  /// Once attached, Fit commits a snapshot generation at every
  /// validation checkpoint and AddLabeledSample after every online
  /// update.
  Status EnableSnapshots(const std::string& dir,
                         util::SnapshotStoreOptions options = {});

  /// Resumes an interrupted Fit: loads the newest good snapshot under
  /// `dir` and continues training from its cursor, committing further
  /// checkpoints into the same store. The resumed run reaches a final
  /// model bit-identical to the uninterrupted one (every RNG stream is
  /// restored from the snapshot). A kDone snapshot restores the
  /// finished advisor as-is. `generation` (optional) receives the
  /// loaded snapshot generation — the serving layer reports it as the
  /// model version.
  static Result<AutoCe> ResumeFit(const std::string& dir,
                                  util::SnapshotStoreOptions options = {},
                                  uint64_t* generation = nullptr);

  const TrainCursor& train_cursor() const { return cursor_; }

  /// FNV-1a digest over all model state (RCS graphs and labels,
  /// centering vector, encoder parameters, drift threshold) — the
  /// bit-identity witness used by the kill-point recovery harness.
  uint64_t ModelDigest() const;

  /// Mean D-error of the advisor over labeled evaluation data.
  double EvaluateMeanDError(
      const std::vector<featgraph::FeatureGraph>& graphs,
      const std::vector<DatasetLabel>& labels, double w_a) const;

 private:
  /// Centered DML similarity label for one dataset label.
  std::vector<double> BuildDmlLabel(const DatasetLabel& label) const;

  /// Validates one (graph, label) training sample; `index` keys the
  /// `advisor.fit.sample` fault site.
  Status ValidateSample(const featgraph::FeatureGraph& graph,
                        const DatasetLabel& label, size_t index) const;

  /// Mean D-error of the held-out validation members under KNN over the
  /// non-validation RCS (averaged over the supported weights) — the
  /// checkpointing signal of Fit.
  double HoldOutDError(const std::vector<size_t>& val_idx) const;

  /// Recomputes RCS embeddings and rebuilds the KNN index. Incremental
  /// when the encoder is unchanged since the last refresh (per
  /// EncoderDigest) and members were only appended: only the new tail
  /// is embedded. Any weight change forces a full recompute.
  void RefreshEmbeddings();
  void RefreshDriftThreshold();
  Status RunIncrementalLearning();

  /// Executes the remaining Fit phases from `cursor_`, committing a
  /// snapshot at every checkpoint (no-op commits without a store).
  /// Shared by Fit (cursor freshly initialized) and ResumeFit (cursor
  /// restored from the last good snapshot).
  Status RunCheckpointedFit();

  /// Commits the current state into the attached store and passes the
  /// `advisor.checkpoint` kill point; OK when no store is attached.
  Status CommitCheckpoint();

  std::vector<util::SnapshotSection> BuildSnapshotSections() const;
  static Result<AutoCe> FromSnapshotSections(
      const std::vector<util::SnapshotSection>& sections);
  std::vector<size_t> NearestNeighbors(
      const std::vector<double>& embedding, size_t k,
      size_t exclude = SIZE_MAX,
      const std::vector<char>* allowed = nullptr) const;

  AutoCeConfig config_;
  featgraph::FeatureExtractor extractor_;
  std::unique_ptr<gnn::GinEncoder> encoder_;
  Rng rng_;

  // Recommendation candidate set.
  std::vector<featgraph::FeatureGraph> graphs_;
  std::vector<DatasetLabel> labels_;
  std::vector<double> label_mean_;               // centering vector
  std::vector<std::vector<double>> dml_labels_;  // centered concat scores
  std::vector<std::vector<double>> embeddings_;
  /// embedding_ok_[i] is false when embeddings_[i] has non-finite
  /// entries; such members are skipped by every KNN retrieval (they
  /// build into the index as unusable).
  std::vector<char> embedding_ok_;
  /// Exact KNN over embeddings_; every retrieval (Recommend, drift,
  /// validation D-error) goes through it.
  knn::Index knn_index_;
  /// EncoderDigest() at the last RefreshEmbeddings; 0 = embeddings are
  /// invalid and the next refresh must be full.
  uint64_t embed_digest_ = 0;
  double drift_threshold_ = 0.0;
  FitReport fit_report_;

  // Resumable-training state (persisted by snapshots).
  TrainCursor cursor_;
  Rng train_rng_{0};                     // DML training stream
  /// Best checkpointed encoder during chunk training; empty afterwards.
  std::vector<nn::Matrix> best_params_;
  std::unique_ptr<util::SnapshotStore> store_;
  /// Serialized RCS section, reused across checkpoints (the corpus only
  /// changes between fits / online updates, not between training chunks,
  /// and it is the largest section by far). Empty = rebuild.
  mutable std::string rcs_section_cache_;
};

}  // namespace autoce::advisor

#endif  // AUTOCE_ADVISOR_AUTOCE_H_

#include "gnn/metric_learning.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "nn/optimizer.h"
#include "util/fault.h"
#include "util/logging.h"

namespace autoce::gnn {

double PerformanceSimilarity(const std::vector<double>& a,
                             const std::vector<double>& b) {
  return nn::CosineSimilarity(a, b);
}

DmlTrainer::DmlTrainer(GinEncoder* encoder, DmlConfig config)
    : encoder_(encoder), config_(config) {
  optimizer_ = std::make_unique<nn::Adam>(
      encoder_->Params(), encoder_->Grads(), config_.learning_rate,
      config_.clip_norm);
}

Result<double> DmlTrainer::TrainBatch(
    const std::vector<const featgraph::FeatureGraph*>& batch,
    const std::vector<const std::vector<double>*>& labels,
    uint64_t fault_key) {
  size_t m = batch.size();
  AUTOCE_CHECK(m == labels.size());
  if (m < 2) return 0.0;
  size_t d = encoder_->embedding_dim();

  // Embeddings with traces (one forward per graph).
  std::vector<GinTrace> traces(m);
  std::vector<nn::Matrix> x(m);
  for (size_t i = 0; i < m; ++i) x[i] = encoder_->Forward(*batch[i], &traces[i]);

  // Pairwise similarities (Eq. 6) and distances (Eq. 8).
  nn::Matrix sim(m, m);
  nn::Matrix u(m, m);
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < m; ++j) {
      if (i == j) continue;
      sim(i, j) = PerformanceSimilarity(*labels[i], *labels[j]);
      u(i, j) = nn::EuclideanDistance(x[i].RowSpan(0), x[j].RowSpan(0));
    }
  }

  double loss = 0.0;
  // dL/dU for every ordered pair (anchor i, instance j).
  nn::Matrix du(m, m);
  double inv_m = 1.0 / static_cast<double>(m);

  for (size_t i = 0; i < m; ++i) {
    std::vector<size_t> pos, neg;
    for (size_t j = 0; j < m; ++j) {
      if (j == i) continue;
      (sim(i, j) >= config_.tau ? pos : neg).push_back(j);
    }
    if (config_.loss == ContrastiveLoss::kBasic) {
      // Eq. 10: sum of positive distances minus sum of negative distances.
      for (size_t j : pos) {
        loss += inv_m * u(i, j);
        du(i, j) += inv_m;
      }
      for (size_t j : neg) {
        loss -= inv_m * u(i, j);
        du(i, j) -= inv_m;
      }
      continue;
    }
    // Eq. 9, positive term: log sum_k exp(U_ik + Sim_ik).
    if (!pos.empty()) {
      double mx = -1e300;
      for (size_t j : pos) mx = std::max(mx, u(i, j) + sim(i, j));
      double z = 0.0;
      for (size_t j : pos) z += std::exp(u(i, j) + sim(i, j) - mx);
      loss += inv_m * (mx + std::log(z));
      for (size_t j : pos) {
        du(i, j) += inv_m * std::exp(u(i, j) + sim(i, j) - mx) / z;
      }
    }
    // Eq. 9, negative term: log sum_k exp(gamma - U_ik - Sim_ik).
    if (!neg.empty()) {
      double mx = -1e300;
      for (size_t j : neg) {
        mx = std::max(mx, config_.gamma - u(i, j) - sim(i, j));
      }
      double z = 0.0;
      for (size_t j : neg) {
        z += std::exp(config_.gamma - u(i, j) - sim(i, j) - mx);
      }
      loss += inv_m * (mx + std::log(z));
      for (size_t j : neg) {
        du(i, j) -= inv_m *
                    std::exp(config_.gamma - u(i, j) - sim(i, j) - mx) / z;
      }
    }
  }

  if (util::FaultPoint(util::fault_sites::kDmlLoss,
                       util::FaultKeyMix(fault_key, m))) {
    loss = std::numeric_limits<double>::quiet_NaN();
  }
  if (!std::isfinite(loss)) {
    return Status::Internal("DML: non-finite contrastive loss");
  }

  // Embedding gradients: dU_ij/dX_i = (X_i - X_j) / U_ij.
  std::vector<nn::Matrix> gx(m, nn::Matrix(1, d, 0.0));
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < m; ++j) {
      if (i == j || du(i, j) == 0.0) continue;
      double dist = std::max(u(i, j), 1e-8);
      for (size_t c = 0; c < d; ++c) {
        double diff = (x[i](0, c) - x[j](0, c)) / dist;
        gx[i](0, c) += du(i, j) * diff;
        gx[j](0, c) -= du(i, j) * diff;
      }
    }
  }

  if (util::FaultPoint(util::fault_sites::kDmlGrad,
                       util::FaultKeyMix(fault_key, 0x47524144ULL))) {
    gx[0](0, 0) = std::numeric_limits<double>::quiet_NaN();
  }
  for (size_t i = 0; i < m; ++i) {
    if (!nn::IsFinite(gx[i])) {
      return Status::Internal("DML: non-finite embedding gradient");
    }
  }

  // Per-sample backward passes in sample order. Each adds exactly one
  // term per parameter gradient entry, so the zeroed buffers end up
  // holding ((0 + g_0) + g_1) + ... in sample order.
  encoder_->ZeroGrad();
  for (size_t i = 0; i < m; ++i) encoder_->Backward(*batch[i], traces[i], gx[i]);
  for (const nn::Matrix* g : encoder_->Grads()) {
    if (!nn::IsFinite(*g)) {
      // Weights are still untouched; the stale gradient buffers are
      // overwritten by the next batch's ZeroGrad.
      return Status::Internal("DML: non-finite parameter gradient");
    }
  }
  optimizer_->Step();
  return loss;
}

Result<double> DmlTrainer::Train(
    const std::vector<featgraph::FeatureGraph>& graphs,
    const std::vector<std::vector<double>>& labels, Rng* rng) {
  if (graphs.size() != labels.size()) {
    return Status::InvalidArgument("graphs/labels size mismatch");
  }
  if (graphs.size() < 2) {
    return Status::InvalidArgument("need at least two graphs for DML");
  }
  std::vector<size_t> order(graphs.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;

  last_skipped_batches_ = 0;
  int applied_total = 0;
  Status last_error = Status::OK();
  double last_epoch_loss = 0.0;
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    rng->Shuffle(&order);
    double epoch_loss = 0.0;
    int batches = 0;
    size_t bs = static_cast<size_t>(config_.batch_size);
    for (size_t start = 0; start + 1 < order.size(); start += bs) {
      size_t end = std::min(start + bs, order.size());
      std::vector<const featgraph::FeatureGraph*> batch;
      std::vector<const std::vector<double>*> batch_labels;
      for (size_t i = start; i < end; ++i) {
        batch.push_back(&graphs[order[i]]);
        batch_labels.push_back(&labels[order[i]]);
      }
      auto batch_loss = TrainBatch(
          batch, batch_labels,
          util::FaultKeyMix(static_cast<uint64_t>(epoch), start));
      if (!batch_loss.ok()) {
        // Skip-and-report: the poisoned batch never reached the
        // weights, so continuing with the remaining batches is sound.
        ++last_skipped_batches_;
        last_error = batch_loss.status();
        continue;
      }
      epoch_loss += *batch_loss;
      ++batches;
    }
    applied_total += batches;
    last_epoch_loss = batches > 0 ? epoch_loss / batches : 0.0;
  }
  if (applied_total == 0 && !last_error.ok()) return last_error;
  return last_epoch_loss;
}

}  // namespace autoce::gnn

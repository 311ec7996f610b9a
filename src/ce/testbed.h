#ifndef AUTOCE_CE_TESTBED_H_
#define AUTOCE_CE_TESTBED_H_

#include <vector>

#include "ce/estimator.h"
#include "ce/metrics.h"
#include "query/query.h"

namespace autoce::ce {

/// Configuration of one testbed run (paper Sec. IV-B1: generate workload,
/// obtain true cardinalities, train candidates, measure performance).
/// Which Q-error aggregate drives the accuracy score (the paper uses the
/// mean and notes that percentiles are equally valid; Sec. IV-B2).
enum class QErrorMetric { kMean, kP50, kP95, kP99 };

struct TestbedConfig {
  int num_train_queries = 160;
  int num_test_queries = 80;
  QErrorMetric qerror_metric = QErrorMetric::kMean;
  ModelTrainingScale scale = ModelTrainingScale::Fast();
  query::WorkloadParams workload;
  uint64_t seed = 42;
  /// Subset of candidate models to evaluate; empty means all seven.
  std::vector<ModelId> models;
  /// When true (default), the reported inference latency is the
  /// reference per-query cost of the original systems (paper Table V:
  /// e.g. DeepDB ~50ms, NeuroCard ~137ms, LW-NN ~0.1ms per query). Our
  /// compact C++ reimplementations are orders of magnitude faster than
  /// the Python/GPU originals, which would collapse the paper's
  /// accuracy/efficiency trade-off space; using the reference profile
  /// also makes labels fully deterministic (measured wall-clock varies
  /// run to run). See DESIGN.md ("Substitutions"). Set false for raw
  /// measured wall-clock.
  bool emulate_reference_latency = true;
};

/// Returns the configured aggregate from a Q-error summary.
double SelectQErrorAggregate(const QErrorSummary& summary,
                             QErrorMetric metric);

/// Reference per-query inference latencies (ms) of the original model
/// implementations, read off the paper's Table V (inference seconds per
/// 100 queries, single-table group).
double ReferenceInferenceLatencyMs(ModelId id);

/// Structured description of why a testbed cell failed: which fault
/// site (or component) failed, the underlying cause, and how many
/// training attempts were consumed before giving up.
struct FailureInfo {
  std::string site;
  std::string cause;
  int attempts = 0;
};

/// Number of training attempts per testbed cell: the initial attempt
/// plus one bounded deterministic retry with a derived seed.
inline constexpr int kTestbedMaxAttempts = 2;

/// Measured performance of one model on one dataset.
struct ModelPerformance {
  ModelId id = ModelId::kMscn;
  QErrorSummary qerror;
  double latency_mean_ms = 0.0;  ///< mean per-query inference latency
  bool trained_ok = false;
  /// Populated when !trained_ok; downstream consumers
  /// (`advisor::MakeLabel`) substitute the sentinel worst-normalized
  /// score for such cells instead of using the garbage metrics.
  FailureInfo failure;
};

/// Everything the labeling pipeline needs downstream.
struct TestbedResult {
  std::vector<ModelPerformance> models;
  std::vector<query::Query> train_queries;
  std::vector<double> train_cards;
  std::vector<query::Query> test_queries;
  std::vector<double> test_cards;
};

/// \brief The unified CE testbed: generates a workload against `dataset`,
/// computes true cardinalities with the exact engine, trains every
/// candidate model, and measures mean Q-error and inference latency on
/// held-out test queries. This is the paper's dataset-labeling oracle.
Result<TestbedResult> RunTestbed(const data::Dataset& dataset,
                                 const TestbedConfig& config);

/// A snapshot testbed run plus the same trained models re-scored
/// against the post-update data (the "post-update" label variant,
/// DESIGN.md §5.14): `post_update[i]` is `snapshot.models[i]`'s Q-error
/// against the drifted dataset's TRUE cardinalities for the same test
/// queries. Latency keeps the reference-profile substitution — drift
/// changes data, not the original systems' inference cost.
struct DriftTestbedResult {
  TestbedResult snapshot;
  std::vector<ModelPerformance> post_update;
  std::vector<double> post_cards;  ///< test-query truth on the drifted data
};

/// \brief Runs the testbed on `snapshot_ds` and re-scores every trained
/// model against `drifted_ds` (same schema, mutated contents — e.g. K
/// `dyn::ApplyEpoch` steps ahead). Each model trains ONCE on snapshot
/// workload + truth; the post-update pass replays the held-out queries
/// against truth recomputed on the drifted data. A cell that fails in
/// either pass retries and, exhausted, carries sentinel metrics in both
/// (`advisor::MakeLabel` maps those to the worst-normalized score).
Result<DriftTestbedResult> RunDriftTestbed(const data::Dataset& snapshot_ds,
                                           const data::Dataset& drifted_ds,
                                           const TestbedConfig& config);

}  // namespace autoce::ce

#endif  // AUTOCE_CE_TESTBED_H_

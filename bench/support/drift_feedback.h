#ifndef AUTOCE_BENCH_SUPPORT_DRIFT_FEEDBACK_H_
#define AUTOCE_BENCH_SUPPORT_DRIFT_FEEDBACK_H_

#include "adapt/pipeline.h"
#include "data/dataset.h"
#include "featgraph/featgraph.h"
#include "fss/estimator_service.h"

namespace autoce::adapt {

/// \brief Wires observed-subplan drift into the adaptation loop.
///
/// Installs a disagreement hook on `service`: whenever executor
/// feedback reports a true cardinality that disagrees with the answer
/// the knowledge/cache tiers would have served by more than
/// `EstimatorServiceOptions::drift_disagreement_threshold`, the hook
/// offers `(dataset, graph)` to `pipeline->MaybeEnqueue`. The pipeline
/// dedups by feature-graph fingerprint and applies its own drift gate,
/// so a burst of disagreeing subplans costs at most one retrain unit.
///
/// `dataset` and `graph` must outlive the hook (they are captured by
/// pointer); rebind after mutating the dataset or re-extracting the
/// graph. Requires `service->set_disagreement_hook` to stay bound to
/// this seam — installing another hook replaces it.
void BindDriftFeedback(fss::EstimatorService* service,
                       AdaptationPipeline* pipeline,
                       const data::Dataset* dataset,
                       const featgraph::FeatureGraph* graph);

/// Removes any installed disagreement hook from `service`.
void UnbindDriftFeedback(fss::EstimatorService* service);

}  // namespace autoce::adapt

#endif  // AUTOCE_BENCH_SUPPORT_DRIFT_FEEDBACK_H_

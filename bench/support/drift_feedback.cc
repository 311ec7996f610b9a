#include "bench/support/drift_feedback.h"

#include "obs/metrics.h"
#include "util/logging.h"

namespace autoce::adapt {

void BindDriftFeedback(fss::EstimatorService* service,
                       AdaptationPipeline* pipeline,
                       const data::Dataset* dataset,
                       const featgraph::FeatureGraph* graph) {
  AUTOCE_CHECK(service != nullptr);
  AUTOCE_CHECK(pipeline != nullptr);
  AUTOCE_CHECK(dataset != nullptr);
  AUTOCE_CHECK(graph != nullptr);
  obs::Counter* offered = obs::MetricsRegistry::Instance().GetCounter(
      "adapt.drift_feedback_offers");
  service->set_disagreement_hook(
      [pipeline, dataset, graph, offered](const query::Query&, double) {
        // MaybeEnqueue never blocks and dedups by fingerprint, so the
        // hook is safe on the executor feedback path.
        pipeline->MaybeEnqueue(*dataset, *graph);
        offered->Add();
      });
}

void UnbindDriftFeedback(fss::EstimatorService* service) {
  AUTOCE_CHECK(service != nullptr);
  service->set_disagreement_hook({});
}

}  // namespace autoce::adapt

#ifndef AUTOCE_SERVE_SERVER_H_
#define AUTOCE_SERVE_SERVER_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "advisor/autoce.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "util/result.h"
#include "util/snapshot.h"

namespace autoce::serve {

/// Configuration of the embedded advisor service.
struct ServerConfig {
  /// Coalesce at most this many admitted requests into one batched GIN
  /// forward (GinEncoder::EmbedBatch); >= 1.
  size_t max_batch = 8;
  /// Admission bound per Serve call: requests beyond this many are shed
  /// to the degraded corpus-default recommendation instead of queueing.
  size_t queue_capacity = 64;
  /// Entries held by the fingerprint-keyed LRU embedding cache.
  size_t cache_capacity = 128;
  /// Default per-request deadline in ms (0 = none), measured from the
  /// start of the request's Serve burst. A request whose deadline has
  /// already passed when its turn comes (at admission, or when its
  /// batch starts after earlier batches consumed the time) is shed to
  /// the degraded corpus default instead of embedded — late answers
  /// are worthless to a query optimizer waiting on a plan. Overridden
  /// per request by `RecommendRequest::deadline_ms`.
  double request_deadline_ms = 0.0;
  /// Monotonic seconds source for deadline checks (steady clock when
  /// empty). Deadline shedding under the real clock is load-dependent —
  /// execution metadata like `from_cache`, excluded from determinism
  /// digests; tests inject a clock to make it reproducible.
  obs::Clock clock;
};

/// One recommendation request. `id` is echoed back so callers can match
/// responses after shuffled arrival.
struct RecommendRequest {
  uint64_t id = 0;
  featgraph::FeatureGraph graph;
  double w_a = 0.5;
  /// Per-request deadline in ms (0 = use the server default).
  double deadline_ms = 0.0;
};

/// The server's answer to one request.
///
/// Determinism contract: for a fixed model generation, `status`,
/// `recommendation`, and `shed` are pure functions of the request
/// content — the same at any `AUTOCE_THREADS`, any batch composition,
/// and any arrival order. `from_cache` is execution metadata (it
/// depends on what arrived earlier) and is excluded from determinism
/// digests; the cached bits themselves are identical to a fresh
/// forward, so it never influences the recommendation.
struct RecommendResponse {
  uint64_t id = 0;
  Status status = Status::OK();
  advisor::AutoCe::Recommendation recommendation;
  /// True when the request was shed (admission overflow, injected
  /// `serve.admission` fault, or an expired deadline); the
  /// recommendation is then the degraded corpus default.
  bool shed = false;
  /// True when the embedding came from the LRU cache.
  bool from_cache = false;
  /// Snapshot generation of the model that answered.
  uint64_t model_generation = 0;
};

/// Cumulative counters since construction. Each counter is also the
/// `serve.<field>` registry counter (obs::StatCounter).
struct ServerStats {
  uint64_t requests = 0;
  uint64_t batches = 0;       ///< batched forwards executed
  uint64_t embedded = 0;      ///< graphs embedded (cache misses)
  uint64_t cache_hits = 0;
  uint64_t shed = 0;
  uint64_t deadline_shed = 0;  ///< subset of `shed` caused by deadlines
  uint64_t invalid = 0;       ///< requests rejected by graph validation
  uint64_t reloads = 0;       ///< successful hot reloads
  uint64_t reload_attempts = 0;  ///< Reload() calls, successful or not
  uint64_t reload_failures = 0;
  /// Message of the most recent failed reload; sticky across later
  /// successes so operators can see what the last failure was
  /// (reload_failures says whether there ever was one, reloads whether
  /// a success came after).
  std::string last_reload_error;
};

/// \brief Embedded deterministic advisor service (DESIGN.md §5.8).
///
/// Requests pass a bounded admission gate, are coalesced into batches
/// of at most `max_batch`, embedded in one stacked GIN forward per
/// batch (consulting the LRU embedding cache first), and answered
/// through the shared `knn::Index` the advisor maintains over its RCS.
///
/// Overload (admission beyond `queue_capacity`, or an injected
/// `serve.admission` fault) degrades to the corpus-default
/// recommendation — every request is answered, none blocks.
///
/// `Reload` hot-swaps the advisor to the newest good snapshot
/// generation of an attached store without dropping requests: in-flight
/// batches keep the model they started with, and a failed reload
/// (corrupt snapshot, injected `serve.reload` fault, or a crash at the
/// `serve.reload` kill point) leaves the previous generation serving.
/// The embedding cache invalidates itself through the advisor's
/// encoder-parameter digest, the same signal the advisor's incremental
/// RefreshEmbeddings keys on. The digest is computed once per installed
/// advisor (construction, Reload) and compared at every batch.
class AdvisorServer {
 public:
  /// Wraps a fitted advisor with no snapshot store, so `Reload` fails;
  /// `Open` attaches one. `config.max_batch` must be >= 1.
  explicit AdvisorServer(advisor::AutoCe advisor, ServerConfig config = {});

  AdvisorServer(const AdvisorServer&) = delete;
  AdvisorServer& operator=(const AdvisorServer&) = delete;

  /// Opens a server over the newest good snapshot generation in `dir`
  /// (resuming an interrupted fit if the snapshot is mid-training) and
  /// attaches the store for hot reloads. InvalidArgument when
  /// `config.max_batch` is 0.
  static Result<std::unique_ptr<AdvisorServer>> Open(
      const std::string& dir, ServerConfig config = {},
      util::SnapshotStoreOptions options = {});

  /// Serves a burst of requests: admission in arrival order, batched
  /// embedding, indexed KNN. Responses are returned in request order.
  std::vector<RecommendResponse> Serve(
      const std::vector<RecommendRequest>& requests);

  /// Convenience single-request entry point.
  RecommendResponse ServeOne(const RecommendRequest& request);

  /// Hot-reloads the newest good snapshot generation from the attached
  /// store. On any failure the previous model keeps serving and the
  /// error is returned.
  Status Reload();

  /// Snapshot generation currently serving (0 when constructed from an
  /// in-memory advisor).
  uint64_t generation() const;

  /// The advisor currently serving. The pointer stays valid across
  /// reloads (the swapped-out model lives as long as someone holds it).
  std::shared_ptr<const advisor::AutoCe> advisor() const;

  ServerStats stats() const;

 private:
  struct CacheEntry {
    std::vector<double> embedding;
    std::list<uint64_t>::iterator lru_pos;
  };

  /// Looks up `key`, refreshing recency. Caller holds mu_.
  const CacheEntry* CacheLookup(uint64_t key);
  /// Inserts `key`, evicting the least recent entry when over capacity.
  /// Caller holds mu_.
  void CacheInsert(uint64_t key, std::vector<double> embedding);
  /// Drops every cache entry when `digest`, the encoder digest of the
  /// advisor a batch is served with, differs from the one the cache was
  /// filled under (a reload or online update moved the weights). Caller
  /// holds mu_.
  void InvalidateCacheIfStale(uint64_t digest);

  ServerConfig config_;
  std::string store_dir_;
  util::SnapshotStoreOptions store_options_;

  mutable std::mutex mu_;
  std::shared_ptr<const advisor::AutoCe> advisor_;  // guarded by mu_
  uint64_t generation_ = 0;                         // guarded by mu_
  /// advisor_->EncoderDigest(), computed once when advisor_ is
  /// installed: the served advisor is immutable. Guarded by mu_.
  uint64_t digest_ = 0;
  /// The digest the cached embeddings were computed under. Guarded by
  /// mu_.
  uint64_t cache_digest_ = 0;
  std::unordered_map<uint64_t, CacheEntry> cache_;  // guarded by mu_
  std::list<uint64_t> lru_;  // most recent at front; guarded by mu_
  std::string last_reload_error_;  // guarded by mu_

  /// The ServerStats counters, plus `admitted` (registry only).
  struct Counters {
    obs::StatCounter requests{"serve.requests"};
    obs::StatCounter admitted{"serve.admitted"};
    obs::StatCounter batches{"serve.batches"};
    obs::StatCounter embedded{"serve.embedded"};
    obs::StatCounter cache_hits{"serve.cache_hits"};
    obs::StatCounter shed{"serve.shed"};
    obs::StatCounter deadline_shed{"serve.deadline_shed"};
    obs::StatCounter invalid{"serve.invalid"};
    obs::StatCounter reloads{"serve.reloads"};
    obs::StatCounter reload_attempts{"serve.reload_attempts"};
    obs::StatCounter reload_failures{"serve.reload_failures"};
  };
  Counters counters_;
};

}  // namespace autoce::serve

#endif  // AUTOCE_SERVE_SERVER_H_

#include "serve/server.h"

#include <utility>

#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/fault.h"
#include "util/logging.h"
#include "util/timer.h"

namespace autoce::serve {

AdvisorServer::AdvisorServer(advisor::AutoCe advisor, ServerConfig config)
    : config_(config),
      advisor_(std::make_shared<const advisor::AutoCe>(std::move(advisor))) {
  AUTOCE_CHECK(config_.max_batch >= 1);
  digest_ = advisor_->EncoderDigest();
  cache_digest_ = digest_;
}

Result<std::unique_ptr<AdvisorServer>> AdvisorServer::Open(
    const std::string& dir, ServerConfig config,
    util::SnapshotStoreOptions options) {
  if (config.max_batch == 0) {
    return Status::InvalidArgument("serve max_batch must be >= 1");
  }
  uint64_t generation = 0;
  AUTOCE_ASSIGN_OR_RETURN(advisor::AutoCe advisor,
                          advisor::AutoCe::ResumeFit(dir, options,
                                                     &generation));
  auto server =
      std::make_unique<AdvisorServer>(std::move(advisor), config);
  server->store_dir_ = dir;
  server->store_options_ = options;
  server->generation_ = generation;
  return server;
}

const AdvisorServer::CacheEntry* AdvisorServer::CacheLookup(uint64_t key) {
  auto it = cache_.find(key);
  if (it == cache_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
  return &it->second;
}

void AdvisorServer::CacheInsert(uint64_t key, std::vector<double> embedding) {
  if (config_.cache_capacity == 0) return;
  auto it = cache_.find(key);
  if (it != cache_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    it->second.embedding = std::move(embedding);
    return;
  }
  if (cache_.size() >= config_.cache_capacity) {
    cache_.erase(lru_.back());
    lru_.pop_back();
  }
  lru_.push_front(key);
  cache_.emplace(key, CacheEntry{std::move(embedding), lru_.begin()});
}

void AdvisorServer::InvalidateCacheIfStale(uint64_t digest) {
  if (digest == cache_digest_) return;
  cache_.clear();
  lru_.clear();
  cache_digest_ = digest;
}

std::vector<RecommendResponse> AdvisorServer::Serve(
    const std::vector<RecommendRequest>& requests) {
  // The model, its generation and its encoder digest are pinned
  // together for the whole burst: a concurrent Reload swaps them but
  // this burst keeps answering from the generation it admitted under —
  // no request is dropped mid-reload.
  obs::TraceSpan span("serve.burst");
  // Each request's time-in-burst: at shedding, or when its batch
  // completes.
  static obs::Histogram* const request_ms =
      obs::MetricsRegistry::Instance().GetHistogram("serve.request_ms");
  Timer burst_timer;
  // Deadlines are measured from burst start on the (injectable) clock;
  // a request's effective deadline is its own override or the server
  // default, 0 meaning "none".
  const double burst_start = obs::Now(config_.clock);
  auto deadline_of = [this](const RecommendRequest& request) {
    return request.deadline_ms > 0.0 ? request.deadline_ms
                                     : config_.request_deadline_ms;
  };
  std::shared_ptr<const advisor::AutoCe> advisor;
  uint64_t generation = 0;
  uint64_t digest = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    advisor = advisor_;
    generation = generation_;
    digest = digest_;
  }
  counters_.requests.Add(requests.size());

  std::vector<RecommendResponse> responses(requests.size());
  // Admission: arrival order, bounded by queue_capacity; the overflow
  // and injected-fault requests are shed to the degraded corpus
  // default. The shed decision depends only on arrival position and
  // request content, never on thread count.
  std::vector<size_t> admitted;
  admitted.reserve(std::min(requests.size(), config_.queue_capacity));
  const double admission_elapsed_ms = (obs::Now(config_.clock) - burst_start) * 1000.0;
  // Each request's fingerprint: the admission fault key and the
  // embedding-cache key.
  std::vector<uint64_t> keys(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    responses[i].id = requests[i].id;
    responses[i].model_generation = generation;
    keys[i] = featgraph::GraphFingerprint(requests[i].graph);
    const char* shed_reason = nullptr;
    bool deadline_expired = false;
    double deadline = deadline_of(requests[i]);
    if (admitted.size() >= config_.queue_capacity) {
      shed_reason = "admission queue overflow";
    } else if (deadline > 0.0 && admission_elapsed_ms >= deadline) {
      shed_reason = "request deadline expired at admission";
      deadline_expired = true;
    } else if (util::FaultPoint(util::fault_sites::kServeAdmission,
                                keys[i])) {
      shed_reason = "injected admission fault";
    }
    if (shed_reason != nullptr) {
      responses[i].shed = true;
      responses[i].recommendation =
          advisor->CorpusDefault(requests[i].w_a, shed_reason);
      counters_.shed.Add();
      if (deadline_expired) counters_.deadline_shed.Add();
      request_ms->Observe(burst_timer.ElapsedMillis());
      continue;
    }
    admitted.push_back(i);
  }
  counters_.admitted.Add(admitted.size());

  // Coalesce admitted requests into batches of max_batch, in admission
  // order. Each batch embeds its cache misses in ONE stacked GIN
  // forward (bit-identical to per-graph embedding, so batch composition
  // cannot change response bits).
  size_t vertex_dim = advisor->extractor().vertex_dim();
  for (size_t b = 0; b < admitted.size(); b += config_.max_batch) {
    size_t end = std::min(admitted.size(), b + config_.max_batch);
    // Expiry check when the batch starts: earlier batches consumed the
    // burst's time, and an admitted request whose deadline has since
    // passed is shed instead of embedded — it would miss its deadline
    // anyway, and shedding it keeps its batch slot for live requests.
    const double batch_elapsed_ms = (obs::Now(config_.clock) - burst_start) * 1000.0;
    struct Pending {
      size_t request;     // index into `requests`
      uint64_t key;
      std::vector<double> embedding;
      bool from_cache = false;
    };
    std::vector<Pending> pending;
    std::vector<size_t> misses;  // indices into `pending`
    {
      std::lock_guard<std::mutex> lock(mu_);
      InvalidateCacheIfStale(digest);
      for (size_t j = b; j < end; ++j) {
        size_t i = admitted[j];
        double deadline = deadline_of(requests[i]);
        if (deadline > 0.0 && batch_elapsed_ms >= deadline) {
          responses[i].shed = true;
          responses[i].recommendation = advisor->CorpusDefault(
              requests[i].w_a, "request deadline expired before batch");
          counters_.shed.Add();
          counters_.deadline_shed.Add();
          request_ms->Observe(burst_timer.ElapsedMillis());
          continue;
        }
        Status valid = featgraph::ValidateGraph(requests[i].graph,
                                                vertex_dim);
        if (!valid.ok()) {
          responses[i].status = valid;
          counters_.invalid.Add();
          continue;
        }
        Pending p;
        p.request = i;
        p.key = keys[i];
        if (const CacheEntry* hit = CacheLookup(p.key)) {
          p.embedding = hit->embedding;
          p.from_cache = true;
          counters_.cache_hits.Add();
        } else {
          misses.push_back(pending.size());
        }
        pending.push_back(std::move(p));
      }
    }

    if (!misses.empty()) {
      std::vector<const featgraph::FeatureGraph*> graphs;
      graphs.reserve(misses.size());
      for (size_t m : misses) {
        graphs.push_back(&requests[pending[m].request].graph);
      }
      std::vector<std::vector<double>> embedded;
      {
        obs::TraceSpan embed_span("serve.embed_batch");
        embedded = advisor->EmbedBatch(graphs);
      }
      counters_.batches.Add();
      counters_.embedded.Add(misses.size());
      std::lock_guard<std::mutex> lock(mu_);
      // A burst on another generation may have reset the cache to its
      // digest while this batch embedded; these embeddings belong only
      // under this batch's digest.
      const bool cacheable = cache_digest_ == digest;
      for (size_t k = 0; k < misses.size(); ++k) {
        pending[misses[k]].embedding = embedded[k];
        if (cacheable) {
          CacheInsert(pending[misses[k]].key, std::move(embedded[k]));
        }
      }
    }

    for (Pending& p : pending) {
      RecommendResponse& resp = responses[p.request];
      resp.from_cache = p.from_cache;
      auto rec = advisor->RecommendFromEmbedding(p.embedding,
                                                 requests[p.request].w_a);
      if (rec.ok()) {
        resp.recommendation = std::move(*rec);
      } else {
        resp.status = rec.status();
      }
    }
    if (obs::MetricsEnabled()) {
      // Each admitted request's latency is its time-in-burst when its
      // batch finishes (the server is synchronous and batched). The
      // ones shed at the batch start were observed there.
      double elapsed = burst_timer.ElapsedMillis();
      for (size_t j = b; j < end; ++j) {
        if (!responses[admitted[j]].shed) request_ms->Observe(elapsed);
      }
    }
  }
  return responses;
}

RecommendResponse AdvisorServer::ServeOne(const RecommendRequest& request) {
  return Serve({request})[0];
}

Status AdvisorServer::Reload() {
  obs::TraceSpan span("serve.reload");
  counters_.reload_attempts.Add();
  std::string dir;
  util::SnapshotStoreOptions options;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (store_dir_.empty()) {
      Status status = Status::FailedPrecondition(
          "no snapshot store attached (open the server with Open)");
      counters_.reload_failures.Add();
      last_reload_error_ = status.message();
      return status;
    }
    dir = store_dir_;
    options = store_options_;
  }
  // Load outside the lock: requests keep being served from the current
  // generation while the new one deserializes.
  uint64_t generation = 0;
  auto loaded = advisor::AutoCe::ResumeFit(dir, options, &generation);
  if (!loaded.ok()) {
    counters_.reload_failures.Add();
    std::lock_guard<std::mutex> lock(mu_);
    last_reload_error_ = loaded.status().message();
    return loaded.status();
  }
  if (util::FaultPoint(util::fault_sites::kServeReload, generation)) {
    Status status = Status::Internal("injected reload fault at generation " +
                                     std::to_string(generation));
    counters_.reload_failures.Add();
    std::lock_guard<std::mutex> lock(mu_);
    last_reload_error_ = status.message();
    return status;
  }
  // Crash window: the new generation is loaded but not installed. A
  // kill here must leave a restarted server on the previous durable
  // generation.
  util::KillPoint(util::kill_sites::kServeReload, generation);
  auto fresh =
      std::make_shared<const advisor::AutoCe>(std::move(*loaded));
  const uint64_t digest = fresh->EncoderDigest();
  counters_.reloads.Add();
  std::lock_guard<std::mutex> lock(mu_);
  advisor_ = std::move(fresh);
  generation_ = generation;
  digest_ = digest;
  // The embedding cache invalidates lazily on the next batch served
  // with this digest; an identical re-committed encoder keeps its
  // cache.
  return Status::OK();
}

uint64_t AdvisorServer::generation() const {
  std::lock_guard<std::mutex> lock(mu_);
  return generation_;
}

std::shared_ptr<const advisor::AutoCe> AdvisorServer::advisor() const {
  std::lock_guard<std::mutex> lock(mu_);
  return advisor_;
}

ServerStats AdvisorServer::stats() const {
  ServerStats out;
  out.requests = counters_.requests.value();
  out.batches = counters_.batches.value();
  out.embedded = counters_.embedded.value();
  out.cache_hits = counters_.cache_hits.value();
  out.shed = counters_.shed.value();
  out.deadline_shed = counters_.deadline_shed.value();
  out.invalid = counters_.invalid.value();
  out.reloads = counters_.reloads.value();
  out.reload_attempts = counters_.reload_attempts.value();
  out.reload_failures = counters_.reload_failures.value();
  std::lock_guard<std::mutex> lock(mu_);
  out.last_reload_error = last_reload_error_;
  return out;
}

}  // namespace autoce::serve

#ifndef LUSAIL_CACHE_QUERY_SERVICE_H_
#define LUSAIL_CACHE_QUERY_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <unordered_map>

#include "common/cancel.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "core/lusail_engine.h"
#include "core/options.h"
#include "federation/federation.h"
#include "obs/endpoint_stats.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace lusail::cache {

struct QueryServiceOptions {
  /// Queries executed concurrently; 0 falls back to 4.
  size_t max_concurrent = 4;
  /// Admission cap: Submit rejects with kUnavailable once this many
  /// queries are in flight (running + queued). 0 means unbounded.
  size_t max_pending = 0;
  /// Engine configuration shared by every query this service runs.
  core::LusailOptions engine;
  /// When non-null, every finished query (success or failure) is filed
  /// into this recorder with its phase timings and request counters.
  /// Non-owning; must outlive the service.
  obs::FlightRecorder* flight_recorder = nullptr;
};

/// Cumulative Submit/completion counters. `in_flight` is the current
/// admission-cap occupancy, split into `queued` (accepted, waiting for a
/// worker) and `running` (executing on a worker). `wait` is the queue
/// wait-time distribution — admission to execution start — the signal
/// that tells an operator the service is saturated before rejections do.
struct QueryServiceStats {
  uint64_t accepted = 0;
  uint64_t rejected = 0;   ///< Turned away by the admission cap.
  uint64_t completed = 0;  ///< Finished with an OK status.
  uint64_t failed = 0;     ///< Finished with a non-OK status.
  uint64_t in_flight = 0;  ///< queued + running.
  uint64_t queued = 0;
  uint64_t running = 0;
  /// Queries whose deadline had already expired when they dequeued; they
  /// fail fast with kTimeout instead of executing. A rising count means
  /// clients give the service less budget than its queue wait.
  uint64_t expired_in_queue = 0;
  uint64_t cancelled = 0;  ///< Cancel(id) calls that matched a live query.
  obs::LatencyHistogram wait;  ///< Queue wait, admission to start.
};

/// Handle returned by SubmitCancellable: the service-assigned query id
/// (usable with Cancel) plus the result future.
struct SubmittedQuery {
  uint64_t id = 0;
  std::future<Result<fed::FederatedResult>> future;
};

/// Multi-query serving layer: runs up to `max_concurrent` federated
/// queries at once against one shared Federation, engine thread pool,
/// cross-query FederationCache, and endpoint stats registry. Submit is
/// non-blocking — it either enqueues the query onto the service's worker
/// pool and returns a future, or rejects immediately when the admission
/// cap is reached. All engine state touched by concurrent queries (ASK /
/// check caches, the shared FederationCache, endpoint stats) is
/// internally synchronized, so N in-flight queries return exactly the
/// rows sequential execution would.
class QueryService {
 public:
  QueryService(const fed::Federation* federation,
               QueryServiceOptions options = {});
  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Schedules `sparql_text`; the future resolves to the query result or
  /// to the engine's error. Returns kUnavailable without scheduling when
  /// `max_pending` queries are already in flight. A query that waited in
  /// the queue past its deadline fails fast with kTimeout on dequeue
  /// (counted as `expired_in_queue`), never executing.
  Result<std::future<Result<fed::FederatedResult>>> Submit(
      std::string sparql_text, Deadline deadline = Deadline());

  /// Like Submit, but also returns the query id so the caller can
  /// Cancel() it while it is queued or running.
  Result<SubmittedQuery> SubmitCancellable(std::string sparql_text,
                                           Deadline deadline = Deadline());

  /// Requests cooperative cancellation of a queued or running query.
  /// Returns true when `query_id` named a live query (its future will
  /// resolve to kTimeout within one work chunk); false when the query
  /// already finished or never existed.
  bool Cancel(uint64_t query_id);

  /// Blocks until every accepted query has finished.
  void Drain();

  QueryServiceStats Stats() const;

  /// Emits lusail_service_* counters and gauges, the queue-wait
  /// histogram, the engine dictionary's gauges and
  /// Federation::ExportMetrics — everything /metrics needs from the
  /// serving layer in one call.
  void ExportMetrics(obs::MetricsSnapshot* snapshot) const;

  /// Warm-loads the federation's shared FederationCache from a
  /// SaveCacheSnapshot file (verdict + COUNT tiers), so a restarted
  /// service answers source-selection probes without a cold ASK
  /// stampede. Returns the number of entries restored; kNotFound when no
  /// snapshot exists (a cold start, not an error worth dying for).
  Result<uint64_t> WarmLoadCache(const std::string& path);

  /// Persists the federation's shared FederationCache (see
  /// FederationCache::SaveToDisk). Call at shutdown, after Drain().
  Status SaveCacheSnapshot(const std::string& path) const;

  core::LusailEngine* engine() { return &engine_; }
  const QueryServiceOptions& options() const { return options_; }

 private:
  QueryServiceOptions options_;
  core::LusailEngine engine_;
  ThreadPool workers_;

  mutable std::mutex mu_;
  std::condition_variable drained_;
  uint64_t accepted_ = 0;
  uint64_t rejected_ = 0;
  uint64_t completed_ = 0;
  uint64_t failed_ = 0;
  uint64_t in_flight_ = 0;
  uint64_t running_ = 0;  ///< in_flight_ - running_ queries are queued.
  uint64_t expired_in_queue_ = 0;
  uint64_t cancelled_ = 0;
  uint64_t next_id_ = 1;
  /// Cancellation tokens of queued + running queries, by query id.
  std::unordered_map<uint64_t, CancelToken> active_;
  obs::LatencyHistogram wait_;
};

}  // namespace lusail::cache

#endif  // LUSAIL_CACHE_QUERY_SERVICE_H_

#include "cache/query_service.h"

#include <utility>

#include "cache/federation_cache.h"

namespace lusail::cache {

QueryService::QueryService(const fed::Federation* federation,
                           QueryServiceOptions options)
    : options_(std::move(options)),
      engine_(federation, options_.engine),
      workers_(options_.max_concurrent == 0 ? 4 : options_.max_concurrent) {}

Result<std::future<Result<fed::FederatedResult>>> QueryService::Submit(
    std::string sparql_text, Deadline deadline) {
  LUSAIL_ASSIGN_OR_RETURN(SubmittedQuery submitted,
                          SubmitCancellable(std::move(sparql_text), deadline));
  return std::move(submitted.future);
}

Result<SubmittedQuery> QueryService::SubmitCancellable(std::string sparql_text,
                                                       Deadline deadline) {
  CancelToken token = CancelToken::Cancellable(deadline);
  uint64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (options_.max_pending > 0 && in_flight_ >= options_.max_pending) {
      ++rejected_;
      return Status::Unavailable("query service at admission cap (" +
                                 std::to_string(options_.max_pending) +
                                 " in flight)");
    }
    ++accepted_;
    ++in_flight_;
    id = next_id_++;
    active_.emplace(id, token);
  }
  SubmittedQuery submitted;
  submitted.id = id;
  submitted.future = workers_.Submit(
      [this, id, token, text = std::move(sparql_text),
       queued_at = Stopwatch()]() {
        bool expired_queued = false;
        {
          std::lock_guard<std::mutex> lock(mu_);
          ++running_;
          wait_.Record(queued_at.ElapsedMillis());
          // A query that waited past its deadline (or was cancelled while
          // queued) must not execute at all: the client gave up before a
          // worker ever picked it up.
          if (token.Cancelled()) {
            expired_queued = !token.CancelRequested();
            if (expired_queued) ++expired_in_queue_;
          }
        }
        Result<fed::FederatedResult> result =
            token.Cancelled() ? Result<fed::FederatedResult>(
                                    token.StatusAt("queue wait"))
                              : engine_.Execute(text, token);
        {
          std::lock_guard<std::mutex> lock(mu_);
          --in_flight_;
          --running_;
          active_.erase(id);
          if (result.ok()) {
            ++completed_;
          } else {
            ++failed_;
          }
        }
        drained_.notify_all();
        if (options_.flight_recorder != nullptr) {
          obs::FlightRecord record;
          record.query_hash = obs::QueryHashHex(text);
          record.total_ms = queued_at.ElapsedMillis();
          if (result.ok()) {
            const fed::ExecutionProfile& profile = result.value().profile;
            record.rows = result.value().table.NumRows();
            record.requests = profile.requests;
            record.hedged = profile.hedged_requests > 0;
            record.partial = profile.partial;
            record.total_ms = profile.total_ms;
            record.source_selection_ms = profile.source_selection_ms;
            record.analysis_ms = profile.analysis_ms;
            record.execution_ms = profile.execution_ms;
            record.network_ms = profile.network_ms;
            if (profile.trace != nullptr) {
              record.trace_id = profile.trace->trace_id;
            }
          } else {
            record.status = StatusCodeToString(result.status().code());
            record.cancelled = token.CancelRequested();
          }
          options_.flight_recorder->Record(std::move(record));
        }
        return result;
      });
  return submitted;
}

bool QueryService::Cancel(uint64_t query_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = active_.find(query_id);
  if (it == active_.end()) return false;
  it->second.Cancel();
  ++cancelled_;
  return true;
}

void QueryService::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  drained_.wait(lock, [this] { return in_flight_ == 0; });
}

QueryServiceStats QueryService::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  QueryServiceStats s;
  s.accepted = accepted_;
  s.rejected = rejected_;
  s.completed = completed_;
  s.failed = failed_;
  s.in_flight = in_flight_;
  s.running = running_;
  s.queued = in_flight_ - running_;
  s.expired_in_queue = expired_in_queue_;
  s.cancelled = cancelled_;
  s.wait.Merge(wait_);
  return s;
}

void QueryService::ExportMetrics(obs::MetricsSnapshot* snapshot) const {
  QueryServiceStats s = Stats();
  obs::MetricLabels none;
  snapshot->AddCounter("lusail_service_accepted_total",
                       "Queries admitted by the service.", none,
                       static_cast<double>(s.accepted));
  snapshot->AddCounter("lusail_service_rejected_total",
                       "Queries turned away by the admission cap.", none,
                       static_cast<double>(s.rejected));
  snapshot->AddCounter("lusail_service_completed_total",
                       "Queries that finished with an OK status.", none,
                       static_cast<double>(s.completed));
  snapshot->AddCounter("lusail_service_failed_total",
                       "Queries that finished with a non-OK status.", none,
                       static_cast<double>(s.failed));
  snapshot->AddCounter("lusail_service_expired_in_queue_total",
                       "Queries whose deadline expired before execution.",
                       none, static_cast<double>(s.expired_in_queue));
  snapshot->AddCounter("lusail_service_cancelled_total",
                       "Cancel() calls that matched a live query.", none,
                       static_cast<double>(s.cancelled));
  snapshot->AddGauge("lusail_service_in_flight",
                     "Queries currently queued or running.", none,
                     static_cast<double>(s.in_flight));
  snapshot->AddGauge("lusail_service_queued",
                     "Queries admitted and waiting for a worker.", none,
                     static_cast<double>(s.queued));
  snapshot->AddGauge("lusail_service_running",
                     "Queries currently executing on a worker.", none,
                     static_cast<double>(s.running));
  snapshot->AddHistogram("lusail_service_queue_wait_seconds",
                         "Admission-to-execution queue wait.", none, s.wait);
  // lusail_engine_dictionary_* — the id space the service executes in.
  engine_.ExportMetrics(snapshot);

  if (const fed::Federation* federation = engine_.federation()) {
    federation->ExportMetrics(snapshot);
  }
}

Result<uint64_t> QueryService::WarmLoadCache(const std::string& path) {
  const fed::Federation* federation = engine_.federation();
  FederationCache* cache =
      federation != nullptr ? federation->query_cache() : nullptr;
  if (cache == nullptr) {
    return Status::InvalidArgument(
        "query service has no federation cache attached");
  }
  return cache->LoadFromDisk(path);
}

Status QueryService::SaveCacheSnapshot(const std::string& path) const {
  const fed::Federation* federation = engine_.federation();
  FederationCache* cache =
      federation != nullptr ? federation->query_cache() : nullptr;
  if (cache == nullptr) {
    return Status::InvalidArgument(
        "query service has no federation cache attached");
  }
  return cache->SaveToDisk(path);
}

}  // namespace lusail::cache

#include "net/replica.h"

#include <algorithm>
#include <thread>

#include "net/latency_model.h"
#include "obs/trace_context.h"

namespace lusail::net {

ReplicaGroup::ReplicaGroup(std::string id,
                           std::vector<std::shared_ptr<Endpoint>> replicas,
                           ReplicaGroupOptions options)
    : id_(std::move(id)), options_(options) {
  replicas_.reserve(replicas.size());
  for (auto& endpoint : replicas) {
    replicas_.push_back(std::make_shared<Replica>(std::move(endpoint),
                                                  options_.breaker_config));
  }
}

ReplicaGroup::~ReplicaGroup() {
  // Drain detached hedge workers. They hold only shared_ptrs (replica,
  // outcome slots, this counter), so this wait is for process hygiene —
  // no thread may still be running user code when main() tears down
  // endpoints under TSan — not for memory safety. By the time any Query*
  // call has returned, every loser's token is cancelled, so the wait is
  // bounded by how fast losers notice cancellation.
  std::unique_lock<std::mutex> lock(inflight_->mu);
  inflight_->cv.wait(lock, [this] { return inflight_->count == 0; });
}

const std::string& ReplicaGroup::replica_id(size_t i) const {
  return replicas_[i]->endpoint->id();
}

bool ReplicaGroup::Available() const {
  for (const auto& replica : replicas_) {
    if (replica->breaker.WouldAllowRequest()) return true;
  }
  return false;
}

void ReplicaGroup::set_parse_dictionary(
    std::shared_ptr<core::TermDictionary> dict) {
  for (const auto& replica : replicas_) {
    replica->endpoint->set_parse_dictionary(dict);
  }
}

const CircuitBreaker& ReplicaGroup::breaker(size_t i) const {
  return replicas_[i]->breaker;
}

CircuitBreaker* ReplicaGroup::mutable_breaker(size_t i) {
  return &replicas_[i]->breaker;
}

std::vector<size_t> ReplicaGroup::RankReplicas() const {
  struct Key {
    int tier;
    double p95;
    size_t index;
  };
  std::vector<Key> keys;
  keys.reserve(replicas_.size());
  Clock::time_point now = Clock::now();
  for (size_t i = 0; i < replicas_.size(); ++i) {
    const Replica& replica = *replicas_[i];
    Key key{1, 0.0, i};
    if (!replica.breaker.WouldAllowRequest()) {
      key.tier = 3;
      std::lock_guard<std::mutex> lock(replica.mu);
      if (replica.latency.count() > 0) key.p95 = replica.latency.P95();
    } else {
      std::lock_guard<std::mutex> lock(replica.mu);
      double age_ms =
          std::chrono::duration<double, std::milli>(now - replica.verdict_at)
              .count();
      bool fresh = replica.health != Health::kUnknown &&
                   age_ms <= options_.health_decay_ms;
      if (fresh) {
        key.tier = replica.health == Health::kHealthy ? 0 : 2;
      }
      if (replica.latency.count() > 0) key.p95 = replica.latency.P95();
    }
    keys.push_back(key);
  }
  std::sort(keys.begin(), keys.end(), [](const Key& a, const Key& b) {
    if (a.tier != b.tier) return a.tier < b.tier;
    if (a.p95 != b.p95) return a.p95 < b.p95;
    return a.index < b.index;
  });
  std::vector<size_t> order;
  order.reserve(keys.size());
  for (const Key& key : keys) order.push_back(key.index);
  return order;
}

void ReplicaGroup::RecordOutcome(const std::shared_ptr<Replica>& replica,
                                 const Result<QueryResponse>& result,
                                 double elapsed_ms, bool self_inflicted) {
  if (result.ok()) {
    replica->breaker.RecordSuccess();
    std::lock_guard<std::mutex> lock(replica->mu);
    replica->latency.Record(elapsed_ms);
    replica->health = Health::kHealthy;
    replica->verdict_at = Clock::now();
    return;
  }
  if (self_inflicted) return;  // Our budget ran out; replica not at fault.
  const Status& status = result.status();
  // Client-side errors (parse, unsupported) say nothing about health.
  if (status.IsRetryable() || status.code() == StatusCode::kInternal) {
    replica->breaker.RecordFailure();
    std::lock_guard<std::mutex> lock(replica->mu);
    replica->health = Health::kUnhealthy;
    replica->verdict_at = Clock::now();
  }
}

void ReplicaGroup::MaybeProbe(const std::shared_ptr<Replica>& replica,
                              const CancelToken& cancel) {
  if (!options_.lazy_probe) return;
  {
    std::lock_guard<std::mutex> lock(replica->mu);
    if (replica->probed) return;
    replica->probed = true;
  }
  probes_.fetch_add(1, std::memory_order_relaxed);
  // The probe shares the caller's cancel flag and deadline, capped at the
  // probe budget.
  CancelToken probe = cancel.CappedAt(options_.probe_timeout_ms);
  if (probe.Cancelled()) return;
  Stopwatch sw;
  Result<QueryResponse> result =
      replica->endpoint->QueryCancellable(options_.probe_query, probe);
  bool self_inflicted = !result.ok() &&
                        result.status().code() == StatusCode::kTimeout &&
                        cancel.Cancelled();
  RecordOutcome(replica, result, sw.ElapsedMillis(), self_inflicted);
}

Result<QueryResponse> ReplicaGroup::IssueAttempt(
    const std::shared_ptr<Replica>& replica, const std::string& text,
    const CancelToken& cancel) {
  Stopwatch sw;
  Result<QueryResponse> result = replica->endpoint->QueryCancellable(text,
                                                                     cancel);
  bool self_inflicted = !result.ok() &&
                        result.status().code() == StatusCode::kTimeout &&
                        cancel.Cancelled();
  RecordOutcome(replica, result, sw.ElapsedMillis(), self_inflicted);
  return result;
}

double ReplicaGroup::HedgeDelayMs(
    const std::shared_ptr<Replica>& primary) const {
  if (options_.hedge_delay_ms > 0.0) return options_.hedge_delay_ms;
  double p95 = options_.hedge_max_delay_ms;  // No data: hedge late.
  {
    std::lock_guard<std::mutex> lock(primary->mu);
    if (primary->latency.count() > 0) p95 = primary->latency.P95();
  }
  return std::clamp(p95, options_.hedge_min_delay_ms,
                    options_.hedge_max_delay_ms);
}

Result<QueryResponse> ReplicaGroup::QueryCancellable(
    const std::string& text, const CancelToken& cancel) {
  // Members are timed for health ranking and hedge delays, so their
  // simulated waits must pass on this thread, not in a caller's scope.
  DeferredWait::Suspend real_waits;
  requests_.fetch_add(1, std::memory_order_relaxed);
  if (replicas_.empty()) {
    return Status::NotFound("replica group " + id_ + " has no replicas");
  }
  if (cancel.Cancelled()) return cancel.StatusAt("replica selection");

  std::vector<size_t> ranked = RankReplicas();
  // Lazy probe of the preferred candidate; a failed probe changes its
  // health verdict, so re-rank before committing traffic to it.
  {
    bool was_probed;
    {
      std::lock_guard<std::mutex> lock(replicas_[ranked[0]]->mu);
      was_probed = replicas_[ranked[0]]->probed;
    }
    if (!was_probed) {
      MaybeProbe(replicas_[ranked[0]], cancel);
      ranked = RankReplicas();
    }
  }

  if (options_.hedging_enabled && ranked.size() >= 2) {
    return QueryHedged(ranked, text, cancel);
  }

  // Sequential failover: walk the ranked candidates on the caller thread,
  // carrying the same cancel token (and thus the same remaining deadline
  // budget) into every attempt.
  Status last =
      Status::Unavailable("no usable replica in group " + id_);
  for (size_t pos = 0; pos < ranked.size(); ++pos) {
    if (cancel.Cancelled()) return cancel.StatusAt("replica failover");
    const std::shared_ptr<Replica>& replica = replicas_[ranked[pos]];
    MaybeProbe(replica, cancel);
    if (!replica->breaker.AllowRequest()) {
      breaker_skips_.fetch_add(1, std::memory_order_relaxed);
      last = Status::Unavailable("circuit breaker open for " +
                                 replica->endpoint->id());
      continue;
    }
    Result<QueryResponse> result = IssueAttempt(replica, text, cancel);
    if (result.ok()) {
      result->served_by = replica->endpoint->id();
      return result;
    }
    if (cancel.Cancelled()) return result.status();  // Our budget, not theirs.
    last = result.status();
    if (!last.IsRetryable()) return last;  // Every replica would refuse this.
    if (pos + 1 < ranked.size()) {
      failovers_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return Status(last.code(), last.message() + " (all " +
                                 std::to_string(replicas_.size()) +
                                 " replicas of " + id_ + " exhausted)");
}

Result<StreamSummary> ReplicaGroup::QueryStreaming(
    const std::string& text, const CancelToken& cancel,
    const StreamOptions& options, const StreamSink& sink) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  if (replicas_.empty()) {
    return Status::NotFound("replica group " + id_ + " has no replicas");
  }
  if (cancel.Cancelled()) return cancel.StatusAt("replica selection");

  std::vector<size_t> ranked = RankReplicas();
  {
    bool was_probed;
    {
      std::lock_guard<std::mutex> lock(replicas_[ranked[0]]->mu);
      was_probed = replicas_[ranked[0]]->probed;
    }
    if (!was_probed) {
      MaybeProbe(replicas_[ranked[0]], cancel);
      ranked = RankReplicas();
    }
  }

  // Failover is sound only while the sink has seen nothing: rows already
  // delivered cannot be taken back, so a later replica would replay them.
  bool delivered = false;
  StreamSink guarded = [&](StreamBatch&& batch) -> Status {
    delivered = true;
    return sink(std::move(batch));
  };

  Status last = Status::Unavailable("no usable replica in group " + id_);
  for (size_t pos = 0; pos < ranked.size(); ++pos) {
    if (cancel.Cancelled()) return cancel.StatusAt("replica failover");
    const std::shared_ptr<Replica>& replica = replicas_[ranked[pos]];
    MaybeProbe(replica, cancel);
    if (!replica->breaker.AllowRequest()) {
      breaker_skips_.fetch_add(1, std::memory_order_relaxed);
      last = Status::Unavailable("circuit breaker open for " +
                                 replica->endpoint->id());
      continue;
    }
    Stopwatch sw;
    Result<StreamSummary> summary =
        replica->endpoint->QueryStreaming(text, cancel, options, guarded);
    bool self_inflicted = cancel.Cancelled();
    Result<QueryResponse> accounting =
        summary.ok() ? Result<QueryResponse>(summary->response)
                     : Result<QueryResponse>(summary.status());
    RecordOutcome(replica, accounting, sw.ElapsedMillis(), self_inflicted);
    if (summary.ok()) {
      summary->response.served_by = replica->endpoint->id();
      return summary;
    }
    if (cancel.Cancelled()) return summary.status();
    last = summary.status();
    if (delivered || !last.IsRetryable()) return last;
    if (pos + 1 < ranked.size()) {
      failovers_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return Status(last.code(), last.message() + " (all " +
                                 std::to_string(replicas_.size()) +
                                 " replicas of " + id_ + " exhausted)");
}

void ReplicaGroup::LaunchAttempt(const std::shared_ptr<Replica>& replica,
                                 const std::string& text,
                                 const std::shared_ptr<HedgeShared>& shared,
                                 size_t slot) {
  {
    std::lock_guard<std::mutex> lock(replica->mu);
    replica->probed = true;  // The real request doubles as the probe.
  }
  std::shared_ptr<Inflight> inflight = inflight_;
  {
    std::lock_guard<std::mutex> lock(inflight->mu);
    ++inflight->count;
  }
  CancelToken token = shared->attempts[slot].token;
  // Capture the caller's trace context by value: the worker thread (its
  // own thread-local context empty) re-installs it so both hedge arms
  // propagate the same trace identity — the tracer is held via shared_ptr
  // and so outlives the query frame even for a detached loser.
  obs::TraceContext trace_context;
  if (const obs::TraceContext* current = obs::CurrentTraceContext()) {
    trace_context = *current;
  }
  // The worker captures only shared_ptrs and values — never `this` — so a
  // loser can finish after the Query* call (though not the group: the
  // destructor drains `inflight`).
  std::thread([replica, text, token, shared, slot, inflight,
               trace_context]() {
    std::optional<obs::TraceContextScope> trace_scope;
    if (trace_context.tracer != nullptr) {
      trace_scope.emplace(trace_context);
    }
    Result<QueryResponse> result = Status::Internal("unreachable");
    if (token.Cancelled()) {
      result = token.StatusAt("replica attempt");
    } else if (!replica->breaker.AllowRequest()) {
      result = Status::Unavailable("circuit breaker open for " +
                                   replica->endpoint->id());
    } else {
      Stopwatch sw;
      result = replica->endpoint->QueryCancellable(text, token);
      bool self_inflicted = !result.ok() &&
                            result.status().code() == StatusCode::kTimeout &&
                            token.Cancelled();
      RecordOutcome(replica, result, sw.ElapsedMillis(), self_inflicted);
    }
    trace_scope.reset();
    {
      std::lock_guard<std::mutex> lock(shared->mu);
      shared->attempts[slot].result = std::move(result);
    }
    shared->cv.notify_all();
    {
      std::lock_guard<std::mutex> lock(inflight->mu);
      --inflight->count;
    }
    inflight->cv.notify_all();
  }).detach();
}

Result<QueryResponse> ReplicaGroup::QueryHedged(
    const std::vector<size_t>& ranked, const std::string& text,
    const CancelToken& cancel) {
  auto shared = std::make_shared<HedgeShared>();
  shared->attempts.resize(ranked.size());  // Fixed size: workers index in.

  size_t launched = 0;
  int hedge_slot = -1;  // Slot launched *because of* the hedge timer.
  auto launch = [&](size_t slot) {
    Attempt& attempt = shared->attempts[slot];
    attempt.replica_index = ranked[slot];
    attempt.token = CancelToken::Cancellable(cancel.deadline());
    const std::shared_ptr<Replica>& replica = replicas_[ranked[slot]];
    if (!replica->breaker.WouldAllowRequest()) {
      breaker_skips_.fetch_add(1, std::memory_order_relaxed);
    }
    LaunchAttempt(replica, text, shared, slot);
    ++launched;
  };

  Stopwatch since_primary;
  double hedge_delay = HedgeDelayMs(replicas_[ranked[0]]);

  std::unique_lock<std::mutex> lock(shared->mu);
  launch(0);

  auto cancel_losers = [&](int winner) {
    for (size_t s = 0; s < launched; ++s) {
      if (static_cast<int>(s) != winner) shared->attempts[s].token.Cancel();
    }
  };

  while (true) {
    int winner = -1;
    size_t done = 0;
    for (size_t s = 0; s < launched; ++s) {
      const Attempt& attempt = shared->attempts[s];
      if (!attempt.result.has_value()) continue;
      ++done;
      if (winner < 0 && attempt.result->ok()) winner = static_cast<int>(s);
    }
    if (winner >= 0) {
      cancel_losers(winner);
      // When this query is traced, wait (bounded) for the cancelled
      // losers to finish: a loser's server answers the cancellation with
      // its span subtree, and the graft must land before the caller
      // snapshots the trace — this is what makes hedged traces show one
      // winning and one cancelled server subtree deterministically.
      if (obs::CurrentTraceContext() != nullptr) {
        Deadline drain = Deadline::AfterMillis(2500.0);
        for (;;) {
          size_t finished = 0;
          for (size_t s = 0; s < launched; ++s) {
            if (shared->attempts[s].result.has_value()) ++finished;
          }
          if (finished == launched || drain.Expired()) break;
          shared->cv.wait_for(lock, std::chrono::milliseconds(10));
        }
      }
      Result<QueryResponse> result = std::move(*shared->attempts[winner].result);
      result->served_by =
          replicas_[shared->attempts[winner].replica_index]->endpoint->id();
      result->hedged = hedge_slot >= 0;
      if (hedge_slot >= 0) {
        if (winner == hedge_slot) {
          hedge_wins_.fetch_add(1, std::memory_order_relaxed);
        } else {
          hedge_losses_.fetch_add(1, std::memory_order_relaxed);
        }
      }
      return result;
    }
    if (cancel.Cancelled()) {
      cancel_losers(-1);
      return cancel.StatusAt("replica group request");
    }
    if (done == launched) {
      // Everything launched so far has failed.
      if (launched < ranked.size()) {
        failovers_.fetch_add(1, std::memory_order_relaxed);
        launch(launched);
        continue;
      }
      const Status& primary = shared->attempts[0].result->status();
      return Status(primary.code(),
                    primary.message() + " (all " +
                        std::to_string(replicas_.size()) + " replicas of " +
                        id_ + " exhausted)");
    }
    // Primary still silent: arm the hedge once its delay elapses.
    if (hedge_slot < 0 && launched < ranked.size() &&
        !shared->attempts[0].result.has_value() &&
        since_primary.ElapsedMillis() >= hedge_delay) {
      hedge_slot = static_cast<int>(launched);
      hedges_launched_.fetch_add(1, std::memory_order_relaxed);
      launch(launched);
      continue;
    }
    double wait_ms = 5.0;  // Cancellation-check slice.
    if (hedge_slot < 0 && launched < ranked.size()) {
      double until_hedge = hedge_delay - since_primary.ElapsedMillis();
      wait_ms = std::clamp(until_hedge, 0.1, wait_ms);
    }
    shared->cv.wait_for(
        lock, std::chrono::duration<double, std::milli>(wait_ms));
  }
}

ReplicaGroupStats ReplicaGroup::stats() const {
  ReplicaGroupStats stats;
  stats.requests = requests_.load(std::memory_order_relaxed);
  stats.failovers = failovers_.load(std::memory_order_relaxed);
  stats.probes = probes_.load(std::memory_order_relaxed);
  stats.hedges_launched = hedges_launched_.load(std::memory_order_relaxed);
  stats.hedge_wins = hedge_wins_.load(std::memory_order_relaxed);
  stats.hedge_losses = hedge_losses_.load(std::memory_order_relaxed);
  stats.breaker_skips = breaker_skips_.load(std::memory_order_relaxed);
  return stats;
}

void ReplicaGroup::ExportMetrics(obs::MetricsSnapshot* snapshot) const {
  ReplicaGroupStats s = stats();
  obs::MetricLabels labels{{"endpoint", id_}};
  snapshot->AddCounter("lusail_replica_requests_total",
                       "Queries issued through the replica group.", labels,
                       static_cast<double>(s.requests));
  snapshot->AddCounter("lusail_replica_failovers_total",
                       "Sequential failovers after a replica failure.",
                       labels, static_cast<double>(s.failovers));
  snapshot->AddCounter("lusail_replica_probes_total",
                       "Lazy health probes issued.", labels,
                       static_cast<double>(s.probes));
  snapshot->AddCounter("lusail_replica_hedges_launched_total",
                       "Duplicate (hedged) requests started.", labels,
                       static_cast<double>(s.hedges_launched));
  snapshot->AddCounter("lusail_replica_hedge_wins_total",
                       "Hedged requests that answered first.", labels,
                       static_cast<double>(s.hedge_wins));
  snapshot->AddCounter("lusail_replica_hedge_losses_total",
                       "Hedges beaten by the primary.", labels,
                       static_cast<double>(s.hedge_losses));
  snapshot->AddCounter("lusail_replica_breaker_skips_total",
                       "Replicas skipped on an open breaker.", labels,
                       static_cast<double>(s.breaker_skips));
  const Clock::time_point now = Clock::now();
  for (const auto& replica : replicas_) {
    obs::MetricLabels replica_labels{{"endpoint", id_},
                                     {"replica", replica->endpoint->id()}};
    obs::LatencyHistogram latency;
    Health health;
    bool stale;
    bool probed;
    {
      std::lock_guard<std::mutex> lock(replica->mu);
      latency = replica->latency;
      health = replica->health;
      stale = health != Health::kUnknown &&
              std::chrono::duration<double, std::milli>(
                  now - replica->verdict_at)
                      .count() > options_.health_decay_ms;
      probed = replica->probed;
    }
    snapshot->AddHistogram("lusail_replica_latency_seconds",
                           "Per-replica request latency.", replica_labels,
                           latency);
    snapshot->AddGauge(
        "lusail_replica_breaker_open",
        "1 when the replica's circuit breaker would reject a request.",
        replica_labels, replica->breaker.WouldAllowRequest() ? 0.0 : 1.0);
    replica->breaker.ExportState(snapshot, "lusail_replica_breaker_state",
                                 replica_labels);
    snapshot->AddCounter("lusail_replica_breaker_trips_total",
                         "Replica circuit-breaker transitions to open.",
                         replica_labels,
                         static_cast<double>(replica->breaker.trips()));
    snapshot->AddStateSet(
        "lusail_replica_health", "Latest health verdict on the replica.",
        replica_labels, "verdict", {"healthy", "unhealthy", "unknown"},
        health == Health::kHealthy     ? "healthy"
        : health == Health::kUnhealthy ? "unhealthy"
                                       : "unknown");
    snapshot->AddGauge("lusail_replica_health_stale",
                       "1 when the verdict is older than the health decay "
                       "and the replica ranks as unknown again.",
                       replica_labels, stale ? 1.0 : 0.0);
    snapshot->AddGauge("lusail_replica_probed",
                       "1 once a lazy probe was issued (or skipped).",
                       replica_labels, probed ? 1.0 : 0.0);
    replica->endpoint->ExportMetrics(snapshot);
  }
}

}  // namespace lusail::net

#include "net/fault_injection.h"

#include <algorithm>
#include <functional>
#include <thread>
#include <utility>

#include "common/rng.h"
#include "obs/metrics.h"

namespace lusail::net {

FaultInjectingEndpoint::FaultInjectingEndpoint(std::shared_ptr<Endpoint> inner,
                                               FaultProfile profile)
    : inner_(std::move(inner)),
      profile_(profile),
      id_hash_(std::hash<std::string>{}(inner_->id())),
      down_(profile.permanently_down) {}

Result<QueryResponse> FaultInjectingEndpoint::QueryCancellable(
    const std::string& text, const CancelToken& cancel) {
  const Deadline& deadline = cancel.deadline();
  requests_.fetch_add(1, std::memory_order_relaxed);

  uint64_t occurrence;
  uint64_t arrival;
  uint64_t text_hash = std::hash<std::string>{}(text);
  {
    std::lock_guard<std::mutex> lock(mu_);
    occurrence = text_occurrences_[text_hash]++;
    arrival = arrival_index_++;
  }

  if (down_.load(std::memory_order_relaxed)) {
    outage_failures_.fetch_add(1, std::memory_order_relaxed);
    return Status::Unavailable("endpoint " + id() + " is down");
  }
  if (profile_.crash_after_n_queries > 0 &&
      arrival >= profile_.crash_after_n_queries) {
    outage_failures_.fetch_add(1, std::memory_order_relaxed);
    return Status::Unavailable("endpoint " + id() + " crashed after " +
                               std::to_string(
                                   profile_.crash_after_n_queries) +
                               " queries");
  }
  if (profile_.outage_length > 0 && arrival >= profile_.outage_start &&
      arrival < profile_.outage_start + profile_.outage_length) {
    outage_failures_.fetch_add(1, std::memory_order_relaxed);
    return Status::Unavailable("endpoint " + id() +
                               " is in an outage window (request #" +
                               std::to_string(arrival) + ")");
  }

  // One deterministic draw stream per (seed, endpoint, text, occurrence).
  Rng rng(profile_.seed ^ (id_hash_ * 0x9e3779b97f4a7c15ULL) ^
          (text_hash * 0xbf58476d1ce4e5b9ULL) ^
          (occurrence * 0x94d049bb133111ebULL));
  if (rng.NextBool(profile_.transient_error_rate)) {
    injected_errors_.fetch_add(1, std::memory_order_relaxed);
    return Status::Unavailable("injected transient failure at " + id());
  }
  if (rng.NextBool(profile_.timeout_rate)) {
    injected_timeouts_.fetch_add(1, std::memory_order_relaxed);
    return Status::Timeout("injected server timeout at " + id());
  }
  if (rng.NextBool(profile_.rate_limit_rate)) {
    injected_rate_limits_.fetch_add(1, std::memory_order_relaxed);
    return Status::Unavailable("rate limited by " + id());
  }

  bool slow = rng.NextBool(profile_.slow_rate) && profile_.slow_latency_ms > 0;
  if (slow) {
    injected_slowdowns_.fetch_add(1, std::memory_order_relaxed);
    // Slow responders still respect the caller's deadline budget: the
    // imposed delay is capped to the remaining time (the response then
    // arrives with the deadline already spent — the caller's next
    // cooperative check fails it with kTimeout).
    double sleep_ms =
        std::min(profile_.slow_latency_ms, deadline.RemainingMillis());
    if (sleep_ms > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(sleep_ms));
    }
  }

  passed_through_.fetch_add(1, std::memory_order_relaxed);
  Result<QueryResponse> response = inner_->QueryCancellable(text, cancel);
  if (response.ok() && slow) {
    response->network_ms += profile_.slow_latency_ms;
  }
  return response;
}

FaultStats FaultInjectingEndpoint::stats() const {
  FaultStats stats;
  stats.requests = requests_.load(std::memory_order_relaxed);
  stats.injected_errors = injected_errors_.load(std::memory_order_relaxed);
  stats.injected_timeouts = injected_timeouts_.load(std::memory_order_relaxed);
  stats.injected_rate_limits =
      injected_rate_limits_.load(std::memory_order_relaxed);
  stats.injected_slowdowns =
      injected_slowdowns_.load(std::memory_order_relaxed);
  stats.outage_failures = outage_failures_.load(std::memory_order_relaxed);
  stats.passed_through = passed_through_.load(std::memory_order_relaxed);
  return stats;
}

void FaultInjectingEndpoint::ExportMetrics(
    obs::MetricsSnapshot* snapshot) const {
  FaultStats s = stats();
  obs::MetricLabels labels{{"endpoint", id()}};
  snapshot->AddCounter("lusail_fault_requests_total",
                       "Requests reaching the fault injector.", labels,
                       static_cast<double>(s.requests));
  snapshot->AddCounter("lusail_fault_passed_through_total",
                       "Requests the inner endpoint served.", labels,
                       static_cast<double>(s.passed_through));
  const std::pair<const char*, uint64_t> injected[] = {
      {"error", s.injected_errors},
      {"timeout", s.injected_timeouts},
      {"rate_limit", s.injected_rate_limits},
      {"slowdown", s.injected_slowdowns},
      {"outage", s.outage_failures}};
  for (const auto& [kind, count] : injected) {
    obs::MetricLabels kind_labels = labels;
    kind_labels.emplace_back("kind", kind);
    snapshot->AddCounter("lusail_fault_injected_total",
                         "Faults injected, by kind.", std::move(kind_labels),
                         static_cast<double>(count));
  }
  inner_->ExportMetrics(snapshot);
}

void FaultInjectingEndpoint::ResetHistory() {
  std::lock_guard<std::mutex> lock(mu_);
  text_occurrences_.clear();
  arrival_index_ = 0;
  requests_.store(0, std::memory_order_relaxed);
  injected_errors_.store(0, std::memory_order_relaxed);
  injected_timeouts_.store(0, std::memory_order_relaxed);
  injected_rate_limits_.store(0, std::memory_order_relaxed);
  injected_slowdowns_.store(0, std::memory_order_relaxed);
  outage_failures_.store(0, std::memory_order_relaxed);
  passed_through_.store(0, std::memory_order_relaxed);
}

}  // namespace lusail::net

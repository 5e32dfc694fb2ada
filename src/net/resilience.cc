#include "net/resilience.h"

#include <algorithm>
#include <functional>
#include <thread>

#include "common/rng.h"

namespace lusail::net {

// ---------------------------------------------------------------------
// CircuitBreaker
// ---------------------------------------------------------------------

bool CircuitBreaker::AllowRequest() {
  std::lock_guard<std::mutex> lock(mu_);
  switch (state_) {
    case State::kClosed:
      return true;
    case State::kOpen: {
      double open_ms = std::chrono::duration<double, std::milli>(
                           Clock::now() - opened_at_)
                           .count();
      if (open_ms < config_.open_cooldown_ms) return false;
      state_ = State::kHalfOpen;
      half_open_in_flight_ = 0;
      [[fallthrough]];
    }
    case State::kHalfOpen:
      if (half_open_in_flight_ >= config_.half_open_probes) return false;
      ++half_open_in_flight_;
      return true;
  }
  return true;
}

void CircuitBreaker::RecordSuccess() {
  std::lock_guard<std::mutex> lock(mu_);
  if (state_ == State::kHalfOpen) {
    // The probe proved the endpoint healthy again.
    state_ = State::kClosed;
    window_.clear();
    window_failures_ = 0;
    half_open_in_flight_ = 0;
    return;
  }
  if (state_ == State::kOpen) return;  // Late response; ignore.
  window_.push_back(false);
  if (window_.size() > config_.window_size) {
    if (window_.front()) --window_failures_;
    window_.pop_front();
  }
}

bool CircuitBreaker::RecordFailure() {
  std::lock_guard<std::mutex> lock(mu_);
  if (state_ == State::kHalfOpen) {
    TripLocked();
    return true;
  }
  if (state_ == State::kOpen) return false;  // Late response; ignore.
  window_.push_back(true);
  ++window_failures_;
  if (window_.size() > config_.window_size) {
    if (window_.front()) --window_failures_;
    window_.pop_front();
  }
  if (window_.size() >= config_.min_samples) {
    double rate = static_cast<double>(window_failures_) /
                  static_cast<double>(window_.size());
    if (rate >= config_.failure_rate_threshold) {
      TripLocked();
      return true;
    }
  }
  return false;
}

void CircuitBreaker::TripLocked() {
  state_ = State::kOpen;
  opened_at_ = Clock::now();
  half_open_in_flight_ = 0;
  window_.clear();
  window_failures_ = 0;
  trips_.fetch_add(1, std::memory_order_relaxed);
}

bool CircuitBreaker::WouldAllowRequest() const {
  std::lock_guard<std::mutex> lock(mu_);
  switch (state_) {
    case State::kClosed:
      return true;
    case State::kOpen: {
      double open_ms = std::chrono::duration<double, std::milli>(
                           Clock::now() - opened_at_)
                           .count();
      // An expired cooldown means AllowRequest() would go half-open and
      // admit a probe; report that without performing the transition.
      return open_ms >= config_.open_cooldown_ms;
    }
    case State::kHalfOpen:
      return half_open_in_flight_ < config_.half_open_probes;
  }
  return true;
}

CircuitBreaker::State CircuitBreaker::state() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_;
}

void CircuitBreaker::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  state_ = State::kClosed;
  window_.clear();
  window_failures_ = 0;
  half_open_in_flight_ = 0;
}

const char* CircuitBreaker::StateName(State state) {
  switch (state) {
    case State::kClosed:
      return "closed";
    case State::kOpen:
      return "open";
    case State::kHalfOpen:
      return "half-open";
  }
  return "unknown";
}

void CircuitBreaker::ExportState(obs::MetricsSnapshot* snapshot,
                                 const std::string& name,
                                 const obs::MetricLabels& labels) const {
  snapshot->AddStateSet(name, "Circuit-breaker state.", labels, "state",
                        {"closed", "open", "half-open"}, StateName(state()));
}

// ---------------------------------------------------------------------
// QueryWithRetry
// ---------------------------------------------------------------------

namespace {

/// Seed of the backoff jitter stream. QueryWithRetry mixes in the query
/// text, so each request's sleeps are reproducible.
constexpr uint64_t kJitterSeed = 0x5eedULL;

/// Sleeps `millis`, clamped to the remaining deadline. Returns the time
/// actually slept.
double SleepWithin(double millis, const Deadline& deadline) {
  double capped = std::min(millis, deadline.RemainingMillis());
  if (capped <= 0.0) return 0.0;
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(capped));
  return capped;
}

}  // namespace

Result<QueryResponse> QueryWithRetry(Endpoint* endpoint,
                                     const std::string& text,
                                     const CancelToken& cancel,
                                     const RetryPolicy& policy,
                                     CircuitBreaker* breaker,
                                     RetryOutcome* outcome,
                                     obs::Tracer* tracer,
                                     obs::SpanId trace_parent) {
  const Deadline& deadline = cancel.deadline();
  RetryOutcome local;
  RetryOutcome* out = outcome != nullptr ? outcome : &local;
  Rng rng(kJitterSeed ^ std::hash<std::string>{}(text));
  int max_attempts = std::max(1, policy.max_attempts);
  double prev_backoff = policy.initial_backoff_ms;
  Status last = Status::Unavailable("no attempt issued to " + endpoint->id());

  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    if (cancel.CancelRequested()) {
      return cancel.StatusAt("endpoint retry loop");
    }
    if (deadline.Expired()) {
      return Status::Timeout("query deadline expired before attempt " +
                             std::to_string(attempt + 1) + " to " +
                             endpoint->id());
    }
    if (breaker != nullptr && !breaker->AllowRequest()) {
      ++out->breaker_rejections;
      if (tracer != nullptr) {
        obs::SpanId rejection = tracer->StartSpan(
            "breaker rejection", "breaker", trace_parent);
        tracer->Annotate(rejection, "endpoint", endpoint->id());
        tracer->EndSpan(rejection);
      }
      return Status::Unavailable("circuit breaker open for " + endpoint->id());
    }
    ++out->attempts;
    obs::ScopedSpan attempt_span(
        tracer, "attempt " + std::to_string(attempt + 1),
        attempt == 0 ? "attempt" : "retry", trace_parent);
    Result<QueryResponse> response = endpoint->QueryCancellable(text, cancel);
    attempt_span.Annotate("ok", response.ok());
    if (!response.ok()) {
      attempt_span.Annotate("status", response.status().ToString());
    }
    attempt_span.End();
    if (response.ok()) {
      if (breaker != nullptr) breaker->RecordSuccess();
      return response;
    }
    last = response.status();
    // Client-side errors (parse, unsupported, ...) say nothing about the
    // endpoint's health; only server-side failures feed the breaker. A
    // kTimeout that coincides with our own expired deadline (or a fired
    // cancel token) is *our* budget running out, not the endpoint being
    // slow — feeding it to the breaker would trip healthy endpoints open
    // whenever clients send tight deadlines.
    bool self_inflicted_timeout =
        last.code() == StatusCode::kTimeout &&
        cancel.Cancelled();
    if (breaker != nullptr && !self_inflicted_timeout &&
        (last.IsRetryable() || last.code() == StatusCode::kInternal)) {
      if (breaker->RecordFailure()) ++out->breaker_trips;
    }
    if (!last.IsRetryable() || attempt + 1 >= max_attempts) break;

    // AWS-style decorrelated jitter: U[initial, 3 * previous], capped.
    double lo = policy.initial_backoff_ms;
    double hi = std::max(lo, prev_backoff * 3.0);
    double backoff =
        std::min(lo + rng.NextDouble() * (hi - lo), policy.max_backoff_ms);
    prev_backoff = backoff;
    // A retry whose deadline is already gone is doomed: don't sleep, don't
    // issue it — surface the timeout now so the caller gets its thread
    // back. (Previously this `break` returned the prior attempt's status,
    // hiding that the deadline, not the endpoint, ended the retry loop.)
    if (deadline.has_deadline() && deadline.RemainingMillis() <= 0.0) {
      return Status::Timeout("query deadline expired before retry " +
                             std::to_string(attempt + 2) + " to " +
                             endpoint->id() + " (last attempt: " +
                             last.ToString() + ")");
    }
    out->backoff_ms += SleepWithin(backoff, deadline);
    ++out->retries;
  }

  if (out->attempts > 1) {
    return Status(last.code(), last.message() + " (after " +
                                   std::to_string(out->attempts) +
                                   " attempts to " + endpoint->id() + ")");
  }
  return last;
}

}  // namespace lusail::net

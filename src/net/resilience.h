#ifndef LUSAIL_NET_RESILIENCE_H_
#define LUSAIL_NET_RESILIENCE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>

#include "common/status.h"
#include "common/stopwatch.h"
#include "net/endpoint.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace lusail::net {

/// Client-side retry configuration for endpoint requests. The defaults
/// (max_attempts = 1) mean *no* retrying — the fail-stop behaviour every
/// engine had before the fault-tolerance layer existed.
///
/// Retries apply only to retryable failures (Status::IsRetryable():
/// kUnavailable, kTimeout); malformed queries and engine bugs fail
/// immediately. Between attempts the client sleeps a backoff with
/// decorrelated jitter (U[initial, 3 * previous]), capped both by
/// `max_backoff_ms` and by the remaining query deadline, so a retry loop
/// never sleeps past the deadline.
struct RetryPolicy {
  /// Total attempts per request (first try included). 1 disables retries.
  int max_attempts = 1;

  /// Backoff before the first retry.
  double initial_backoff_ms = 2.0;

  /// Upper bound for any single backoff sleep.
  double max_backoff_ms = 50.0;

  bool enabled() const { return max_attempts > 1; }

  /// A sensible production default: up to `attempts` tries with jittered
  /// backoff between 2 ms and 50 ms.
  static RetryPolicy Standard(int attempts = 4) {
    RetryPolicy p;
    p.max_attempts = attempts;
    return p;
  }
};

/// Circuit-breaker tuning. The breaker watches a sliding window of
/// request outcomes; when the failure rate over at least `min_samples`
/// outcomes reaches `failure_rate_threshold` it *opens* and rejects
/// requests without contacting the endpoint. After `open_cooldown_ms` it
/// lets `half_open_probes` trial requests through (*half-open*); a probe
/// success closes the breaker, a probe failure re-opens it.
struct CircuitBreakerConfig {
  size_t window_size = 32;             ///< Outcomes kept in the window.
  /// Outcomes required before the failure rate is evaluated at all. Keep
  /// this a decent fraction of `window_size`: with few samples, sustained
  /// but tolerable transient noise (say a 20% fault rate) spuriously
  /// crosses the threshold far too often.
  size_t min_samples = 16;
  double failure_rate_threshold = 0.5; ///< Open at >= this failure rate.
  double open_cooldown_ms = 100.0;     ///< Open -> half-open delay.
  int half_open_probes = 1;            ///< Concurrent half-open trials.
};

/// Thread-safe circuit breaker state machine (closed / open / half-open).
/// One instance guards one endpoint; all engines sharing a Federation
/// share its breakers, mirroring how real deployments share endpoint
/// health.
class CircuitBreaker {
 public:
  enum class State { kClosed, kOpen, kHalfOpen };

  explicit CircuitBreaker(CircuitBreakerConfig config = CircuitBreakerConfig())
      : config_(config) {}

  /// True when a request may be issued now. An expired open-cooldown
  /// transitions the breaker to half-open and admits up to
  /// `half_open_probes` trials.
  bool AllowRequest();

  /// Side-effect-free peek: would AllowRequest() admit a request right
  /// now? Unlike AllowRequest() it neither transitions open -> half-open
  /// nor reserves a half-open probe slot, so callers can *rank* endpoints
  /// by admissibility (replica selection, source selection) without
  /// consuming probe budget they may never use.
  bool WouldAllowRequest() const;

  /// Records a successful request. A half-open success closes the breaker
  /// and clears the outcome window.
  void RecordSuccess();

  /// Records a failed request. Returns true when this failure *tripped*
  /// the breaker (closed -> open or half-open -> open).
  bool RecordFailure();

  State state() const;

  /// Cumulative number of times the breaker tripped open.
  uint64_t trips() const {
    return trips_.load(std::memory_order_relaxed);
  }

  /// Back to closed with an empty window (tests, endpoint replacement).
  void Reset();

  const CircuitBreakerConfig& config() const { return config_; }

  static const char* StateName(State state);

  /// Emits `name`{labels,state=closed|open|half-open} as a state set.
  void ExportState(obs::MetricsSnapshot* snapshot, const std::string& name,
                   const obs::MetricLabels& labels) const;

 private:
  using Clock = std::chrono::steady_clock;

  void TripLocked();

  CircuitBreakerConfig config_;
  mutable std::mutex mu_;
  State state_ = State::kClosed;
  std::deque<bool> window_;  ///< Recent outcomes; true = failure.
  size_t window_failures_ = 0;
  int half_open_in_flight_ = 0;
  Clock::time_point opened_at_{};
  std::atomic<uint64_t> trips_{0};
};

/// Per-call resilience accounting returned by QueryWithRetry; callers
/// fold it into their own stats (engine metrics, endpoint telemetry).
struct RetryOutcome {
  int attempts = 0;            ///< Requests actually issued.
  int retries = 0;             ///< attempts - 1, when > 0.
  int breaker_rejections = 0;  ///< Attempts refused by an open breaker.
  int breaker_trips = 0;       ///< Failures that tripped the breaker.
};

/// The retry loop of Federation's request path: issues `text` at
/// `endpoint` under `policy`,
/// consulting `breaker` (may be null) before each attempt and recording
/// outcomes into it. Every attempt goes to QueryCancellable with `cancel`,
/// and the loop checks the token before each attempt: no attempt starts
/// and no backoff sleeps past its deadline — a doomed attempt is never
/// issued, the loop bails with kTimeout instead. A kTimeout caused by the
/// token (deadline or explicit cancel) says nothing about the endpoint's
/// health and is *not* fed to the breaker. `outcome` (may be null)
/// receives per-call accounting. With a non-null `tracer`, every issued
/// attempt and every breaker rejection becomes a child span of
/// `trace_parent` (retries are thus visible in query traces as
/// "attempt N" spans under the request span). The jitter stream is seeded
/// from the query text, so a request's backoff sleeps are reproducible.
Result<QueryResponse> QueryWithRetry(Endpoint* endpoint,
                                     const std::string& text,
                                     const CancelToken& cancel,
                                     const RetryPolicy& policy,
                                     CircuitBreaker* breaker,
                                     RetryOutcome* outcome,
                                     obs::Tracer* tracer = nullptr,
                                     obs::SpanId trace_parent = 0);

}  // namespace lusail::net

#endif  // LUSAIL_NET_RESILIENCE_H_

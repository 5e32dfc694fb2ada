#ifndef LUSAIL_NET_FAULT_INJECTION_H_
#define LUSAIL_NET_FAULT_INJECTION_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "net/endpoint.h"

namespace lusail::net {

/// Configuration of a FaultInjectingEndpoint. All fault draws are
/// *deterministic*: the decision for a request is a pure function of
/// (profile seed, endpoint id, query text, how many times this text was
/// seen before). Two runs issuing the same requests therefore observe
/// identical faults regardless of thread interleavings — and a *retry* of
/// the same text is a fresh draw, so transient faults really are
/// transient.
struct FaultProfile {
  uint64_t seed = 1;  ///< Deterministic fault stream seed.

  /// Probability a request fails with kUnavailable ("transient failure").
  double transient_error_rate = 0.0;

  /// Probability a request fails with kTimeout ("server-side timeout").
  double timeout_rate = 0.0;

  /// Probability a request is rejected with kUnavailable ("rate limited").
  double rate_limit_rate = 0.0;

  /// Probability a request is served slowly: `slow_latency_ms` extra
  /// simulated network time is charged and imposed on the caller.
  double slow_rate = 0.0;
  double slow_latency_ms = 0.0;

  /// Burst outage: requests with arrival index in
  /// [outage_start, outage_start + outage_length) fail with kUnavailable.
  uint64_t outage_start = 0;
  uint64_t outage_length = 0;

  /// Endpoint starts hard-down (every request fails). Also toggleable at
  /// runtime via FaultInjectingEndpoint::set_down.
  bool permanently_down = false;

  /// Crash after serving: once `crash_after_n_queries` requests have
  /// *arrived* (whatever their outcome), every later request fails with
  /// kUnavailable — permanently, exactly like a process that died and was
  /// never restarted. 0 disables. Deterministic by arrival index, so
  /// replica-death tests don't need timing games.
  uint64_t crash_after_n_queries = 0;

  static FaultProfile CrashAfter(uint64_t n) {
    FaultProfile p;
    p.crash_after_n_queries = n;
    return p;
  }

  static FaultProfile None() { return FaultProfile{}; }

  static FaultProfile Transient(double rate, uint64_t seed = 1) {
    FaultProfile p;
    p.transient_error_rate = rate;
    p.seed = seed;
    return p;
  }
};

/// What a FaultInjectingEndpoint did so far.
struct FaultStats {
  uint64_t requests = 0;           ///< All requests received.
  uint64_t injected_errors = 0;    ///< Transient kUnavailable failures.
  uint64_t injected_timeouts = 0;
  uint64_t injected_rate_limits = 0;
  uint64_t injected_slowdowns = 0;
  uint64_t outage_failures = 0;    ///< Burst-window + hard-down failures.
  uint64_t passed_through = 0;     ///< Requests the inner endpoint served.
};

/// Decorator that injects transient errors, timeouts, rate-limit
/// rejections, slow responses, and outage bursts in front of any
/// endpoint, reproducibly per seed. This is the chaos half of the fault
/// tolerance layer; the engines' retry policies, run by the federation
/// under its per-endpoint circuit breakers, are the recovery half.
class FaultInjectingEndpoint : public Endpoint {
 public:
  FaultInjectingEndpoint(std::shared_ptr<Endpoint> inner,
                         FaultProfile profile);

  const std::string& id() const override { return inner_->id(); }

  /// Draws this request's faults; pass-through requests forward the token
  /// so the inner endpoint stays cancellable under injected faults.
  Result<QueryResponse> QueryCancellable(const std::string& text,
                                         const CancelToken& cancel) override;

  /// Hard-down switch for permanent-outage scenarios.
  void set_down(bool down) { down_.store(down, std::memory_order_relaxed); }
  bool down() const { return down_.load(std::memory_order_relaxed); }

  const FaultProfile& profile() const { return profile_; }
  FaultStats stats() const;

  /// Emits lusail_fault_* counters labelled {endpoint=<id>}, then the
  /// inner endpoint's metrics.
  void ExportMetrics(obs::MetricsSnapshot* snapshot) const override;

  bool Available() const override { return inner_->Available(); }

  void set_parse_dictionary(
      std::shared_ptr<core::TermDictionary> dict) override {
    inner_->set_parse_dictionary(std::move(dict));
  }

  /// Forgets all request history (occurrence counters and stats); the
  /// fault stream restarts from the beginning.
  void ResetHistory();

 private:
  std::shared_ptr<Endpoint> inner_;
  FaultProfile profile_;
  uint64_t id_hash_;

  std::mutex mu_;  ///< Guards the occurrence map and the arrival counter.
  std::unordered_map<uint64_t, uint64_t> text_occurrences_;
  uint64_t arrival_index_ = 0;

  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> injected_errors_{0};
  std::atomic<uint64_t> injected_timeouts_{0};
  std::atomic<uint64_t> injected_rate_limits_{0};
  std::atomic<uint64_t> injected_slowdowns_{0};
  std::atomic<uint64_t> outage_failures_{0};
  std::atomic<uint64_t> passed_through_{0};
  std::atomic<bool> down_;
};

}  // namespace lusail::net

#endif  // LUSAIL_NET_FAULT_INJECTION_H_

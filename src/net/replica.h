#ifndef LUSAIL_NET_REPLICA_H_
#define LUSAIL_NET_REPLICA_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "net/endpoint.h"
#include "net/resilience.h"
#include "obs/endpoint_stats.h"
#include "obs/metrics.h"

namespace lusail::net {

/// Tuning knobs for a ReplicaGroup.
struct ReplicaGroupOptions {
  /// How long a health verdict (healthy/unhealthy) stays authoritative.
  /// Older verdicts decay to "stale": the replica is ranked between fresh
  /// healthy and fresh unhealthy peers, so a recovered replica gets
  /// retried without a dead one being hammered first.
  double health_decay_ms = 5000.0;

  /// Probe a never-used replica with `probe_query` before routing real
  /// traffic to it (lazy: the probe happens on first selection, not at
  /// construction).
  bool lazy_probe = true;

  /// Cheap liveness probe; any syntactically valid query the endpoint can
  /// answer fast works. ASK keeps response bytes minimal.
  std::string probe_query = "ASK { ?s ?p ?o }";

  /// Budget for one lazy probe (also capped by the caller's deadline).
  double probe_timeout_ms = 250.0;

  /// Launch a duplicate request on the next-best replica when the primary
  /// has not answered after the hedge delay. Needs >= 2 usable replicas.
  bool hedging_enabled = true;

  /// Fixed hedge delay; 0 means "use the primary replica's observed p95
  /// latency", clamped to [hedge_min_delay_ms, hedge_max_delay_ms].
  double hedge_delay_ms = 0.0;
  double hedge_min_delay_ms = 1.0;
  double hedge_max_delay_ms = 250.0;

  /// Breaker configuration applied to every replica.
  CircuitBreakerConfig breaker_config;
};

/// Cumulative counters of one ReplicaGroup.
struct ReplicaGroupStats {
  uint64_t requests = 0;         ///< Calls to Query*.
  uint64_t failovers = 0;        ///< Sequential switches after a failure.
  uint64_t probes = 0;           ///< Lazy health probes issued.
  uint64_t hedges_launched = 0;  ///< Duplicate requests started.
  uint64_t hedge_wins = 0;       ///< Hedge answered first (and won).
  uint64_t hedge_losses = 0;     ///< Primary answered first despite hedge.
  uint64_t breaker_skips = 0;    ///< Replicas skipped on an open breaker.
};

/// N replicas of one logical endpoint behind a single Endpoint facade.
///
/// Selection ranks replicas into tiers — fresh-healthy, then
/// unknown/stale, then fresh-unhealthy, then open-breaker — and within a
/// tier by observed p95 latency, so traffic prefers the fastest replica
/// known to work while flapping ones keep getting occasional chances to
/// redeem themselves. A request that fails with a retryable error fails
/// over to the next candidate with the remaining deadline budget intact
/// (the caller's CancelToken is threaded through every attempt).
///
/// With hedging enabled and >= 2 usable replicas, a duplicate request
/// launches on the runner-up once the primary has been silent for the
/// hedge delay (default: the primary's observed p95); the first success
/// wins and the loser's token is cancelled. Losers run on detached
/// worker threads that hold only shared state; the destructor blocks
/// until all of them have drained, so a group can be destroyed (or the
/// process exited under TSan) while a cancelled loser is still unwinding.
///
/// Thread-safe: concurrent Query* calls from engine worker pools are the
/// expected usage.
class ReplicaGroup : public Endpoint {
 public:
  ReplicaGroup(std::string id,
               std::vector<std::shared_ptr<Endpoint>> replicas,
               ReplicaGroupOptions options = ReplicaGroupOptions());
  ~ReplicaGroup() override;

  ReplicaGroup(const ReplicaGroup&) = delete;
  ReplicaGroup& operator=(const ReplicaGroup&) = delete;

  const std::string& id() const override { return id_; }

  Result<QueryResponse> QueryCancellable(const std::string& text,
                                         const CancelToken& cancel) override;

  /// Streaming across replicas: sequential failover only, and only while
  /// the sink has seen nothing (a failover after the first batch would
  /// replay rows). Hedging is never used — a duplicate stream would
  /// deliver duplicate rows to the same sink.
  Result<StreamSummary> QueryStreaming(const std::string& text,
                                       const CancelToken& cancel,
                                       const StreamOptions& options,
                                       const StreamSink& sink) override;

  size_t NumReplicas() const { return replicas_.size(); }

  /// The id of replica `i` (its inner endpoint's id).
  const std::string& replica_id(size_t i) const;

  /// True when at least one replica's breaker would admit a request now.
  /// Source selection uses this to skip ASK probes against groups whose
  /// every replica is known-dead.
  bool Available() const override;

  /// Forwards to every replica.
  void set_parse_dictionary(
      std::shared_ptr<core::TermDictionary> dict) override;

  const CircuitBreaker& breaker(size_t i) const;
  CircuitBreaker* mutable_breaker(size_t i);

  ReplicaGroupStats stats() const;

  /// Emits lusail_replica_* counters ({endpoint=<group id>}) and, per
  /// replica ({endpoint,replica}), its latency histogram, breaker state
  /// and trips, health verdict (healthy / unhealthy / unknown, plus
  /// whether the verdict is stale) and whether it was probed; then each
  /// replica's own metrics.
  void ExportMetrics(obs::MetricsSnapshot* snapshot) const override;

  const ReplicaGroupOptions& options() const { return options_; }

 private:
  using Clock = std::chrono::steady_clock;

  enum class Health { kUnknown, kHealthy, kUnhealthy };

  /// Per-replica state, held by shared_ptr so detached hedge workers can
  /// outlive a returned Query* call (but never the group — see inflight_).
  struct Replica {
    explicit Replica(std::shared_ptr<Endpoint> ep,
                     const CircuitBreakerConfig& config)
        : endpoint(std::move(ep)), breaker(config) {}

    std::shared_ptr<Endpoint> endpoint;
    CircuitBreaker breaker;

    mutable std::mutex mu;  ///< Guards health fields and the histogram.
    Health health = Health::kUnknown;
    Clock::time_point verdict_at{};
    bool probed = false;  ///< A lazy probe was issued (or skipped).
    obs::LatencyHistogram latency;
  };

  /// Outcome slots shared between the caller and its hedge workers.
  struct Attempt {
    size_t replica_index = 0;
    CancelToken token;  ///< Cancellable child; fired to abandon a loser.
    std::optional<Result<QueryResponse>> result;
  };
  struct HedgeShared {
    std::mutex mu;
    std::condition_variable cv;
    std::vector<Attempt> attempts;
  };

  /// Count of detached workers still running; the destructor waits for
  /// zero so no worker ever touches freed group state.
  struct Inflight {
    std::mutex mu;
    std::condition_variable cv;
    int count = 0;
  };

  /// Candidate replicas in preference order (admissible tiers first,
  /// p95 within a tier). Never empty for a non-empty group.
  std::vector<size_t> RankReplicas() const;

  /// Issues `options_.probe_query` at an unknown replica, recording the
  /// verdict. No-op when the replica was already probed or lazy probing
  /// is off.
  void MaybeProbe(const std::shared_ptr<Replica>& replica,
                  const CancelToken& cancel);

  /// One synchronous attempt on the caller thread, with health/breaker
  /// accounting. Used by the sequential-failover path.
  Result<QueryResponse> IssueAttempt(const std::shared_ptr<Replica>& replica,
                                     const std::string& text,
                                     const CancelToken& cancel);

  /// Hedged execution across `ranked` (the primary plus runner-ups).
  Result<QueryResponse> QueryHedged(const std::vector<size_t>& ranked,
                                    const std::string& text,
                                    const CancelToken& cancel);

  /// Spawns a detached worker for attempt `slot` of `shared`.
  void LaunchAttempt(const std::shared_ptr<Replica>& replica,
                     const std::string& text,
                     const std::shared_ptr<HedgeShared>& shared, size_t slot);

  /// Records a finished request into the replica's breaker / health /
  /// histogram. `self_inflicted` suppresses breaker + health updates
  /// (our own deadline or a loser cancellation says nothing about the
  /// replica).
  static void RecordOutcome(const std::shared_ptr<Replica>& replica,
                            const Result<QueryResponse>& result,
                            double elapsed_ms, bool self_inflicted);

  /// The hedge delay for a primary: fixed or p95-derived, clamped.
  double HedgeDelayMs(const std::shared_ptr<Replica>& primary) const;

  std::string id_;
  ReplicaGroupOptions options_;
  std::vector<std::shared_ptr<Replica>> replicas_;
  std::shared_ptr<Inflight> inflight_ = std::make_shared<Inflight>();

  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> failovers_{0};
  std::atomic<uint64_t> probes_{0};
  std::atomic<uint64_t> hedges_launched_{0};
  std::atomic<uint64_t> hedge_wins_{0};
  std::atomic<uint64_t> hedge_losses_{0};
  std::atomic<uint64_t> breaker_skips_{0};
};

}  // namespace lusail::net

#endif  // LUSAIL_NET_REPLICA_H_

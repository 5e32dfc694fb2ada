#ifndef LUSAIL_OBS_ENDPOINT_STATS_H_
#define LUSAIL_OBS_ENDPOINT_STATS_H_

#include <array>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace lusail::obs {

class MetricsSnapshot;  // metrics.h includes this header; declared here
                        // to break the cycle.

/// Mergeable log-bucketed latency histogram. Bucket b holds samples whose
/// latency in microseconds lies in [2^(b-1), 2^b) (bucket 0 holds < 1 us),
/// so the whole dynamic range from sub-microsecond to hours fits in 64
/// buckets with bounded relative error (each bucket spans a factor of 2,
/// so a percentile estimate is off by at most ~41% — the geometric mean
/// of the bucket bounds is reported).
class LatencyHistogram {
 public:
  static constexpr size_t kBuckets = 64;

  void Record(double latency_ms);

  /// The `p`-quantile estimate (p in [0, 1]) in milliseconds, 0 when
  /// empty. Exact min/max are used for the extreme quantiles.
  double Percentile(double p) const;

  double P50() const { return Percentile(0.50); }
  double P95() const { return Percentile(0.95); }
  double P99() const { return Percentile(0.99); }

  uint64_t count() const { return count_; }
  double MeanMs() const;
  double MinMs() const;
  double MaxMs() const;

  void Merge(const LatencyHistogram& other);

  const std::array<uint64_t, kBuckets>& buckets() const { return buckets_; }

 private:
  std::array<uint64_t, kBuckets> buckets_{};
  uint64_t count_ = 0;
  uint64_t total_us_ = 0;
  uint64_t min_us_ = 0;
  uint64_t max_us_ = 0;
};

/// Cross-query counters for one endpoint, accumulated by the federation's
/// request path. `latency` covers successful requests only; failures are
/// classified into errors vs. timeouts.
struct EndpointStats {
  uint64_t requests = 0;  ///< Completed requests (success + failure).
  uint64_t successes = 0;
  uint64_t errors = 0;    ///< Non-timeout failures.
  uint64_t timeouts = 0;
  uint64_t retries = 0;
  uint64_t breaker_rejections = 0;
  uint64_t breaker_trips = 0;  ///< Breaker transitions to open.
  uint64_t bytes_sent = 0;
  uint64_t bytes_received = 0;
  uint64_t rows_received = 0;
  // Transport counters, filled only for endpoints reached over a real
  // socket (rpc::HttpSparqlEndpoint); in-process endpoints leave them 0.
  uint64_t network_requests = 0;     ///< Requests that crossed a socket.
  uint64_t connections_opened = 0;   ///< Fresh TCP connects.
  uint64_t connections_reused = 0;   ///< Pooled keep-alive reuses.
  uint64_t wire_bytes_sent = 0;      ///< Bytes written incl. HTTP framing.
  uint64_t wire_bytes_received = 0;  ///< Bytes read incl. HTTP framing.
  LatencyHistogram latency;
};

/// Everything one completed endpoint exchange contributes to the stats,
/// applied under a single registry lock so a concurrent scrape can never
/// observe the resilience counters ahead of the request counter.
struct EndpointExchange {
  bool success = false;
  bool timeout = false;       ///< Classifies a failure; ignored on success.
  double latency_ms = 0.0;    ///< Recorded only on success.
  uint64_t bytes_sent = 0;
  uint64_t bytes_received = 0;
  uint64_t rows = 0;
  uint64_t retries = 0;
  uint64_t breaker_rejections = 0;
  uint64_t breaker_trips = 0;
  bool network = false;       ///< The request crossed a real socket.
  bool reused_connection = false;
  uint64_t wire_bytes_sent = 0;
  uint64_t wire_bytes_received = 0;
};

/// Thread-safe registry of per-endpoint statistics spanning queries and
/// engines. Attach one to a Federation (set_stats_registry) and every
/// request any engine issues through that federation is accounted here.
class EndpointStatsRegistry {
 public:
  EndpointStatsRegistry() = default;
  EndpointStatsRegistry(const EndpointStatsRegistry&) = delete;
  EndpointStatsRegistry& operator=(const EndpointStatsRegistry&) = delete;

  /// Applies a whole exchange (outcome + resilience + transport) in one
  /// lock acquisition, so it is atomic with respect to All().
  void RecordExchange(const std::string& endpoint_id,
                      const EndpointExchange& exchange);

  /// Copy of one endpoint's stats (default-constructed when unknown).
  EndpointStats Get(const std::string& endpoint_id) const;

  /// All endpoints, sorted by id for deterministic reports.
  std::vector<std::pair<std::string, EndpointStats>> All() const;

  size_t size() const;
  void Clear();

  /// Emits lusail_endpoint_* counters and the success-latency histogram,
  /// one sample per endpoint labelled {endpoint=<id>}; endpoints reached
  /// over a socket add the lusail_endpoint_network_* transport counters.
  void ExportMetrics(MetricsSnapshot* snapshot) const;

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::string, EndpointStats> stats_;
};

}  // namespace lusail::obs

#endif  // LUSAIL_OBS_ENDPOINT_STATS_H_

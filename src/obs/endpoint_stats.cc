#include "obs/endpoint_stats.h"

#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace lusail::obs {

namespace {

uint64_t MicrosFromMillis(double ms) {
  if (ms <= 0.0) return 0;
  return static_cast<uint64_t>(std::llround(ms * 1000.0));
}

size_t BucketFor(uint64_t us) {
  if (us == 0) return 0;
  // Bucket b covers [2^(b-1), 2^b): 1us -> bucket 1, 2-3us -> 2, ...
  return static_cast<size_t>(std::bit_width(us));
}

/// Geometric mean of a bucket's bounds, in microseconds.
double BucketRepresentative(size_t bucket) {
  if (bucket == 0) return 0.5;
  double lo = std::ldexp(1.0, static_cast<int>(bucket) - 1);
  return lo * std::sqrt(2.0);
}

}  // namespace

// ---------------------------------------------------------------------
// LatencyHistogram
// ---------------------------------------------------------------------

void LatencyHistogram::Record(double latency_ms) {
  uint64_t us = MicrosFromMillis(latency_ms);
  size_t bucket = std::min(BucketFor(us), kBuckets - 1);
  ++buckets_[bucket];
  if (count_ == 0 || us < min_us_) min_us_ = us;
  if (us > max_us_) max_us_ = us;
  ++count_;
  total_us_ += us;
}

double LatencyHistogram::Percentile(double p) const {
  if (count_ == 0) return 0.0;
  p = std::clamp(p, 0.0, 1.0);
  // Rank of the requested quantile (1-based, nearest-rank method).
  uint64_t rank = static_cast<uint64_t>(std::ceil(p * count_));
  if (rank == 0) rank = 1;
  uint64_t seen = 0;
  for (size_t b = 0; b < kBuckets; ++b) {
    seen += buckets_[b];
    if (seen >= rank) {
      // Clamping to the exact extremes pins the outermost buckets to the
      // true min/max instead of the bucket midpoint.
      double us = std::clamp(BucketRepresentative(b),
                             static_cast<double>(min_us_),
                             static_cast<double>(max_us_));
      return us / 1000.0;
    }
  }
  return static_cast<double>(max_us_) / 1000.0;
}

double LatencyHistogram::MeanMs() const {
  if (count_ == 0) return 0.0;
  return static_cast<double>(total_us_) / static_cast<double>(count_) /
         1000.0;
}

double LatencyHistogram::MinMs() const {
  return static_cast<double>(min_us_) / 1000.0;
}

double LatencyHistogram::MaxMs() const {
  return static_cast<double>(max_us_) / 1000.0;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  if (other.count_ == 0) return;
  for (size_t b = 0; b < kBuckets; ++b) buckets_[b] += other.buckets_[b];
  if (count_ == 0 || other.min_us_ < min_us_) min_us_ = other.min_us_;
  max_us_ = std::max(max_us_, other.max_us_);
  count_ += other.count_;
  total_us_ += other.total_us_;
}

// ---------------------------------------------------------------------
// EndpointStatsRegistry
// ---------------------------------------------------------------------

void EndpointStatsRegistry::RecordExchange(const std::string& endpoint_id,
                                           const EndpointExchange& exchange) {
  std::lock_guard<std::mutex> lock(mu_);
  EndpointStats& s = stats_[endpoint_id];
  ++s.requests;
  if (exchange.success) {
    ++s.successes;
    s.bytes_sent += exchange.bytes_sent;
    s.bytes_received += exchange.bytes_received;
    s.rows_received += exchange.rows;
    s.latency.Record(exchange.latency_ms);
  } else if (exchange.timeout) {
    ++s.timeouts;
  } else {
    ++s.errors;
  }
  s.retries += exchange.retries;
  s.breaker_rejections += exchange.breaker_rejections;
  s.breaker_trips += exchange.breaker_trips;
  if (exchange.network) {
    ++s.network_requests;
    if (exchange.reused_connection) {
      ++s.connections_reused;
    } else {
      ++s.connections_opened;
    }
    s.wire_bytes_sent += exchange.wire_bytes_sent;
    s.wire_bytes_received += exchange.wire_bytes_received;
  }
}

EndpointStats EndpointStatsRegistry::Get(
    const std::string& endpoint_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = stats_.find(endpoint_id);
  return it == stats_.end() ? EndpointStats() : it->second;
}

std::vector<std::pair<std::string, EndpointStats>> EndpointStatsRegistry::All()
    const {
  std::vector<std::pair<std::string, EndpointStats>> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.assign(stats_.begin(), stats_.end());
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

size_t EndpointStatsRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_.size();
}

void EndpointStatsRegistry::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.clear();
}

void EndpointStatsRegistry::ExportMetrics(MetricsSnapshot* snapshot) const {
  for (const auto& [id, stats] : All()) {
    MetricLabels labels = {{"endpoint", id}};
    snapshot->AddCounter("lusail_endpoint_requests_total",
                         "Completed requests (success + failure).", labels,
                         static_cast<double>(stats.requests));
    snapshot->AddCounter("lusail_endpoint_successes_total",
                         "Requests that returned a result.", labels,
                         static_cast<double>(stats.successes));
    snapshot->AddCounter("lusail_endpoint_errors_total",
                         "Non-timeout failures.", labels,
                         static_cast<double>(stats.errors));
    snapshot->AddCounter("lusail_endpoint_timeouts_total",
                         "Requests that timed out.", labels,
                         static_cast<double>(stats.timeouts));
    snapshot->AddCounter("lusail_endpoint_retries_total",
                         "Requests retried after a retryable failure.",
                         labels, static_cast<double>(stats.retries));
    snapshot->AddCounter("lusail_endpoint_breaker_rejections_total",
                         "Requests refused by an open circuit breaker.",
                         labels, static_cast<double>(stats.breaker_rejections));
    snapshot->AddCounter("lusail_endpoint_breaker_trips_total",
                         "Circuit-breaker transitions to open.", labels,
                         static_cast<double>(stats.breaker_trips));
    snapshot->AddCounter("lusail_endpoint_bytes_sent_total",
                         "Query text bytes shipped to the endpoint.", labels,
                         static_cast<double>(stats.bytes_sent));
    snapshot->AddCounter("lusail_endpoint_bytes_received_total",
                         "Serialized result bytes received.", labels,
                         static_cast<double>(stats.bytes_received));
    snapshot->AddCounter("lusail_endpoint_rows_received_total",
                         "Binding rows received.", labels,
                         static_cast<double>(stats.rows_received));
    snapshot->AddHistogram("lusail_endpoint_latency_seconds",
                           "Successful-request latency.", labels,
                           stats.latency);
    if (stats.network_requests == 0) continue;
    snapshot->AddCounter("lusail_endpoint_network_requests_total",
                         "Requests that crossed a real socket.", labels,
                         static_cast<double>(stats.network_requests));
    snapshot->AddCounter("lusail_endpoint_network_connections_opened_total",
                         "Fresh TCP connects.", labels,
                         static_cast<double>(stats.connections_opened));
    snapshot->AddCounter("lusail_endpoint_network_connections_reused_total",
                         "Pooled keep-alive connections reused.", labels,
                         static_cast<double>(stats.connections_reused));
    snapshot->AddCounter("lusail_endpoint_network_bytes_sent_total",
                         "Wire bytes written, HTTP framing included.", labels,
                         static_cast<double>(stats.wire_bytes_sent));
    snapshot->AddCounter("lusail_endpoint_network_bytes_received_total",
                         "Wire bytes read, HTTP framing included.", labels,
                         static_cast<double>(stats.wire_bytes_received));
  }
}

}  // namespace lusail::obs

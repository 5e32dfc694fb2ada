#ifndef LUSAIL_OBS_METRICS_H_
#define LUSAIL_OBS_METRICS_H_

#include <array>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/endpoint_stats.h"
#include "obs/json.h"

namespace lusail::obs {

/// Prometheus-style label set ({endpoint="EP1",replica="EP1#0",...}).
/// Order is preserved in the exposition output.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

enum class MetricType { kCounter, kGauge, kHistogram };

/// One labelled time series inside a family. Counters and gauges carry
/// `value`; histograms carry the log-2 bucket array (the same bucketing
/// as LatencyHistogram: bucket b holds samples in [2^(b-1), 2^b) µs)
/// plus count and sum.
struct MetricSample {
  MetricLabels labels;
  double value = 0.0;
  std::array<uint64_t, LatencyHistogram::kBuckets> buckets{};
  uint64_t count = 0;
  double sum_seconds = 0.0;
};

/// All samples of one metric name, with its help text and type.
struct MetricFamily {
  std::string name;
  std::string help;
  MetricType type = MetricType::kCounter;
  std::vector<MetricSample> samples;
};

/// One scrape's worth of metrics, built by component ExportMetrics
/// methods at collection time. Components call the typed Add* methods;
/// samples with the same metric name group into one family, so the
/// rendered exposition is valid Prometheus text format.
///
/// Metric naming convention (documented in DESIGN.md): every metric is
/// `lusail_<subsystem>_<name>` with `_total` on counters and `_seconds`
/// on duration histograms, labelled with {endpoint=...}, {replica=...},
/// {tier=...} as applicable.
class MetricsSnapshot {
 public:
  void AddCounter(const std::string& name, const std::string& help,
                  MetricLabels labels, double value);
  void AddGauge(const std::string& name, const std::string& help,
                MetricLabels labels, double value);
  void AddHistogram(const std::string& name, const std::string& help,
                    MetricLabels labels, const LatencyHistogram& histogram);

  /// A state set: one gauge per entry of `states`, labelled `labels` plus
  /// {<key>=<state>}, 1 for `current` and 0 for the others, so every
  /// series exists on every scrape whatever the state.
  void AddStateSet(const std::string& name, const std::string& help,
                   const MetricLabels& labels, const std::string& key,
                   const std::vector<std::string>& states,
                   const std::string& current);

  const std::vector<MetricFamily>& families() const { return families_; }

  /// The sample of family `name` whose labels equal `labels` (same pairs,
  /// same order), or null.
  const MetricSample* Find(const std::string& name,
                           const MetricLabels& labels) const;

  /// Prometheus text exposition format (version 0.0.4): # HELP / # TYPE
  /// lines per family, histogram buckets as cumulative `_bucket{le=...}`
  /// series (in seconds) up to the highest non-empty bucket plus +Inf,
  /// with `_sum` and `_count`.
  std::string RenderPrometheus() const;

  /// The same data as a JSON object keyed by metric name: per sample its
  /// labels and value, or for a histogram its count, sum and non-empty
  /// buckets ({"le": upper bound in seconds, "count": samples in that
  /// bucket alone}). GET /stats and the bench dump files render this.
  JsonValue ToJson() const;

 private:
  MetricFamily* Family(const std::string& name, const std::string& help,
                       MetricType type);

  std::vector<MetricFamily> families_;
  std::unordered_map<std::string, size_t> index_;
};

/// Scrape-time metrics registry: components register a collector callback
/// once, and every Collect() (a /metrics scrape, a bench dump) invokes
/// the callbacks against a fresh MetricsSnapshot. Nothing touches the
/// registry on a query hot path — components keep their existing atomic
/// counters and only read them when scraped — which is what keeps the
/// registry lock-cheap: one short mutex hold per scrape, zero per query.
class MetricsRegistry {
 public:
  using Collector = std::function<void(MetricsSnapshot*)>;

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Registers a collector; returns a handle for RemoveCollector. The
  /// callback must stay valid until removed.
  uint64_t AddCollector(Collector collector);
  void RemoveCollector(uint64_t handle);
  size_t NumCollectors() const;

  /// Runs every collector against a fresh snapshot.
  MetricsSnapshot Collect() const;

  /// Runs every collector against an existing snapshot (lets a caller
  /// merge its own samples with the registry's in one exposition).
  void CollectInto(MetricsSnapshot* snapshot) const;

  std::string RenderPrometheus() const { return Collect().RenderPrometheus(); }

  /// Process-wide default registry (benches and example binaries share
  /// it so one /metrics listener sees every component).
  static MetricsRegistry* Default();

 private:
  mutable std::mutex mu_;
  std::vector<std::pair<uint64_t, Collector>> collectors_;
  uint64_t next_handle_ = 1;
};

/// RAII collector registration: removes itself from the registry on
/// destruction, so a component's collector can never outlive it. Movable.
class ScopedCollector {
 public:
  ScopedCollector() = default;
  ScopedCollector(MetricsRegistry* registry, MetricsRegistry::Collector fn)
      : registry_(registry), handle_(registry->AddCollector(std::move(fn))) {}
  ScopedCollector(ScopedCollector&& other) noexcept
      : registry_(other.registry_), handle_(other.handle_) {
    other.registry_ = nullptr;
    other.handle_ = 0;
  }
  ScopedCollector& operator=(ScopedCollector&& other) noexcept {
    if (this != &other) {
      Release();
      registry_ = other.registry_;
      handle_ = other.handle_;
      other.registry_ = nullptr;
      other.handle_ = 0;
    }
    return *this;
  }
  ScopedCollector(const ScopedCollector&) = delete;
  ScopedCollector& operator=(const ScopedCollector&) = delete;
  ~ScopedCollector() { Release(); }

  void Release() {
    if (registry_ != nullptr) registry_->RemoveCollector(handle_);
    registry_ = nullptr;
    handle_ = 0;
  }

 private:
  MetricsRegistry* registry_ = nullptr;
  uint64_t handle_ = 0;
};

}  // namespace lusail::obs

#endif  // LUSAIL_OBS_METRICS_H_

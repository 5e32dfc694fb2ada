#ifndef LUSAIL_CACHE_CACHED_ENDPOINT_H_
#define LUSAIL_CACHE_CACHED_ENDPOINT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "cache/federation_cache.h"
#include "net/endpoint.h"
#include "obs/metrics.h"

namespace lusail::cache {

/// Decorator memoizing ASK-query verdicts in a FederationCache's verdict
/// tier. This is the *server-side* counterpart of the federator's shared
/// verdict cache: a lusail_endpointd wraps its store endpoint in one, so
/// the source-selection ASK stampede a restarting federator fleet causes
/// is absorbed from memory — and, because the backing cache can
/// SaveToDisk/LoadFromDisk, from a warm-loaded snapshot after the server
/// itself restarts.
///
/// Only ASK queries are intercepted; everything else passes through
/// untouched. Correctness note: the backing cache's generation stamps
/// apply — call cache->Invalidate(id()) when the underlying store
/// mutates.
class CachedAskEndpoint : public net::Endpoint {
 public:
  /// `cache` is non-owning and must outlive this endpoint.
  CachedAskEndpoint(std::shared_ptr<net::Endpoint> inner,
                    FederationCache* cache)
      : inner_(std::move(inner)), cache_(cache) {}

  const std::string& id() const override { return inner_->id(); }

  Result<net::QueryResponse> QueryCancellable(
      const std::string& text, const CancelToken& cancel) override;

  /// ASK queries answered from the verdict tier.
  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }

  /// ASK queries that had to be evaluated by the inner endpoint (cold
  /// probes).
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }

  /// Emits lusail_ask_cache_{hits,misses}_total{endpoint=<id>}, then the
  /// inner endpoint's metrics.
  void ExportMetrics(obs::MetricsSnapshot* snapshot) const override {
    obs::MetricLabels labels = {{"endpoint", id()}};
    snapshot->AddCounter("lusail_ask_cache_hits_total",
                         "ASK queries answered from the verdict tier.",
                         labels, static_cast<double>(hits()));
    snapshot->AddCounter("lusail_ask_cache_misses_total",
                         "ASK queries evaluated by the inner endpoint.",
                         labels, static_cast<double>(misses()));
    inner_->ExportMetrics(snapshot);
  }

  bool Available() const override { return inner_->Available(); }

  void set_parse_dictionary(
      std::shared_ptr<core::TermDictionary> dict) override {
    inner_->set_parse_dictionary(std::move(dict));
  }

 private:
  std::shared_ptr<net::Endpoint> inner_;
  FederationCache* cache_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
};

}  // namespace lusail::cache

#endif  // LUSAIL_CACHE_CACHED_ENDPOINT_H_

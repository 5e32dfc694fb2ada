#ifndef LUSAIL_FEDERATION_SOURCE_SELECTION_H_
#define LUSAIL_FEDERATION_SOURCE_SELECTION_H_

#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/cancel.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "federation/federation.h"
#include "sparql/ast.h"

namespace lusail::fed {

/// Thread-safe boolean cache keyed by arbitrary strings. Lusail and FedX
/// share this structure for caching ASK source-selection probes; Lusail
/// additionally caches the outcomes of its locality check queries
/// (Section 3.1 / Figure 12 of the paper measure the effect of this
/// cache).
class AskCache {
 public:
  AskCache() = default;
  AskCache(const AskCache&) = delete;
  AskCache& operator=(const AskCache&) = delete;

  std::optional<bool> Get(const std::string& key) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it == entries_.end()) return std::nullopt;
    return it->second;
  }

  void Put(const std::string& key, bool value) {
    std::lock_guard<std::mutex> lock(mu_);
    entries_[key] = value;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
  }

  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    entries_.clear();
  }

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::string, bool> entries_;
};

/// ASK-based source selection shared by Lusail and the FedX baseline:
/// every triple pattern is probed at every endpoint, except where the
/// cache already knows the answer. Verdicts are cached per (pattern,
/// endpoint) under cache::FederationCache::PatternKey; each endpoint's
/// uncached patterns travel as one batched probe request
/// (sparql/probe.h), all endpoints in parallel through the pool.
class SourceSelector {
 public:
  SourceSelector(const Federation* federation, AskCache* cache,
                 ThreadPool* pool)
      : federation_(federation), cache_(cache), pool_(pool) {}

  /// Returns, per triple pattern, the sorted list of endpoint indices
  /// with at least one matching triple. `use_cache=false` forces fresh
  /// probes (and still populates the cache). Probes go through `retry`
  /// when given. A failed probe normally fails the selection (with every
  /// failure aggregated into one status); with `tolerate_failures` the
  /// endpoint is conservatively kept as relevant instead (uncached), so a
  /// flaky endpoint degrades at execution time rather than silently
  /// losing sources here.
  Result<std::vector<std::vector<int>>> SelectSources(
      const std::vector<sparql::TriplePattern>& patterns,
      MetricsCollector* metrics, const CancelToken& cancel, bool use_cache,
      const net::RetryPolicy* retry = nullptr,
      bool tolerate_failures = false);

 private:
  const Federation* federation_;
  AskCache* cache_;
  ThreadPool* pool_;
};

}  // namespace lusail::fed

#endif  // LUSAIL_FEDERATION_SOURCE_SELECTION_H_

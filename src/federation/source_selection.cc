#include "federation/source_selection.h"

#include <algorithm>

#include "cache/federation_cache.h"

namespace lusail::fed {

Result<std::vector<std::vector<int>>> SourceSelector::SelectSources(
    const std::vector<sparql::TriplePattern>& patterns,
    MetricsCollector* metrics, const CancelToken& cancel, bool use_cache,
    const net::RetryPolicy* retry, bool tolerate_failures) {
  const size_t num_eps = federation_->size();
  std::vector<std::vector<int>> sources(patterns.size());

  // Health consult: an endpoint that knows it cannot answer (a replica
  // group whose every breaker is open, a sharded endpoint whose every
  // shard is such a group, either behind any decorator) is not probed,
  // so no deadline budget or retry backoff is spent asking. Evaluated
  // once per endpoint, not per pattern.
  std::vector<bool> unavailable(num_eps, false);
  for (size_t ei = 0; ei < num_eps; ++ei) {
    unavailable[ei] = !federation_->endpoint(ei)->Available();
  }

  // Cached verdicts first; every other (pattern, endpoint) pair becomes
  // a probe, and each endpoint's probes go out as one request.
  cache::FederationCache* shared =
      use_cache ? federation_->query_cache() : nullptr;
  std::vector<Probe> probes;
  std::vector<size_t> probe_pattern;
  std::vector<std::string> probe_key;
  for (size_t pi = 0; pi < patterns.size(); ++pi) {
    for (size_t ei = 0; ei < num_eps; ++ei) {
      std::string key = cache::FederationCache::PatternKey(
          federation_->id(ei), patterns[pi]);
      if (use_cache) {
        std::optional<bool> cached = cache_->Get(key);
        if (!cached.has_value() && shared != nullptr) {
          cached = shared->GetVerdict(key);
          // Warm the per-engine cache so repeats stay off the shared lock.
          if (cached.has_value()) cache_->Put(key, *cached);
        }
        if (cached.has_value()) {
          if (*cached) sources[pi].push_back(static_cast<int>(ei));
          continue;
        }
      }
      if (unavailable[ei]) {
        if (tolerate_failures) {
          // Same conservative keep as a failed probe, without issuing it:
          // execution-time failover decides the endpoint's fate.
          sources[pi].push_back(static_cast<int>(ei));
          continue;
        }
        return Status::Unavailable(
            federation_->id(ei) +
            " is unavailable (open circuit breakers); source selection "
            "cannot probe it");
      }
      probes.push_back({ei, sparql::ProbeBody(patterns[pi])});
      probe_pattern.push_back(pi);
      probe_key.push_back(std::move(key));
    }
  }

  IssueContext ctx;
  ctx.metrics = metrics;
  ctx.cancel = cancel;
  ctx.retry = retry;
  std::vector<Result<uint64_t>> answers = Federation::CollectProbes(
      federation_->SendProbes(pool_, sparql::ProbeKind::kAsk, probes, ctx));
  std::vector<std::pair<size_t, Status>> failures;
  for (size_t i = 0; i < probes.size(); ++i) {
    const size_t ei = probes[i].endpoint;
    if (!answers[i].ok()) {
      if (tolerate_failures) {
        // Unreachable endpoint: conservatively assume it is relevant (and
        // leave it uncached) so it is retried/dropped at execution time.
        sources[probe_pattern[i]].push_back(static_cast<int>(ei));
      } else {
        failures.emplace_back(ei, answers[i].status());
      }
      continue;
    }
    const bool verdict = *answers[i] > 0;
    cache_->Put(probe_key[i], verdict);
    if (shared != nullptr) {
      shared->PutVerdict(probe_key[i], federation_->id(ei), verdict);
    }
    if (verdict) sources[probe_pattern[i]].push_back(static_cast<int>(ei));
  }
  if (!failures.empty()) {
    std::string msg = std::to_string(failures.size()) + " of " +
                      std::to_string(probes.size()) +
                      " source-selection probes failed (endpoints: ";
    std::vector<std::string> ids;
    for (const auto& [ei, status] : failures) {
      std::string id = federation_->id(ei);
      if (std::find(ids.begin(), ids.end(), id) == ids.end()) {
        ids.push_back(std::move(id));
      }
    }
    for (size_t i = 0; i < ids.size(); ++i) {
      if (i > 0) msg += ", ";
      msg += ids[i];
    }
    msg += "); first: " + failures.front().second.ToString();
    return Status(failures.front().second.code(), std::move(msg));
  }

  // Conservative keeps may duplicate endpoints already found relevant.
  for (auto& list : sources) {
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
  }

  return sources;
}

}  // namespace lusail::fed

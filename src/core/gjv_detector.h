#ifndef LUSAIL_CORE_GJV_DETECTOR_H_
#define LUSAIL_CORE_GJV_DETECTOR_H_

#include <future>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/cancel.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "federation/federation.h"
#include "federation/source_selection.h"
#include "sparql/ast.h"

namespace lusail::core {

/// Output of Algorithm 1: the global join variables and, per variable,
/// the *causing pairs* of triple patterns — the pairs whose instances are
/// not co-located and therefore cannot share a subquery. Pairs that share
/// a GJV but were not flagged can still be grouped (Figure 6).
struct GjvResult {
  /// Variable name -> causing pairs (triple indices, smaller first).
  std::map<std::string, std::set<std::pair<int, int>>> causes;

  /// Number of locality check queries issued (cache misses only).
  uint64_t check_queries = 0;

  bool IsGjv(const std::string& var) const { return causes.count(var) > 0; }

  /// True when triple patterns `a` and `b` must not share a subquery.
  bool IsCausingPair(int a, int b) const {
    std::pair<int, int> key = a < b ? std::make_pair(a, b)
                                    : std::make_pair(b, a);
    for (const auto& [var, pairs] : causes) {
      if (pairs.count(key)) return true;
    }
    return false;
  }

  std::set<std::string> GjvNames() const {
    std::set<std::string> names;
    for (const auto& [var, pairs] : causes) names.insert(var);
    return names;
  }
};

/// Locality-aware global-join-variable detection (paper Section 3.1,
/// Algorithm 1).
///
/// For every variable in >= 2 triple patterns:
///   1. If two of its patterns have different relevant-source lists, the
///      variable is global (no endpoint communication needed).
///   2. Otherwise SPARQL check queries (Figure 5) are sent to the relevant
///      endpoints: set differences of the variable's instance bindings
///      between pattern pairs, computed with FILTER NOT EXISTS and
///      LIMIT 1. Any non-empty difference at any endpoint makes the pair a
///      causing pair.
/// rdf:type patterns on the variable restrict the checks to relevantly
/// typed instances instead of forming pairs themselves. Variables used in
/// the predicate position are conservatively treated as global (correct
/// by the paper's Lemma 2).
class GjvDetector {
 public:
  GjvDetector(const fed::Federation* federation, fed::AskCache* check_cache,
              ThreadPool* pool)
      : federation_(federation), cache_(check_cache), pool_(pool) {}

  /// Locality checks sent by Send and not yet collected.
  struct Sent {
    /// One check request in flight at one endpoint.
    struct Request {
      std::string var;
      std::pair<int, int> pair;  ///< The pair a witness makes causing.
      std::string cache_key;
      std::string endpoint_id;
      std::future<Result<bool>> nonempty;
    };
    /// What needed no request: step 1's verdicts and cached checks.
    GjvResult result;
    std::vector<Request> requests;
    fed::MetricsCollector* metrics = nullptr;
    /// The shared cache fresh verdicts go to; null without use_cache.
    cache::FederationCache* shared = nullptr;
    bool tolerate_failures = false;
  };

  /// Runs detection for `triples`, whose per-pattern relevant sources are
  /// `sources` (from source selection): Collect(Send(...)). `use_cache=false`
  /// forces fresh check queries. Check queries go through `retry` when
  /// given. A failed check normally fails detection; with
  /// `tolerate_failures` the pair is conservatively treated as a causing
  /// pair instead (uncached) — its variable becomes global, which is
  /// always correct, just less optimal.
  Result<GjvResult> Detect(const std::vector<sparql::TriplePattern>& triples,
                           const std::vector<std::vector<int>>& sources,
                           fed::MetricsCollector* metrics,
                           const CancelToken& cancel, bool use_cache,
                           const net::RetryPolicy* retry = nullptr,
                           bool tolerate_failures = false);

  /// Detect's send half: settles what needs no request and sends every
  /// other check under `ctx` (its metrics, cancel, retry and trace
  /// parent), without waiting.
  Sent Send(const std::vector<sparql::TriplePattern>& triples,
            const std::vector<std::vector<int>>& sources,
            const fed::IssueContext& ctx, bool use_cache,
            bool tolerate_failures);

  /// Detect's collect half: waits for every request of `sent`, whatever
  /// fails, caches the verdicts and returns the result.
  Result<GjvResult> Collect(Sent sent);

  /// Builds the Figure 5 check-query text for one (outer, inner) pair:
  /// SELECT ?v WHERE { [type triples] <outer pattern> FILTER NOT EXISTS {
  /// SELECT ?v WHERE { <inner pattern> } } } LIMIT 1. Exposed for tests.
  static std::string CheckQueryText(
      const std::string& var, const sparql::TriplePattern& outer,
      const sparql::TriplePattern& inner,
      const std::vector<sparql::TriplePattern>& type_patterns);

 private:
  const fed::Federation* federation_;
  fed::AskCache* cache_;
  ThreadPool* pool_;
};

}  // namespace lusail::core

#endif  // LUSAIL_CORE_GJV_DETECTOR_H_

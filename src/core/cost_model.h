#ifndef LUSAIL_CORE_COST_MODEL_H_
#define LUSAIL_CORE_COST_MODEL_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/options.h"
#include "core/subquery.h"
#include "federation/federation.h"
#include "sparql/ast.h"

namespace lusail::core {

/// Lightweight runtime statistics and the SAPE cost model (Section 4.1).
///
/// During query analysis one SELECT COUNT probe per (triple pattern,
/// relevant endpoint) collects exact pattern cardinalities; applicable
/// FILTER clauses are pushed into the probe for tighter estimates. The
/// subquery cardinality estimate is then
///   C(sq, v, ep) = min over patterns of sq containing v of count(tp, ep)
///   C(sq, v)     = sum over relevant endpoints of C(sq, v, ep)
///   C(sq)        = max over sq's projected variables of C(sq, v)
class CostModel {
 public:
  CostModel(const fed::Federation* federation, ThreadPool* pool)
      : federation_(federation), pool_(pool) {}

  /// COUNT probes sent by Send and not yet collected.
  struct Sent {
    std::vector<fed::Probe> probes;
    std::vector<int> probe_tp;           ///< Pattern of each probe.
    std::vector<std::string> probe_key;  ///< Cache key of each probe.
    fed::SentProbes requests;
    /// The shared cache fresh counts go to; null without use_cache.
    cache::FederationCache* shared = nullptr;
    bool tolerate_failures = false;
  };

  /// Issues the COUNT probes and stores the statistics:
  /// Collect(Send(...)). Each endpoint's uncached probes travel as one
  /// batched request (sparql/probe.h), all endpoints in parallel.
  /// Probes go through `retry` when given. A failed probe normally fails
  /// collection; with `tolerate_failures` it is skipped instead — its
  /// (pattern, endpoint) count stays 0, biasing that subquery toward the
  /// concurrent phase, which only affects performance, not correctness.
  /// With `use_cache`, probes consult the federation's shared
  /// cache::FederationCache (when attached) before going to the network,
  /// and store fresh results there.
  Status CollectStatistics(const std::vector<sparql::TriplePattern>& triples,
                           const std::vector<std::vector<int>>& sources,
                           const std::vector<sparql::Expr>& filters,
                           fed::MetricsCollector* metrics,
                           const CancelToken& cancel,
                           const net::RetryPolicy* retry = nullptr,
                           bool tolerate_failures = false,
                           bool use_cache = true);

  /// CollectStatistics's send half: stores the cached counts and sends
  /// every other probe under `ctx` (its metrics, cancel, retry and trace
  /// parent), without waiting.
  Sent Send(const std::vector<sparql::TriplePattern>& triples,
            const std::vector<std::vector<int>>& sources,
            const std::vector<sparql::Expr>& filters,
            const fed::IssueContext& ctx, bool tolerate_failures,
            bool use_cache);

  /// CollectStatistics's collect half: waits for every request of `sent`,
  /// whatever fails, and stores the counts.
  Status Collect(Sent sent);

  /// Cardinality of pattern `tp_index` at endpoint `ep` (0 if unprobed).
  uint64_t PatternCount(int tp_index, int ep) const;

  /// Total cardinality of a pattern across its relevant endpoints.
  uint64_t PatternTotal(int tp_index) const;

  /// The paper's C(sq) estimate.
  double SubqueryCardinality(
      const Subquery& sq,
      const std::vector<sparql::TriplePattern>& triples) const;

  /// Cost of a candidate decomposition: total estimated intermediate
  /// results Σ C(sq) (what Algorithm 2 minimizes across GJV roots).
  double DecompositionCost(
      const std::vector<Subquery>& subqueries,
      const std::vector<sparql::TriplePattern>& triples) const;

  /// Probe text: SELECT (COUNT(*) AS ?c) WHERE { tp . pushed filters }.
  static std::string CountQueryText(
      const sparql::TriplePattern& tp,
      const std::vector<const sparql::Expr*>& pushed_filters);

 private:
  const fed::Federation* federation_;
  ThreadPool* pool_;
  std::map<std::pair<int, int>, uint64_t> counts_;  ///< (tp, ep) -> count.
};

/// Chauvenet's criterion: flags values whose expected number of
/// occurrences in a normal sample of this size is below 0.5. Applied
/// before computing the delay threshold so extreme subqueries do not
/// inflate sigma.
std::vector<bool> ChauvenetOutliers(const std::vector<double>& values);

/// SAPE's delay decision (Figure 7 / Figure 13): a subquery is delayed
/// when its estimated cardinality or its relevant-endpoint count exceeds
/// the threshold (computed over non-outlier subqueries). Guarantees at
/// least one non-delayed subquery when there are any.
std::vector<bool> DecideDelayed(const std::vector<double>& cardinalities,
                                const std::vector<double>& endpoint_counts,
                                DelayThreshold threshold);

}  // namespace lusail::core

#endif  // LUSAIL_CORE_COST_MODEL_H_

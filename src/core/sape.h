#ifndef LUSAIL_CORE_SAPE_H_
#define LUSAIL_CORE_SAPE_H_

#include <functional>
#include <future>
#include <vector>

#include "common/cancel.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "core/cost_model.h"
#include "core/options.h"
#include "core/subquery.h"
#include "core/id_table.h"
#include "federation/federation.h"

namespace lusail::core {

/// Selectivity-Aware Planning and parallel Execution (paper Section 4,
/// Algorithm 3).
///
/// Phase 1 submits every non-delayed subquery to all of its relevant
/// endpoints concurrently (one task per endpoint through the Elastic
/// Request Handler pool), unions each subquery's per-endpoint results,
/// and eagerly joins connected results. Phase 2 evaluates the delayed
/// subqueries in increasing refined-cardinality order as bound joins:
/// the already-found bindings of a shared variable are shipped in VALUES
/// blocks; generic single-pattern subqueries first refine their relevant
/// sources with sampled ASK probes. A bound join sends its first block
/// alone and, once that block has landed, every other block in one wave,
/// unioning the parts in block order; so it costs at most two serial
/// round trips, and a cancel seen after the first block sends nothing
/// more. Without partial_results the first failed block fails the join,
/// so its failure fires a cutoff shared by the join's blocks and those
/// not yet sent skip the wire. The global join runs as a parallel
/// partitioned hash join in the order chosen by the DP join optimizer.
class SapeExecutor {
 public:
  SapeExecutor(const fed::Federation* federation, ThreadPool* pool,
               const LusailOptions* options)
      : federation_(federation), pool_(pool), options_(options) {}

  /// Executes `subqueries` over `triples` and returns the joined binding
  /// table (all subquery projections merged). With options.enable_sape
  /// false, every subquery runs concurrently (no delaying) and results
  /// are joined at the federator — the paper's "LADE only" mode.
  /// The token is checked before every endpoint fetch, before a bound
  /// join's first VALUES block and again before its wave of the other
  /// blocks, and around every global-join step, so execution unwinds
  /// with kTimeout within one wave of it firing.
  ///
  /// `row_limit` > 0 is a pushdown hint: the caller needs any `row_limit`
  /// rows (top-level LIMIT, no ORDER BY/DISTINCT, nothing downstream that
  /// filters rows). It applies only in whole-query mode (one subquery):
  /// the generated subquery gets a LIMIT clause and a row budget cancels
  /// the not-yet-started endpoint fetches once the union is satisfied.
  /// Multi-subquery plans ignore the hint — a join can discard rows, so
  /// no per-subquery limit is provably safe there.
  Result<IdTable> Execute(
      std::vector<Subquery> subqueries,
      const std::vector<sparql::TriplePattern>& triples,
      TermDictionary* dict, fed::MetricsCollector* metrics,
      const CancelToken& cancel, fed::ExecutionProfile* profile = nullptr,
      size_t row_limit = 0);

 private:
  /// One subquery's requests as sent by IssueEverywhere and not yet
  /// collected: one future per source, in `sources` order, and the
  /// context they were issued under (its cutoff is the row budget).
  struct Issued {
    std::vector<int> sources;
    /// One per source sent so far, in `sources` order.
    std::vector<std::future<Result<IdTable>>> futures;
    fed::IssueContext ctx;
    size_t row_limit = 0;
    /// Set while a row-limited fetch's sources after the first are
    /// unsent: sends this subquery to one more endpoint.
    std::function<std::future<Result<IdTable>>(int endpoint)> send_rest;
  };

  /// Sends one subquery (optionally with a VALUES block) to all of its
  /// relevant endpoints at once and returns without waiting. When
  /// `values` is set, `bound_ids` must carry the block's binding ids —
  /// they key the shared result cache via an id-space fingerprint
  /// instead of hashing the serialized block. Requests are traced as
  /// children of `trace_parent` (the subquery's span) — an explicit
  /// parent, because requests run on pool threads while the collector's
  /// default parent tracks the caller's current phase. `row_limit` > 0
  /// appends a LIMIT clause to the generated text (any `row_limit` rows
  /// satisfy the caller) and arms a row budget (see CollectEverywhere).
  /// A non-null `failed` is a cutoff shared with other Issued (a bound
  /// join's blocks): the first fetch that fails fires it, so fetches not
  /// yet sent are skipped, and a fetch that fails or is skipped after it
  /// fired answers an empty table, because that first failure already
  /// decides the call. A row-limited fetch without `failed` sends only
  /// its first source here; CollectEverywhere sends the rest.
  Issued IssueEverywhere(const Subquery& sq,
                         const std::vector<sparql::TriplePattern>& triples,
                         const sparql::ValuesClause* values,
                         const std::vector<rdf::TermId>* bound_ids,
                         TermDictionary* dict, fed::MetricsCollector* metrics,
                         const CancelToken& cancel,
                         obs::SpanId trace_parent = 0, size_t row_limit = 0,
                         const CancelToken* failed = nullptr);

  /// Waits for every future of `issued` — all of them, whatever fails,
  /// so nothing a response touches is released under it — and appends
  /// the answers to `merged` in source order. Failed endpoints fail the
  /// call with one status naming them all, or, with partial_results,
  /// are recorded as dropped. Under a row budget, once `merged` holds
  /// `row_limit` rows the budget token fires and every fetch not yet
  /// sent is skipped (IssueContext::cutoff); requests already sent are
  /// not interrupted, and one that fails after the budget fired
  /// contributes nothing — the budget is a cutoff, not a failure.
  /// A row-limited fetch sends its first source alone, like the bound
  /// join's first block, and the rest in one wave once that source is
  /// merged, unless it filled the budget, the query was cancelled, or
  /// its failure already decides the call (no partial_results). So a
  /// first source that holds the rows costs one request however many
  /// requests the pool overlaps, and a short one costs one extra round
  /// trip, not one per source.
  Status CollectEverywhere(Issued issued, IdTable* merged);

  /// One endpoint request in id space, issued through Federation::Issue
  /// and routed through the federation's shared result cache when this
  /// engine opted in (options.result_cache) and `cacheable` holds.
  /// `cache_key` identifies the fetch in the shared cache: the query text
  /// itself for unbound subqueries, or the base subquery text plus an
  /// id-space fingerprint of the VALUES binding block for bound
  /// (delayed-phase) fetches — so a warm serving process skips repeated
  /// bound joins too. A hit is recorded as a "cache" span instead of a
  /// request span, issues no request, and enters `dict` through
  /// Federation::ToIds on the pool, as a response does. A miss goes
  /// through the same ToIds, so an endpoint parsing straight into `dict`
  /// hands back ids untouched; a stored miss leaves its table to the cache
  /// and hands back a copy.
  /// `cutoff_on_failure` makes a failure fire ctx.cutoff (see
  /// IssueEverywhere's `failed`).
  std::future<Result<IdTable>> FetchEndpoint(int ep, const std::string& text,
                                             const std::string& cache_key,
                                             bool cacheable,
                                             TermDictionary* dict,
                                             fed::IssueContext ctx,
                                             bool cutoff_on_failure = false);

  const fed::Federation* federation_;
  ThreadPool* pool_;
  const LusailOptions* options_;
};

}  // namespace lusail::core

#endif  // LUSAIL_CORE_SAPE_H_

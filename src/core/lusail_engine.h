#ifndef LUSAIL_CORE_LUSAIL_ENGINE_H_
#define LUSAIL_CORE_LUSAIL_ENGINE_H_

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/cost_model.h"
#include "core/decomposer.h"
#include "core/gjv_detector.h"
#include "core/options.h"
#include "core/sape.h"
#include "federation/federation.h"
#include "federation/source_selection.h"
#include "sparql/parser.h"

namespace lusail::core {

/// Analysis output exposed for tests, examples, the profiling bench, and
/// EXPLAIN: the per-pattern relevant sources, the GJV analysis, the
/// chosen decomposition of the query's main basic graph pattern (with
/// pushable OPTIONAL blocks already pushed into their host subqueries and
/// `delayed` set per SAPE's decision), plus the planning artifacts SAPE
/// would act on.
struct AnalyzedQuery {
  sparql::Query query;
  /// Relevant endpoints per *mandatory* triple pattern (candidate
  /// OPTIONAL patterns are probed too but not reported here, keeping the
  /// indices aligned with query.where.triples).
  std::vector<std::vector<int>> sources;
  GjvResult gjvs;
  Decomposition decomposition;

  /// Chauvenet-rejected cardinality outliers, per subquery. These are
  /// excluded from the delay-threshold statistics (and delayed).
  std::vector<bool> outliers;

  /// Estimated left-deep join order over the subquery results (indices
  /// into decomposition.subqueries), from the DP optimizer seeded with
  /// the COUNT-probe estimates.
  std::vector<int> join_order;

  /// OPTIONAL blocks of the top-level group pushed into subqueries vs.
  /// left for the federator-level left join.
  uint64_t pushed_optionals = 0;
  uint64_t unpushed_optionals = 0;
};

/// Lusail: the paper's federated SPARQL engine. Pipeline per query:
///   1. Source selection — parallel ASK probes per triple pattern (cached).
///   2. LADE — instance-level GJV detection (check queries, cached) and
///      locality-aware decomposition into independent subqueries.
///   3. SAPE — cost-model-driven scheduling: concurrent non-delayed
///      subqueries, bound joins for delayed ones, parallel hash join.
/// OPTIONAL blocks and UNION chains are decomposed recursively and
/// combined at the federator (left-outer join / union); FILTERs are pushed
/// into covering subqueries and the rest evaluated globally. LIMIT is
/// applied on the complete result (the paper notes this costs Lusail the
/// C4 query against FedX's early termination).
class LusailEngine : public fed::FederatedEngine {
 public:
  explicit LusailEngine(const fed::Federation* federation,
                        LusailOptions options = LusailOptions());

  std::string name() const override;

  /// The token (deadline and/or explicit cancel flag) is threaded through
  /// source selection, LADE's probes, SAPE's fetch/bound-join loops, every
  /// parallel join and every endpoint request, so evaluation unwinds with
  /// kTimeout within one work chunk of the token firing.
  Result<fed::FederatedResult> Execute(const std::string& sparql_text,
                                       const CancelToken& cancel) override;
  using fed::FederatedEngine::Execute;

  /// Runs source selection + LADE only (no execution), through the same
  /// PlanBgp as execution; for inspection and EXPLAIN.
  Result<AnalyzedQuery> Analyze(const std::string& sparql_text);

  /// Drops the ASK and check-query caches (Figure 12's cold-cache runs).
  /// The term dictionary is deliberately *not* cleared: interned ids stay
  /// valid for the endpoints that parse straight into it, and re-warming
  /// it would only repeat work — it is an id space, not a result cache.
  void ClearCaches();

  /// The engine's term dictionary: the id space every query executes in.
  /// Shared so transports can parse responses straight into it
  /// (HttpSparqlEndpoint::set_parse_dictionary) and results arrive as ids
  /// with zero federator-side string rows.
  const std::shared_ptr<TermDictionary>& dictionary() const {
    return dict_;
  }

  /// Emits lusail_engine_dictionary_* gauges/counters (term count, bytes,
  /// encode/decode cell and time totals).
  void ExportMetrics(obs::MetricsSnapshot* snapshot) const {
    dict_->ExportMetrics(snapshot, "engine");
  }

  const LusailOptions& options() const { return options_; }
  LusailOptions* mutable_options() { return &options_; }

  /// The federation this engine runs against (EXPLAIN uses it to render
  /// endpoint ids).
  const fed::Federation* federation() const { return federation_; }

 private:
  /// LADE's plan for one conjunctive pattern.
  struct BgpPlan {
    /// Relevant endpoints per pattern: the mandatory triples, then the
    /// pushable OPTIONAL candidates' patterns.
    std::vector<std::vector<int>> sources;
    GjvResult gjvs;
    /// The mandatory BGP's subqueries, pushed OPTIONALs inside.
    Decomposition decomposition;
    uint64_t pushed_optionals = 0;
    /// A mandatory pattern has no relevant source, so the pattern has no
    /// answers and nothing after source selection ran.
    bool no_answers = false;
  };

  /// Source selection and LADE for one conjunctive pattern (triples +
  /// filters): the GJV locality checks and the COUNT probes go out as one
  /// wave, then decomposition and OPTIONAL push-down. Execution and
  /// EXPLAIN both plan through it, so they show the same plan.
  /// `candidate_optionals` are this group's OPTIONAL blocks; those whose
  /// locality analysis allows endpoint-side evaluation are pushed into
  /// subqueries, the rest are returned via `unpushed_optionals` for the
  /// federator-level left join. `outside_vars` are variables referenced
  /// by the rest of the query (other blocks, residual filters) — an
  /// optional may only be pushed when its overlap with them stays inside
  /// its host subquery. Adds the phase timings to `profile`.
  Result<BgpPlan> PlanBgp(
      const std::vector<sparql::TriplePattern>& triples,
      const std::vector<sparql::Expr>& filters,
      const std::vector<const sparql::GraphPattern*>& candidate_optionals,
      const std::set<std::string>& outside_vars,
      const std::set<std::string>& needed_vars,
      fed::MetricsCollector* metrics, const CancelToken& cancel,
      fed::ExecutionProfile* profile,
      std::vector<const sparql::GraphPattern*>* unpushed_optionals);

  /// Full pipeline for one conjunctive pattern: PlanBgp, then SAPE.
  /// Appends phase timings/counters to `profile`.
  Result<IdTable> ExecuteBgp(
      const std::vector<sparql::TriplePattern>& triples,
      const std::vector<sparql::Expr>& filters,
      const std::vector<const sparql::GraphPattern*>& candidate_optionals,
      const std::set<std::string>& outside_vars,
      const std::set<std::string>& needed_vars, TermDictionary* dict,
      fed::MetricsCollector* metrics, const CancelToken& cancel,
      fed::ExecutionProfile* profile,
      std::vector<const sparql::GraphPattern*>* unpushed_optionals,
      size_t row_limit = 0);

  /// Recursive group evaluation: BGP, then UNION chains (inner join),
  /// OPTIONAL blocks (left-outer join), VALUES, residual filters.
  /// `row_limit` > 0 means any `row_limit` rows of this pattern satisfy
  /// the caller (a top-level LIMIT without ORDER BY/DISTINCT): it is
  /// forwarded to the BGP only when nothing at this level — UNION joins,
  /// VALUES joins, residual filters — can discard rows afterwards.
  Result<IdTable> ExecutePattern(
      const sparql::GraphPattern& pattern,
      const std::set<std::string>& needed_vars, TermDictionary* dict,
      fed::MetricsCollector* metrics, const CancelToken& cancel,
      fed::ExecutionProfile* profile, size_t row_limit = 0);

  const fed::Federation* federation_;
  LusailOptions options_;
  ThreadPool pool_;
  fed::AskCache ask_cache_;
  fed::AskCache check_cache_;
  std::shared_ptr<TermDictionary> dict_;
};

}  // namespace lusail::core

#endif  // LUSAIL_CORE_LUSAIL_ENGINE_H_

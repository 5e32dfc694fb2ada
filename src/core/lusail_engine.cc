#include "core/lusail_engine.h"

#include <algorithm>

#include "core/finisher.h"
#include "core/hash_join.h"
#include "core/join_optimizer.h"

namespace lusail::core {

namespace {

std::set<std::string> NeededVars(const sparql::Query& query) {
  std::set<std::string> needed;
  for (const sparql::Variable& v : query.EffectiveProjection()) {
    needed.insert(v.name);
  }
  if (query.aggregate.has_value() && query.aggregate->var.has_value()) {
    needed.insert(query.aggregate->var->name);
  }
  // ORDER BY keys outside the projection reach the finisher as hidden
  // columns, which it reads only when the query is not DISTINCT.
  if (!query.distinct) {
    for (const sparql::OrderKey& key : query.order_by) {
      needed.insert(key.var.name);
    }
  }
  return needed;
}

/// True when an OPTIONAL block is a plain conjunctive pattern (the only
/// shape eligible for endpoint push-down).
bool IsPlainOptional(const sparql::GraphPattern& gp) {
  return !gp.triples.empty() && gp.exists_filters.empty() &&
         gp.optionals.empty() && gp.unions.empty() && gp.values.empty();
}

std::set<std::string> PatternVars(
    const std::vector<sparql::TriplePattern>& triples) {
  std::set<std::string> vars;
  for (const sparql::TriplePattern& tp : triples) {
    for (const std::string& v : tp.VariableNames()) vars.insert(v);
  }
  return vars;
}

/// What a group's BGP sees of the rest of its group. Execution and
/// EXPLAIN derive it the same way.
struct BgpScope {
  /// Variables the BGP's result must keep: the caller's, everything
  /// nested blocks join on, and the group's filters' variables.
  std::set<std::string> needed;
  /// Variables that other *join blocks* of this group observe: an
  /// OPTIONAL push-down must keep its overlap with these inside its host
  /// subquery, or the local left join would not commute with the global
  /// joins. (Projection-only and residual-filter variables do not block
  /// the push-down — the host simply projects them.)
  std::set<std::string> outside_vars;
  /// Filters whose variables are all inside the BGP go down the LADE
  /// pipeline; the rest are applied after nested blocks join in.
  std::vector<sparql::Expr> filters;
  std::vector<sparql::Expr> residual_filters;
};

BgpScope ScopeOfBgp(const sparql::GraphPattern& pattern,
                    const std::set<std::string>& needed_vars) {
  BgpScope scope;
  scope.needed = needed_vars;
  for (const auto& chain : pattern.unions) {
    for (const auto& alt : chain) alt.CollectVariables(&scope.outside_vars);
  }
  scope.needed.insert(scope.outside_vars.begin(), scope.outside_vars.end());
  for (const auto& opt : pattern.optionals) {
    opt.CollectVariables(&scope.needed);
  }
  const std::set<std::string> bgp_vars = PatternVars(pattern.triples);
  for (const sparql::Expr& f : pattern.filters) {
    std::set<std::string> fv;
    f.CollectVariables(&fv);
    scope.needed.insert(fv.begin(), fv.end());
    bool inside = std::all_of(fv.begin(), fv.end(), [&](const auto& v) {
      return bgp_vars.count(v) > 0;
    });
    (inside ? scope.filters : scope.residual_filters).push_back(f);
  }
  return scope;
}

/// OPTIONAL push-down (Section 3: "Lusail determines where to add the
/// FILTER and OPTIONAL clauses during query decomposition"). A plain
/// optional block is pushed into a host subquery when the endpoints can
/// evaluate the left-outer join themselves:
///   1. every optional pattern has the host's exact source list,
///   2. no causing pair crosses the optional boundary or lies inside it
///      (instance-level locality holds),
///   3. the optional's overlap with the mandatory BGP and with the rest
///      of the query stays inside the host subquery, so the local left
///      join commutes with the global joins.
///
/// `optional_ranges[k]` is the index range of plain_optionals[k]'s
/// patterns in the combined pattern list `sources`/`gjvs` were computed
/// over. Returns the number of blocks pushed; the rest are appended to
/// `unpushed` (when non-null). Shared by execution and EXPLAIN so both
/// report the same plan.
size_t PushPlainOptionals(
    const std::vector<const sparql::GraphPattern*>& plain_optionals,
    const std::vector<std::pair<size_t, size_t>>& optional_ranges,
    const std::vector<sparql::TriplePattern>& triples,
    const std::vector<std::vector<int>>& sources, const GjvResult& gjvs,
    const std::set<std::string>& outside_vars,
    const std::set<std::string>& needed_vars, Decomposition* decomposition,
    std::vector<const sparql::GraphPattern*>* unpushed) {
  size_t pushed_count = 0;
  for (size_t k = 0; k < plain_optionals.size(); ++k) {
    const sparql::GraphPattern* opt = plain_optionals[k];
    auto [begin, end] = optional_ranges[k];
    std::set<std::string> opt_vars;
    opt->CollectVariables(&opt_vars);
    // Variables visible outside this optional: the caller-provided set
    // plus the other optional candidates of this group.
    std::set<std::string> extern_vars = outside_vars;
    for (size_t j = 0; j < plain_optionals.size(); ++j) {
      if (j != k) plain_optionals[j]->CollectVariables(&extern_vars);
    }

    Subquery* host = nullptr;
    for (Subquery& sq : decomposition->subqueries) {
      bool sources_match = true;
      for (size_t oi = begin; oi < end && sources_match; ++oi) {
        if (sources[oi] != sq.sources) sources_match = false;
      }
      if (!sources_match) continue;
      bool causes = false;
      for (size_t oi = begin; oi < end && !causes; ++oi) {
        for (int ti : sq.triple_indices) {
          if (gjvs.IsCausingPair(static_cast<int>(oi), ti)) causes = true;
        }
        for (size_t oj = begin; oj < end; ++oj) {
          if (oi != oj &&
              gjvs.IsCausingPair(static_cast<int>(oi),
                                 static_cast<int>(oj))) {
            causes = true;
          }
        }
      }
      if (causes) continue;
      std::vector<std::string> host_vars = sq.Variables(triples);
      auto inside_host = [&](const std::string& v) {
        return std::find(host_vars.begin(), host_vars.end(), v) !=
               host_vars.end();
      };
      std::set<std::string> bgp_vars = PatternVars(triples);
      bool shares_with_host = false;
      bool contained = true;
      for (const std::string& v : opt_vars) {
        bool host_has = inside_host(v);
        if (host_has) shares_with_host = true;
        if ((bgp_vars.count(v) || extern_vars.count(v)) && !host_has) {
          contained = false;
          break;
        }
      }
      if (!shares_with_host || !contained) continue;
      host = &sq;
      break;
    }
    if (host == nullptr) {
      if (unpushed != nullptr) unpushed->push_back(opt);
      continue;
    }
    PushedOptional pushed;
    pushed.triples = opt->triples;
    pushed.filters = opt->filters;
    host->optionals.push_back(std::move(pushed));
    ++pushed_count;
    // Project the optional's externally visible variables.
    for (const std::string& v : opt_vars) {
      if ((needed_vars.count(v) || extern_vars.count(v)) &&
          std::find(host->projection.begin(), host->projection.end(), v) ==
              host->projection.end()) {
        host->projection.push_back(v);
      }
    }
  }
  return pushed_count;
}

}  // namespace

LusailEngine::LusailEngine(const fed::Federation* federation,
                           LusailOptions options)
    : federation_(federation),
      options_(options),
      pool_(options.num_threads),
      dict_(std::make_shared<TermDictionary>()) {}

std::string LusailEngine::name() const {
  return options_.enable_sape ? "Lusail" : "Lusail-LADE";
}

void LusailEngine::ClearCaches() {
  ask_cache_.Clear();
  check_cache_.Clear();
}

Result<AnalyzedQuery> LusailEngine::Analyze(const std::string& sparql_text) {
  LUSAIL_ASSIGN_OR_RETURN(sparql::Query query, sparql::ParseQuery(sparql_text));
  AnalyzedQuery out;
  out.query = query;
  fed::MetricsCollector metrics;
  fed::ExecutionProfile profile;

  // The top-level group's BGP, planned exactly as ExecutePattern plans it.
  const BgpScope scope = ScopeOfBgp(query.where, NeededVars(query));
  std::vector<const sparql::GraphPattern*> candidates;
  for (const sparql::GraphPattern& opt : query.where.optionals) {
    candidates.push_back(&opt);
  }
  std::vector<const sparql::GraphPattern*> unpushed;
  LUSAIL_ASSIGN_OR_RETURN(
      BgpPlan plan,
      PlanBgp(query.where.triples, scope.filters, candidates,
              scope.outside_vars, scope.needed, &metrics, CancelToken(),
              &profile, &unpushed));
  out.sources.assign(plan.sources.begin(),
                     plan.sources.begin() + query.where.triples.size());
  out.gjvs = std::move(plan.gjvs);
  out.decomposition = std::move(plan.decomposition);
  out.pushed_optionals = plan.pushed_optionals;
  out.unpushed_optionals =
      query.where.optionals.size() - out.pushed_optionals;

  // SAPE planning artifacts: outlier rejection, delay decision, and the
  // estimated join order (the DP optimizer seeded with the COUNT-probe
  // estimates instead of the true cardinalities it sees at run time).
  std::vector<Subquery>& subqueries = out.decomposition.subqueries;
  std::vector<double> cards, eps;
  for (const Subquery& sq : subqueries) {
    cards.push_back(sq.estimated_cardinality);
    eps.push_back(static_cast<double>(sq.sources.size()));
  }
  out.outliers = ChauvenetOutliers(cards);
  if (options_.enable_sape && subqueries.size() > 1) {
    std::vector<bool> delayed =
        DecideDelayed(cards, eps, options_.delay_threshold);
    for (size_t i = 0; i < subqueries.size(); ++i) {
      subqueries[i].delayed = delayed[i];
    }
  } else {
    for (Subquery& sq : subqueries) sq.delayed = false;
  }
  std::vector<std::set<std::string>> sq_vars;
  for (const Subquery& sq : subqueries) {
    std::vector<std::string> v = sq.Variables(query.where.triples);
    sq_vars.emplace_back(v.begin(), v.end());
  }
  out.join_order = JoinOptimizer::OptimalOrder(
      cards, sq_vars, std::max<size_t>(1, options_.join_partitions));
  return out;
}

Result<LusailEngine::BgpPlan> LusailEngine::PlanBgp(
    const std::vector<sparql::TriplePattern>& triples,
    const std::vector<sparql::Expr>& filters,
    const std::vector<const sparql::GraphPattern*>& candidate_optionals,
    const std::set<std::string>& outside_vars,
    const std::set<std::string>& needed_vars,
    fed::MetricsCollector* metrics, const CancelToken& cancel,
    fed::ExecutionProfile* profile,
    std::vector<const sparql::GraphPattern*>* unpushed_optionals) {
  // Phase A: source selection — for the mandatory patterns and for the
  // push-down candidates' patterns (needed by the locality analysis).
  Stopwatch timer;
  fed::PhaseSpan source_span(metrics, "source selection");
  std::vector<sparql::TriplePattern> combined = triples;
  std::vector<std::pair<size_t, size_t>> optional_ranges;
  std::vector<const sparql::GraphPattern*> plain_optionals;
  for (const sparql::GraphPattern* opt : candidate_optionals) {
    if (!options_.enable_optional_pushdown || !IsPlainOptional(*opt)) {
      unpushed_optionals->push_back(opt);
      continue;
    }
    optional_ranges.emplace_back(combined.size(),
                                 combined.size() + opt->triples.size());
    combined.insert(combined.end(), opt->triples.begin(),
                    opt->triples.end());
    plain_optionals.push_back(opt);
  }

  BgpPlan plan;
  const net::RetryPolicy* retry = &options_.retry_policy;
  const bool tolerate = options_.partial_results;
  fed::SourceSelector selector(federation_, &ask_cache_, &pool_);
  LUSAIL_ASSIGN_OR_RETURN(
      plan.sources,
      selector.SelectSources(combined, metrics, cancel, options_.use_cache,
                             retry, tolerate));
  const std::vector<std::vector<int>>& sources = plan.sources;
  source_span.Annotate("patterns", static_cast<uint64_t>(combined.size()));
  source_span.End();
  profile->source_selection_ms += timer.ElapsedMillis();
  if (cancel.Cancelled()) return cancel.StatusAt("source selection");

  // Mandatory patterns with no relevant source: the query has no answers.
  for (size_t i = 0; i < triples.size(); ++i) {
    if (sources[i].empty()) {
      // Optionals cannot resurrect rows; nothing more to push.
      unpushed_optionals->insert(unpushed_optionals->end(),
                                 plain_optionals.begin(),
                                 plain_optionals.end());
      plan.no_answers = true;
      return plan;
    }
  }

  // Phase B: LADE — GJV detection (over mandatory + candidate-optional
  // patterns so causing pairs across the OPTIONAL boundary are known),
  // statistics, and decomposition of the mandatory BGP. The locality
  // checks and the COUNT probes both need only `sources`, so they go out
  // as one wave; each phase span parents its own requests explicitly,
  // since the two overlap. Both halves are collected whatever fails, so
  // no response outlives this frame.
  timer.Restart();
  fed::PhaseSpan lade_span(metrics, "LADE analysis");
  GjvDetector detector(federation_, &check_cache_, &pool_);
  CostModel cost_model(federation_, &pool_);
  {
    fed::PhaseSpan gjv_span(metrics, "gjv detection", lade_span.id());
    fed::PhaseSpan stats_span(metrics, "statistics", lade_span.id());
    fed::IssueContext ctx;
    ctx.metrics = metrics;
    ctx.cancel = cancel;
    ctx.retry = retry;
    ctx.trace_parent = gjv_span.id();
    GjvDetector::Sent checks =
        detector.Send(combined, sources, ctx, options_.use_cache, tolerate);
    ctx.trace_parent = stats_span.id();
    CostModel::Sent counts = cost_model.Send(triples, sources, filters, ctx,
                                             tolerate, options_.use_cache);
    Result<GjvResult> gjvs = detector.Collect(std::move(checks));
    gjv_span.End();
    Status stats = cost_model.Collect(std::move(counts));
    stats_span.End();
    LUSAIL_RETURN_NOT_OK(gjvs.status());
    LUSAIL_RETURN_NOT_OK(stats);
    plan.gjvs = std::move(gjvs).value();
  }
  {
    fed::PhaseSpan decomp_span(metrics, "decomposition");
    Decomposer decomposer(&cost_model);
    plan.decomposition = decomposer.Decompose(triples, sources, plan.gjvs,
                                              filters, needed_vars);
    plan.pushed_optionals = PushPlainOptionals(
        plain_optionals, optional_ranges, triples, sources, plan.gjvs,
        outside_vars, needed_vars, &plan.decomposition, unpushed_optionals);
    decomp_span.Annotate(
        "subqueries",
        static_cast<uint64_t>(plan.decomposition.subqueries.size()));
  }
  lade_span.Annotate(
      "subqueries",
      static_cast<uint64_t>(plan.decomposition.subqueries.size()));
  lade_span.Annotate("pushed_optionals", plan.pushed_optionals);
  lade_span.End();
  profile->analysis_ms += timer.ElapsedMillis();
  if (cancel.Cancelled()) return cancel.StatusAt("LADE analysis");
  return plan;
}

Result<IdTable> LusailEngine::ExecuteBgp(
    const std::vector<sparql::TriplePattern>& triples,
    const std::vector<sparql::Expr>& filters,
    const std::vector<const sparql::GraphPattern*>& candidate_optionals,
    const std::set<std::string>& outside_vars,
    const std::set<std::string>& needed_vars, TermDictionary* dict,
    fed::MetricsCollector* metrics, const CancelToken& cancel,
    fed::ExecutionProfile* profile,
    std::vector<const sparql::GraphPattern*>* unpushed_optionals,
    size_t row_limit) {
  LUSAIL_ASSIGN_OR_RETURN(
      BgpPlan plan,
      PlanBgp(triples, filters, candidate_optionals, outside_vars,
              needed_vars, metrics, cancel, profile, unpushed_optionals));
  if (plan.no_answers) {
    IdTable empty;
    std::set<std::string> vars = PatternVars(triples);
    empty.vars.assign(vars.begin(), vars.end());
    return empty;
  }
  profile->pushed_optionals += plan.pushed_optionals;

  // Phase C: SAPE execution. The LIMIT hint survives only when no global
  // filter runs after the subqueries — a filter could discard rows a
  // capped fetch never over-delivered.
  Stopwatch timer;
  fed::PhaseSpan sape_span(metrics, "SAPE execution");
  SapeExecutor sape(federation_, &pool_, &options_);
  Decomposition& decomposition = plan.decomposition;
  size_t sape_limit = decomposition.global_filters.empty() ? row_limit : 0;
  Result<IdTable> table =
      sape.Execute(std::move(decomposition.subqueries), triples, dict,
                   metrics, cancel, profile, sape_limit);
  if (!table.ok()) return table.status();

  IdTable result = std::move(table).value();
  for (const sparql::Expr& f : decomposition.global_filters) {
    FilterIds(&result, f, *dict);
  }
  profile->execution_ms += timer.ElapsedMillis();
  return result;
}

Result<IdTable> LusailEngine::ExecutePattern(
    const sparql::GraphPattern& pattern,
    const std::set<std::string>& needed_vars, TermDictionary* dict,
    fed::MetricsCollector* metrics, const CancelToken& cancel,
    fed::ExecutionProfile* profile, size_t row_limit) {
  if (!pattern.exists_filters.empty()) {
    return Status::Unsupported(
        "FILTER [NOT] EXISTS is not supported in federated queries (it is "
        "used internally by Lusail's locality checks)");
  }

  const BgpScope scope = ScopeOfBgp(pattern, needed_vars);
  const std::set<std::string>& bgp_needed = scope.needed;

  IdTable table;
  bool have_table = false;

  if (!pattern.triples.empty()) {
    std::vector<const sparql::GraphPattern*> candidates;
    candidates.reserve(pattern.optionals.size());
    for (const sparql::GraphPattern& opt : pattern.optionals) {
      candidates.push_back(&opt);
    }
    std::vector<const sparql::GraphPattern*> unpushed;
    // The LIMIT hint may cross the BGP only when nothing at this level
    // can discard rows afterwards: UNION chains and VALUES blocks join
    // (can drop rows), residual filters drop rows. Unpushed OPTIONALs are
    // harmless — a left join keeps every left row.
    size_t bgp_limit = (row_limit > 0 && pattern.unions.empty() &&
                        pattern.values.empty() &&
                        scope.residual_filters.empty())
                           ? row_limit
                           : 0;
    LUSAIL_ASSIGN_OR_RETURN(
        table, ExecuteBgp(pattern.triples, scope.filters, candidates,
                          scope.outside_vars, bgp_needed, dict, metrics,
                          cancel, profile, &unpushed, bgp_limit));
    have_table = true;

    // UNION chains and the OPTIONAL blocks that could not be pushed down
    // join/extend the BGP result at the federator.
    for (const auto& chain : pattern.unions) {
      IdTable unioned;
      for (const sparql::GraphPattern& alt : chain) {
        LUSAIL_ASSIGN_OR_RETURN(
            IdTable branch,
            ExecutePattern(alt, bgp_needed, dict, metrics, cancel, profile));
        AppendUnionIds(&unioned, branch);
      }
      table = ParallelHashJoin(table, unioned, &pool_,
                               options_.join_partitions, &cancel);
      if (cancel.Cancelled()) return cancel.StatusAt("union join");
    }
    for (const sparql::GraphPattern* opt : unpushed) {
      LUSAIL_ASSIGN_OR_RETURN(
          IdTable right,
          ExecutePattern(*opt, bgp_needed, dict, metrics, cancel, profile));
      table = JoinIds(table, right, /*left_outer=*/true);
    }
    Stopwatch filter_timer;
    for (const sparql::Expr& f : scope.residual_filters) {
      FilterIds(&table, f, *dict);
    }
    profile->execution_ms += filter_timer.ElapsedMillis();
  } else {
    // No BGP at this level: pure UNION / OPTIONAL / VALUES group.
    for (const auto& chain : pattern.unions) {
      IdTable unioned;
      for (const sparql::GraphPattern& alt : chain) {
        LUSAIL_ASSIGN_OR_RETURN(
            IdTable branch,
            ExecutePattern(alt, bgp_needed, dict, metrics, cancel, profile));
        AppendUnionIds(&unioned, branch);
      }
      if (!have_table) {
        table = std::move(unioned);
        have_table = true;
      } else {
        table = ParallelHashJoin(table, unioned, &pool_,
                                 options_.join_partitions, &cancel);
        if (cancel.Cancelled()) return cancel.StatusAt("union join");
      }
    }
    if (!have_table) {
      return Status::InvalidArgument("empty graph pattern");
    }
    for (const sparql::GraphPattern& opt : pattern.optionals) {
      LUSAIL_ASSIGN_OR_RETURN(
          IdTable right,
          ExecutePattern(opt, bgp_needed, dict, metrics, cancel, profile));
      table = JoinIds(table, right, /*left_outer=*/true);
    }
    for (const sparql::Expr& f : pattern.filters) {
      FilterIds(&table, f, *dict);
    }
  }

  // VALUES data blocks: intern and join.
  for (const sparql::ValuesClause& vc : pattern.values) {
    IdTable values_table;
    for (const sparql::Variable& v : vc.vars) {
      values_table.vars.push_back(v.name);
    }
    std::vector<rdf::TermId> ids;
    for (const auto& row : vc.rows) {
      ids.clear();
      for (const auto& cell : row) {
        ids.push_back(cell.has_value() ? dict->Intern(*cell)
                                       : rdf::kInvalidTermId);
      }
      values_table.AppendRow(ids);
    }
    table = JoinIds(table, values_table, /*left_outer=*/false);
  }
  return table;
}

Result<fed::FederatedResult> LusailEngine::Execute(
    const std::string& sparql_text, const CancelToken& cancel) {
  Stopwatch total_timer;
  LUSAIL_ASSIGN_OR_RETURN(sparql::Query query, sparql::ParseQuery(sparql_text));

  fed::FederatedResult result;
  fed::MetricsCollector metrics;
  fed::QueryTrace trace(options_.trace, name(), &metrics);
  // The engine-lifetime dictionary: ids persist across queries, so the
  // transports' parse dictionaries (set once at wiring time) keep
  // matching and every response arrives pre-encoded.
  TermDictionary& dict = *dict_;

  std::set<std::string> needed = NeededVars(query);
  // LIMIT pushdown hint: upstream operators may stop producing once they
  // have this many rows of the pattern.
  size_t push_limit = static_cast<size_t>(std::min<uint64_t>(
      query.PushableRowLimit().value_or(0),
      std::numeric_limits<uint32_t>::max()));
  Result<IdTable> table_or =
      ExecutePattern(query.where, needed, &dict, &metrics, cancel,
                     &result.profile, push_limit);
  if (!table_or.ok()) {
    metrics.FillCounters(&result.profile);
    trace.Attach(&result.profile);
    return table_or.status();
  }

  // Late materialization: only the finished window is decoded to terms.
  Stopwatch finish_timer;
  result.table = DecodeIdTable(FinishQuery(query, *table_or, &dict), dict);
  result.profile.execution_ms += finish_timer.ElapsedMillis();

  metrics.FillCounters(&result.profile);
  result.profile.total_ms = total_timer.ElapsedMillis();
  trace.Attach(&result.profile);
  return result;
}

}  // namespace lusail::core

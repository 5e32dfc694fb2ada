#include "shard/sharded_endpoint.h"

#include <algorithm>
#include <limits>
#include <mutex>
#include <numeric>
#include <optional>
#include <unordered_set>
#include <utility>

#include "core/finisher.h"
#include "obs/trace.h"
#include "obs/trace_context.h"
#include "sparql/parser.h"
#include "sparql/probe.h"
#include "sparql/serializer.h"

namespace lusail::shard {

using core::IdTable;
using net::QueryResponse;

/// Per-query scatter bookkeeping shared between the gather thread and the
/// pool tasks it fans out.
struct ShardedEndpoint::ScatterContext {
  std::mutex mu;
  size_t request_bytes = 0;
  size_t response_bytes = 0;
  double network_ms = 0.0;
  double server_ms = 0.0;
  bool over_network = false;
  std::set<std::string> degraded;  ///< Member ids dropped (partial mode).

  /// Caller-thread trace context, copied by value so pool tasks can open
  /// "shard request" spans under the federation's request span.
  bool have_trace = false;
  obs::TraceContext trace;
};

namespace {

/// Subject slot rendered as a grouping key: "?name" or the term text.
std::string SubjectKey(const sparql::TriplePattern& tp) {
  return tp.s.ToString();
}

/// The COUNT value in a one-row aggregate response.
std::optional<uint64_t> CountFromResponse(const QueryResponse& response,
                                          const std::string& alias) {
  if (response.ids->NumRows() == 0) return 0;
  int idx = response.ids->VarIndex(alias);
  if (idx < 0 && response.ids->NumVars() == 1) idx = 0;
  if (idx < 0) return std::nullopt;
  rdf::TermId id = response.ids->At(0, static_cast<size_t>(idx));
  if (id == rdf::kInvalidTermId) return std::nullopt;
  return sparql::ParseCountLiteral(response.ids_dict->term(id));
}

/// SPARQL compatibility on a shared-var tuple: unbound matches anything.
bool CompatibleTuples(const std::vector<rdf::TermId>& a,
                      const std::vector<rdf::TermId>& b) {
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] != rdf::kInvalidTermId && b[i] != rdf::kInvalidTermId &&
        a[i] != b[i]) {
      return false;
    }
  }
  return true;
}

std::string TupleKey(const std::vector<rdf::TermId>& tuple) {
  return std::string(reinterpret_cast<const char*>(tuple.data()),
                     tuple.size() * sizeof(rdf::TermId));
}

/// EXISTS / NOT EXISTS as a (anti-)semi-join on the shared variables.
/// Fully-bound tuples go through a hash set; rows with unbound shared
/// cells (rare) fall back to a compatibility scan, so the semantics stay
/// exact.
void SemiFilter(IdTable* acc, const IdTable& inner, bool negated) {
  std::vector<std::string> shared = IdTable::SharedVars(*acc, inner);
  if (shared.empty()) {
    bool exists = inner.NumRows() > 0;
    if (negated ? exists : !exists) {
      *acc = acc->SelectRows({});
    }
    return;
  }
  std::vector<int> acc_idx, inner_idx;
  for (const std::string& v : shared) {
    acc_idx.push_back(acc->VarIndex(v));
    inner_idx.push_back(inner.VarIndex(v));
  }
  std::unordered_set<std::string> exact;
  std::vector<std::vector<rdf::TermId>> wild;
  std::vector<std::vector<rdf::TermId>> all;
  all.reserve(inner.NumRows());
  for (size_t r = 0; r < inner.NumRows(); ++r) {
    std::vector<rdf::TermId> tuple(shared.size());
    bool bound = true;
    for (size_t c = 0; c < shared.size(); ++c) {
      tuple[c] = inner_idx[c] < 0
                     ? rdf::kInvalidTermId
                     : inner.At(r, static_cast<size_t>(inner_idx[c]));
      bound = bound && tuple[c] != rdf::kInvalidTermId;
    }
    if (bound) {
      exact.insert(TupleKey(tuple));
    } else {
      wild.push_back(tuple);
    }
    all.push_back(std::move(tuple));
  }
  std::vector<uint32_t> kept;
  kept.reserve(acc->NumRows());
  for (size_t r = 0; r < acc->NumRows(); ++r) {
    std::vector<rdf::TermId> tuple(shared.size());
    bool bound = true;
    for (size_t c = 0; c < shared.size(); ++c) {
      tuple[c] = acc_idx[c] < 0
                     ? rdf::kInvalidTermId
                     : acc->At(r, static_cast<size_t>(acc_idx[c]));
      bound = bound && tuple[c] != rdf::kInvalidTermId;
    }
    bool match;
    if (bound) {
      match = exact.count(TupleKey(tuple)) > 0;
      if (!match) {
        for (const auto& w : wild) {
          if (CompatibleTuples(tuple, w)) {
            match = true;
            break;
          }
        }
      }
    } else {
      match = false;
      for (const auto& candidate : all) {
        if (CompatibleTuples(tuple, candidate)) {
          match = true;
          break;
        }
      }
    }
    if (match != negated) kept.push_back(static_cast<uint32_t>(r));
  }
  if (kept.size() != acc->NumRows()) *acc = acc->SelectRows(kept);
}

/// A flat sub-pattern the star machinery covers wholesale: a non-empty
/// BGP plus plain filters, nothing nested.
bool IsFlatPattern(const sparql::GraphPattern& pattern) {
  return !pattern.triples.empty() && pattern.exists_filters.empty() &&
         pattern.optionals.empty() && pattern.unions.empty() &&
         pattern.values.empty();
}

}  // namespace

ShardedEndpoint::ShardedEndpoint(
    std::string id, ShardMap map,
    std::vector<std::shared_ptr<net::Endpoint>> members,
    ShardedEndpointOptions options)
    : id_(std::move(id)),
      map_(std::move(map)),
      members_(std::move(members)),
      options_(options),
      dict_(std::make_shared<core::TermDictionary>()) {
  member_ids_.reserve(members_.size());
  for (size_t i = 0; i < members_.size(); ++i) {
    member_ids_.push_back(members_[i] != nullptr ? members_[i]->id()
                                                 : id_ + "#" +
                                                       std::to_string(i));
  }
  if (options_.pool != nullptr) {
    pool_ = options_.pool;
  } else {
    own_pool_ = std::make_unique<ThreadPool>(options_.own_pool_threads);
    pool_ = own_pool_.get();
  }
  if (options_.cache != nullptr) {
    options_.cache->RegisterMemberIds(id_, member_ids_);
  }
}

const std::string& ShardedEndpoint::member_id(size_t i) const {
  return member_ids_[i];
}

std::vector<std::string> ShardedEndpoint::MemberIds() const {
  return member_ids_;
}

void ShardedEndpoint::set_parse_dictionary(
    std::shared_ptr<core::TermDictionary> dict) {
  for (const auto& member : members_) {
    if (member != nullptr) member->set_parse_dictionary(dict);
  }
  dict_ = dict != nullptr ? std::move(dict)
                          : std::make_shared<core::TermDictionary>();
}

bool ShardedEndpoint::Available() const {
  for (const auto& member : members_) {
    if (member != nullptr && member->Available()) return true;
  }
  return false;
}

ShardedEndpointStats ShardedEndpoint::stats() const {
  ShardedEndpointStats s;
  s.queries = queries_.load();
  s.fanout_requests = fanout_requests_.load();
  s.pruned_shards = pruned_shards_.load();
  s.single_shard_queries = single_shard_queries_.load();
  s.ask_short_circuits = ask_short_circuits_.load();
  s.broadcast_fallbacks = broadcast_fallbacks_.load();
  s.partial_queries = partial_queries_.load();
  s.shard_failures = shard_failures_.load();
  return s;
}

void ShardedEndpoint::ExportMetrics(obs::MetricsSnapshot* snapshot) const {
  obs::MetricLabels labels{{"endpoint", id_}};
  ShardedEndpointStats s = stats();
  snapshot->AddCounter("lusail_shard_queries_total",
                       "Queries handled by the sharded endpoint.", labels,
                       static_cast<double>(s.queries));
  snapshot->AddCounter("lusail_shard_fanout_total",
                       "Shard member requests issued by scatter-gather.",
                       labels, static_cast<double>(s.fanout_requests));
  snapshot->AddCounter(
      "lusail_shard_pruned_total",
      "(star, shard) pairs skipped by subject routing, VALUES routing, or "
      "cached false verdicts.",
      labels, static_cast<double>(s.pruned_shards));
  snapshot->AddCounter("lusail_shard_single_total",
                       "Queries routed to exactly one shard.", labels,
                       static_cast<double>(s.single_shard_queries));
  snapshot->AddCounter(
      "lusail_shard_ask_short_circuit_total",
      "ASK queries answered from cached verdicts with zero requests.",
      labels, static_cast<double>(s.ask_short_circuits));
  snapshot->AddCounter("lusail_shard_broadcast_total",
                       "Non-decomposable queries broadcast to every shard.",
                       labels, static_cast<double>(s.broadcast_fallbacks));
  snapshot->AddCounter("lusail_shard_partial_total",
                       "Queries that dropped at least one shard member.",
                       labels, static_cast<double>(s.partial_queries));
  snapshot->AddCounter("lusail_shard_failures_total",
                       "Shard member requests that failed.", labels,
                       static_cast<double>(s.shard_failures));
  for (const auto& member : members_) {
    if (member != nullptr) member->ExportMetrics(snapshot);
  }
}

// --- Planning -------------------------------------------------------------

bool ShardedEndpoint::BuildPlan(const sparql::GraphPattern& pattern,
                                bool top_level, Plan* plan) {
  // Stars: triples grouped by subject slot, in first-appearance order.
  std::vector<std::string> keys;
  for (const sparql::TriplePattern& tp : pattern.triples) {
    std::string key = SubjectKey(tp);
    size_t si = 0;
    for (; si < keys.size(); ++si) {
      if (keys[si] == key) break;
    }
    if (si == keys.size()) {
      keys.push_back(key);
      plan->stars.emplace_back();
    }
    StarGroup& star = plan->stars[si];
    star.triples.push_back(tp);
    for (const std::string& v : tp.VariableNames()) star.vars.insert(v);
  }

  // Filters: pushed into the one star that binds all their variables
  // (star variables are always triple-bound, so early evaluation is
  // exact); the rest run at the gather after OPTIONAL joins.
  for (const sparql::Expr& filter : pattern.filters) {
    std::set<std::string> fvars;
    filter.CollectVariables(&fvars);
    bool pushed = false;
    for (StarGroup& star : plan->stars) {
      if (std::includes(star.vars.begin(), star.vars.end(), fvars.begin(),
                        fvars.end())) {
        star.filters.push_back(filter);
        pushed = true;
        break;
      }
    }
    if (!pushed) {
      if (!top_level) return false;  // Correlated nested filter.
      plan->residual_filters.push_back(filter);
    }
  }

  // VALUES: pushed into every star that binds all the block's variables
  // (it can only restrict that star), or joined at the gather.
  for (const sparql::ValuesClause& vc : pattern.values) {
    if (!top_level) return false;
    std::set<std::string> vvars;
    for (const sparql::Variable& v : vc.vars) vvars.insert(v.name);
    bool pushed = false;
    for (StarGroup& star : plan->stars) {
      if (std::includes(star.vars.begin(), star.vars.end(), vvars.begin(),
                        vvars.end())) {
        star.values.push_back(vc);
        pushed = true;
        break;
      }
    }
    if (!pushed) plan->gather_values.push_back(vc);
  }

  if (!top_level) {
    return pattern.exists_filters.empty() && pattern.optionals.empty() &&
           pattern.unions.empty();
  }

  for (const sparql::GraphPattern& opt : pattern.optionals) {
    if (!IsFlatPattern(opt)) return false;
    Plan sub;
    if (!BuildPlan(opt, false, &sub)) return false;
    plan->optionals.push_back(std::move(sub));
  }
  for (const auto& chain : pattern.unions) {
    std::vector<Plan> alternatives;
    for (const sparql::GraphPattern& alt : chain) {
      if (!IsFlatPattern(alt)) return false;
      Plan sub;
      if (!BuildPlan(alt, false, &sub)) return false;
      alternatives.push_back(std::move(sub));
    }
    plan->unions.push_back(std::move(alternatives));
  }
  for (const sparql::ExistsFilter& ef : pattern.exists_filters) {
    if (!IsFlatPattern(ef.pattern)) return false;
    Plan sub;
    if (!BuildPlan(ef.pattern, false, &sub)) return false;
    plan->exists.emplace_back(ef.negated, std::move(sub));
  }
  return true;
}

void ShardedEndpoint::RoutePlan(Plan* plan) {
  const size_t n = NumShards();
  for (StarGroup& star : plan->stars) {
    std::vector<size_t> candidates;
    const sparql::TermOrVar& subject = star.triples.front().s;
    if (subject.is_term()) {
      candidates.push_back(map_.ShardOfSubject(subject.term()));
    } else {
      // A pushed VALUES block binding exactly the subject variable (all
      // rows bound) names the owning shards outright.
      const std::string& sname = subject.var().name;
      bool routed = false;
      for (const sparql::ValuesClause& vc : star.values) {
        if (vc.vars.size() != 1 || vc.vars[0].name != sname) continue;
        std::set<size_t> owners;
        bool all_bound = true;
        for (const auto& row : vc.rows) {
          if (row.empty() || !row[0].has_value()) {
            all_bound = false;
            break;
          }
          owners.insert(map_.ShardOfSubject(*row[0]));
        }
        if (all_bound) {
          candidates.assign(owners.begin(), owners.end());
          routed = true;
        }
        break;
      }
      if (!routed) {
        candidates.resize(n);
        std::iota(candidates.begin(), candidates.end(), 0);
      }
    }
    if (options_.cache != nullptr) {
      std::vector<size_t> alive;
      for (size_t shard : candidates) {
        bool dead = false;
        for (const sparql::TriplePattern& tp : star.triples) {
          auto verdict = options_.cache->GetVerdict(
              cache::FederationCache::PatternKey(member_ids_[shard], tp));
          if (verdict.has_value() && !*verdict) {
            dead = true;
            break;
          }
        }
        if (!dead) alive.push_back(shard);
      }
      candidates = std::move(alive);
    }
    pruned_shards_.fetch_add(n - candidates.size());
    star.shards = std::move(candidates);
  }
  for (Plan& sub : plan->optionals) RoutePlan(&sub);
  for (auto& chain : plan->unions) {
    for (Plan& sub : chain) RoutePlan(&sub);
  }
  for (auto& [negated, sub] : plan->exists) RoutePlan(&sub);
}

// --- Scatter --------------------------------------------------------------

Result<QueryResponse> ShardedEndpoint::IssueShardRequest(
    size_t shard, const std::string& text, const CancelToken& cancel,
    ScatterContext* ctx) {
  fanout_requests_.fetch_add(1);
  obs::SpanId span = 0;
  std::optional<obs::TraceContextScope> scope;
  if (ctx->have_trace && ctx->trace.tracer != nullptr) {
    span = ctx->trace.tracer->StartSpan("shard request", "shard",
                                        ctx->trace.parent);
    ctx->trace.tracer->Annotate(span, "shard.member", member_ids_[shard]);
    scope.emplace(
        obs::TraceContext{ctx->trace.tracer, ctx->trace.trace_id, span});
  }
  Result<QueryResponse> result = members_[shard]->QueryCancellable(text, cancel);
  if (span != 0) {
    obs::Tracer* tracer = ctx->trace.tracer.get();
    if (result.ok()) {
      tracer->Annotate(span, "rows",
                       static_cast<uint64_t>(result->RowCount()));
    } else {
      tracer->Annotate(span, "error", result.status().message());
    }
    tracer->EndSpan(span);
  }
  if (result.ok()) {
    std::lock_guard<std::mutex> lock(ctx->mu);
    ctx->request_bytes += result->request_bytes;
    ctx->response_bytes += result->response_bytes;
    ctx->network_ms += result->network_ms;
    ctx->server_ms += result->server_ms;
    ctx->over_network = ctx->over_network || result->transport.over_network;
  } else {
    shard_failures_.fetch_add(1);
  }
  return result;
}

std::vector<Result<QueryResponse>> ShardedEndpoint::RunScatter(
    const std::vector<std::pair<size_t, std::string>>& jobs,
    const CancelToken& cancel, ScatterContext* ctx) {
  std::vector<std::future<Result<QueryResponse>>> futures;
  futures.reserve(jobs.size());
  for (const auto& [shard, text] : jobs) {
    futures.push_back(pool_->Submit(
        [this, shard = shard, text = text, cancel, ctx]() {
          return IssueShardRequest(shard, text, cancel, ctx);
        }));
  }
  std::vector<Result<QueryResponse>> results;
  results.reserve(futures.size());
  for (auto& f : futures) results.push_back(f.get());
  return results;
}

IdTable ShardedEndpoint::EncodeResponse(const QueryResponse& response) const {
  if (response.ids_dict.get() == dict_.get()) return *response.ids;
  return core::TranslateIds(*response.ids, *response.ids_dict, dict_.get());
}

QueryResponse ShardedEndpoint::MakeResponse(ScatterContext* ctx) {
  QueryResponse response;
  std::lock_guard<std::mutex> lock(ctx->mu);
  response.request_bytes = ctx->request_bytes;
  response.response_bytes = ctx->response_bytes;
  response.network_ms = ctx->network_ms;
  response.server_ms = ctx->server_ms;
  response.transport.over_network = ctx->over_network;
  response.degraded_members.assign(ctx->degraded.begin(),
                                   ctx->degraded.end());
  return response;
}

// --- Gather ---------------------------------------------------------------

Result<IdTable> ShardedEndpoint::EvaluatePlan(const Plan& plan,
                                              const CancelToken& cancel,
                                              ScatterContext* ctx,
                                              size_t star_limit) {
  // One scatter wave covers every (star, shard) pair of this plan level.
  std::vector<std::pair<size_t, std::string>> jobs;
  std::vector<size_t> job_star;
  for (size_t si = 0; si < plan.stars.size(); ++si) {
    const StarGroup& star = plan.stars[si];
    sparql::Query sub;
    sub.form = sparql::QueryForm::kSelect;
    sub.select_all = true;
    sub.where.triples = star.triples;
    sub.where.filters = star.filters;
    sub.where.values = star.values;
    if (star_limit > 0) sub.limit = star_limit;
    std::string text = sparql::QueryToString(sub);
    for (size_t shard : star.shards) {
      jobs.emplace_back(shard, text);
      job_star.push_back(si);
    }
  }
  std::vector<Result<QueryResponse>> results = RunScatter(jobs, cancel, ctx);

  std::vector<IdTable> star_tables(plan.stars.size());
  for (size_t si = 0; si < plan.stars.size(); ++si) {
    star_tables[si].vars.assign(plan.stars[si].vars.begin(),
                                plan.stars[si].vars.end());
  }
  for (size_t i = 0; i < results.size(); ++i) {
    Result<QueryResponse>& r = results[i];
    if (!r.ok()) {
      if (!options_.partial_results) return r.status();
      std::lock_guard<std::mutex> lock(ctx->mu);
      ctx->degraded.insert(member_ids_[jobs[i].first]);
      continue;
    }
    IdTable t = EncodeResponse(*r);
    core::AppendUnionIds(&star_tables[job_star[i]], t);
  }
  if (cancel.Cancelled()) return cancel.StatusAt("shard gather");

  // Join stars smallest-first (same heuristic as the SAPE join order).
  IdTable acc;
  if (plan.stars.empty()) {
    acc.AppendRow({});  // The unit solution: one empty binding.
  } else {
    std::vector<size_t> order(star_tables.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return star_tables[a].NumRows() < star_tables[b].NumRows();
    });
    acc = std::move(star_tables[order[0]]);
    for (size_t k = 1; k < order.size(); ++k) {
      acc = core::JoinIds(acc, star_tables[order[k]], /*left_outer=*/false);
      if (cancel.Cancelled()) return cancel.StatusAt("shard join");
    }
  }

  // Mirror the evaluator's group ordering: UNION chains, then OPTIONAL
  // blocks, then residual filters and EXISTS.
  for (const auto& chain : plan.unions) {
    IdTable unioned;
    for (const Plan& alt : chain) {
      LUSAIL_ASSIGN_OR_RETURN(IdTable alt_table,
                              EvaluatePlan(alt, cancel, ctx));
      core::AppendUnionIds(&unioned, alt_table);
    }
    acc = core::JoinIds(acc, unioned, /*left_outer=*/false);
  }
  for (const sparql::ValuesClause& vc : plan.gather_values) {
    IdTable vt;
    for (const sparql::Variable& v : vc.vars) vt.vars.push_back(v.name);
    for (const auto& row : vc.rows) {
      std::vector<rdf::TermId> ids;
      ids.reserve(row.size());
      for (const auto& cell : row) {
        ids.push_back(cell.has_value() ? dict_->Intern(*cell)
                                       : rdf::kInvalidTermId);
      }
      vt.AppendRow(ids);
    }
    acc = core::JoinIds(acc, vt, /*left_outer=*/false);
  }
  for (const Plan& opt : plan.optionals) {
    LUSAIL_ASSIGN_OR_RETURN(IdTable fragment, EvaluatePlan(opt, cancel, ctx));
    acc = core::JoinIds(acc, fragment, /*left_outer=*/true);
  }
  for (const sparql::Expr& filter : plan.residual_filters) {
    core::FilterIds(&acc, filter, *dict_);
  }
  for (const auto& [negated, sub] : plan.exists) {
    LUSAIL_ASSIGN_OR_RETURN(IdTable inner, EvaluatePlan(sub, cancel, ctx));
    SemiFilter(&acc, inner, negated);
  }
  return acc;
}

// --- Entry points ---------------------------------------------------------

Result<QueryResponse> ShardedEndpoint::QueryCancellable(
    const std::string& text, const CancelToken& cancel) {
  queries_.fetch_add(1);
  if (cancel.Cancelled()) return cancel.StatusAt("sharded endpoint request");
  LUSAIL_ASSIGN_OR_RETURN(sparql::Query query, sparql::ParseQuery(text));
  ScatterContext ctx;
  if (const obs::TraceContext* tc = obs::CurrentTraceContext()) {
    ctx.have_trace = true;
    ctx.trace = *tc;
  }
  if (std::optional<sparql::ProbeBatch> batch =
          sparql::MatchProbeBatch(query)) {
    return ExecuteProbeBatch(*batch, cancel, &ctx);
  }
  if (query.form == sparql::QueryForm::kAsk) {
    return ExecuteAsk(query, cancel, &ctx);
  }
  return ExecuteDecomposed(query, cancel, &ctx);
}

Result<QueryResponse> ShardedEndpoint::ExecuteDecomposed(
    const sparql::Query& query, const CancelToken& cancel,
    ScatterContext* ctx) {
  Plan plan;
  if (!BuildPlan(query.where, /*top_level=*/true, &plan)) {
    return Broadcast(query, cancel, ctx);
  }
  RoutePlan(&plan);
  std::set<size_t> touched;
  CollectShards(plan, &touched);
  if (touched.size() <= 1) single_shard_queries_.fetch_add(1);

  // Single-star COUNT(*): scatter the count itself and sum per-shard
  // cardinalities through the COUNT cache tier instead of shipping rows.
  if (query.aggregate.has_value() && !query.aggregate->var.has_value() &&
      !query.aggregate->distinct && !query.group_by.has_value() &&
      plan.stars.size() == 1 &&
      plan.residual_filters.empty() && plan.gather_values.empty() &&
      plan.optionals.empty() && plan.unions.empty() && plan.exists.empty()) {
    return ScatterCount(query, plan.stars.front(), cancel, ctx);
  }

  // LIMIT pushdown to the scatter: with a single star and no gather-side
  // row-dropping work, a shard can never contribute more useful rows
  // than the query's pushable row limit.
  size_t star_limit = 0;
  std::optional<uint64_t> row_limit = query.PushableRowLimit();
  if (row_limit.has_value() && plan.stars.size() == 1 &&
      plan.residual_filters.empty() && plan.gather_values.empty() &&
      plan.optionals.empty() && plan.unions.empty() && plan.exists.empty()) {
    star_limit = static_cast<size_t>(
        std::min<uint64_t>(*row_limit, std::numeric_limits<uint32_t>::max()));
  }

  LUSAIL_ASSIGN_OR_RETURN(IdTable acc,
                          EvaluatePlan(plan, cancel, ctx, star_limit));
  return FinishSelect(query, acc, ctx);
}

std::string ShardedEndpoint::StarBody(const StarGroup& star) {
  sparql::GraphPattern group;
  group.triples = star.triples;
  group.filters = star.filters;
  group.values = star.values;
  return sparql::ProbeBody(group);
}

std::string ShardedEndpoint::VerdictKey(size_t shard,
                                        const StarGroup& star) const {
  if (star.triples.size() == 1 && star.filters.empty() &&
      star.values.empty()) {
    return cache::FederationCache::PatternKey(member_ids_[shard],
                                              star.triples.front());
  }
  return cache::FederationCache::Key(
      member_ids_[shard],
      sparql::ProbeText(sparql::ProbeKind::kAsk, {StarBody(star)}));
}

Result<QueryResponse> ShardedEndpoint::ExecuteProbeBatch(
    const sparql::ProbeBatch& batch, const CancelToken& cancel,
    ScatterContext* ctx) {
  const sparql::ProbeKind kind = batch.kind;
  const bool ask = kind == sparql::ProbeKind::kAsk;
  const size_t n = batch.branches.size();
  std::vector<uint64_t> values(n, 0);
  std::vector<Plan> plans(n);
  std::vector<std::string> bodies(n);
  auto count_key = [&](size_t shard, size_t b) {
    return cache::FederationCache::Key(member_ids_[shard],
                                       sparql::ProbeText(kind, {bodies[b]}));
  };
  // Per shard, the branches it still has to answer.
  std::vector<std::vector<size_t>> by_shard(NumShards());
  for (size_t b = 0; b < n; ++b) {
    sparql::GraphPattern body = *batch.branches[b].group;
    body.values.clear();  // The tag binding; the body does not use it.
    Plan& plan = plans[b];
    const bool one_star =
        BuildPlan(body, /*top_level=*/true, &plan) && plan.stars.size() == 1 &&
        plan.residual_filters.empty() && plan.gather_values.empty() &&
        plan.optionals.empty() && plan.unions.empty() && plan.exists.empty();
    if (!one_star) {
      sparql::Query single;
      single.where = std::move(body);
      if (ask) {
        single.form = sparql::QueryForm::kAsk;
      } else {
        single.aggregate = sparql::CountAggregate{false, std::nullopt,
                                                  sparql::Variable{"c"}};
      }
      LUSAIL_ASSIGN_OR_RETURN(QueryResponse r,
                              ask ? ExecuteAsk(single, cancel, ctx)
                                  : ExecuteDecomposed(single, cancel, ctx));
      values[b] = ask ? r.RowCount() > 0 : CountFromResponse(r, "c").value_or(0);
      continue;
    }
    RoutePlan(&plan);
    const StarGroup& star = plan.stars.front();
    bodies[b] = StarBody(star);
    std::vector<size_t> shards;
    for (size_t shard : star.shards) {
      if (options_.cache != nullptr) {
        if (ask) {
          auto cached = options_.cache->GetVerdict(VerdictKey(shard, star));
          if (cached.has_value()) {
            values[b] |= *cached ? 1 : 0;
            continue;
          }
        } else if (auto cached = options_.cache->GetCount(count_key(shard, b))) {
          values[b] = sparql::AddCounts(values[b], *cached);
          continue;
        }
      }
      shards.push_back(shard);
    }
    if (ask && (values[b] > 0 || shards.empty())) {
      ask_short_circuits_.fetch_add(1);
      continue;
    }
    for (size_t shard : shards) by_shard[shard].push_back(b);
  }

  std::vector<std::pair<size_t, std::string>> jobs;
  for (size_t shard = 0; shard < by_shard.size(); ++shard) {
    if (by_shard[shard].empty()) continue;
    std::vector<std::string> shard_bodies;
    for (size_t b : by_shard[shard]) shard_bodies.push_back(bodies[b]);
    jobs.emplace_back(shard, sparql::ProbeText(kind, shard_bodies));
  }
  std::vector<Result<QueryResponse>> results = RunScatter(jobs, cancel, ctx);
  for (size_t j = 0; j < results.size(); ++j) {
    const size_t shard = jobs[j].first;
    const std::vector<size_t>& branches = by_shard[shard];
    Result<QueryResponse>& r = results[j];
    if (!r.ok()) {
      if (!options_.partial_results) return r.status();
      std::lock_guard<std::mutex> lock(ctx->mu);
      ctx->degraded.insert(member_ids_[shard]);
      continue;
    }
    LUSAIL_ASSIGN_OR_RETURN(
        std::vector<uint64_t> member_values,
        core::DecodeProbeIds(kind, *r->ids, *r->ids_dict, branches.size()));
    for (size_t k = 0; k < branches.size(); ++k) {
      const size_t b = branches[k];
      const uint64_t v = member_values[k];
      if (options_.cache != nullptr) {
        if (ask) {
          options_.cache->PutVerdict(VerdictKey(shard, plans[b].stars.front()),
                                     member_ids_[shard], v > 0);
        } else {
          options_.cache->PutCount(count_key(shard, b), member_ids_[shard], v);
        }
      }
      values[b] = ask ? (values[b] | v) : sparql::AddCounts(values[b], v);
    }
  }

  // One row per tag with a true verdict or a nonzero count.
  IdTable out({batch.tag_var});
  if (!ask) out.vars.push_back(batch.count_alias);
  std::vector<rdf::TermId> tags;
  std::vector<uint64_t> totals;
  for (size_t b = 0; b < n; ++b) {
    if (values[b] == 0) continue;
    const rdf::TermId tag = dict_->Intern(*batch.branches[b].tag);
    size_t t = std::find(tags.begin(), tags.end(), tag) - tags.begin();
    if (t == tags.size()) {
      tags.push_back(tag);
      totals.push_back(0);
    }
    totals[t] = ask ? 1 : sparql::AddCounts(totals[t], values[b]);
  }
  for (size_t t = 0; t < tags.size(); ++t) {
    if (ask) {
      out.AppendRow({tags[t]});
    } else {
      out.AppendRow({tags[t], dict_->Intern(sparql::CountTerm(totals[t]))});
    }
  }
  QueryResponse response = MakeResponse(ctx);
  if (!response.degraded_members.empty()) partial_queries_.fetch_add(1);
  response.ids = std::make_shared<IdTable>(std::move(out));
  response.ids_dict = dict_;
  return response;
}

Result<QueryResponse> ShardedEndpoint::ScatterCount(
    const sparql::Query& query, const StarGroup& star,
    const CancelToken& cancel, ScatterContext* ctx) {
  sparql::Query count_query;
  count_query.form = sparql::QueryForm::kSelect;
  count_query.aggregate = query.aggregate;
  count_query.where.triples = star.triples;
  count_query.where.filters = star.filters;
  count_query.where.values = star.values;
  const std::string text = sparql::QueryToString(count_query);
  const std::string& alias = query.aggregate->alias.name;

  uint64_t total = 0;
  std::vector<std::pair<size_t, std::string>> jobs;
  for (size_t shard : star.shards) {
    if (options_.cache != nullptr) {
      auto cached = options_.cache->GetCount(
          cache::FederationCache::Key(member_ids_[shard], text));
      if (cached.has_value()) {
        total = sparql::AddCounts(total, *cached);
        continue;
      }
    }
    jobs.emplace_back(shard, text);
  }
  std::vector<Result<QueryResponse>> results = RunScatter(jobs, cancel, ctx);
  for (size_t i = 0; i < results.size(); ++i) {
    Result<QueryResponse>& r = results[i];
    if (!r.ok()) {
      if (!options_.partial_results) return r.status();
      std::lock_guard<std::mutex> lock(ctx->mu);
      ctx->degraded.insert(member_ids_[jobs[i].first]);
      continue;
    }
    std::optional<uint64_t> count = CountFromResponse(*r, alias);
    if (!count.has_value()) {
      return Status::Internal("shard " + member_ids_[jobs[i].first] +
                              " returned a malformed COUNT response");
    }
    total = sparql::AddCounts(total, *count);
    if (options_.cache != nullptr) {
      options_.cache->PutCount(
          cache::FederationCache::Key(member_ids_[jobs[i].first], text),
          member_ids_[jobs[i].first], *count);
    }
  }
  IdTable out;
  out.vars.push_back(alias);
  out.AppendRow({dict_->Intern(sparql::CountTerm(total))});
  QueryResponse response = MakeResponse(ctx);
  if (!response.degraded_members.empty()) partial_queries_.fetch_add(1);
  response.ids = std::make_shared<IdTable>(std::move(out));
  response.ids_dict = dict_;
  return response;
}

Result<QueryResponse> ShardedEndpoint::ExecuteAsk(const sparql::Query& query,
                                                  const CancelToken& cancel,
                                                  ScatterContext* ctx) {
  Plan plan;
  if (!BuildPlan(query.where, /*top_level=*/true, &plan)) {
    return Broadcast(query, cancel, ctx);
  }
  RoutePlan(&plan);

  bool verdict = false;
  bool simple = plan.stars.size() == 1 && plan.residual_filters.empty() &&
                plan.gather_values.empty() && plan.optionals.empty() &&
                plan.unions.empty() && plan.exists.empty();
  if (simple) {
    const StarGroup& star = plan.stars.front();
    const std::string ask_text =
        sparql::ProbeText(sparql::ProbeKind::kAsk, {StarBody(star)});
    std::vector<size_t> remaining;
    for (size_t shard : star.shards) {
      if (options_.cache != nullptr) {
        auto cached = options_.cache->GetVerdict(VerdictKey(shard, star));
        if (cached.has_value()) {
          if (*cached) verdict = true;
          continue;  // Either way, no request for this shard.
        }
      }
      remaining.push_back(shard);
    }
    if (verdict || remaining.empty()) {
      // Answered entirely from cached verdicts (or full pruning).
      ask_short_circuits_.fetch_add(1);
    } else {
      std::vector<std::pair<size_t, std::string>> jobs;
      for (size_t shard : remaining) jobs.emplace_back(shard, ask_text);
      std::vector<Result<QueryResponse>> results =
          RunScatter(jobs, cancel, ctx);
      for (size_t i = 0; i < results.size(); ++i) {
        Result<QueryResponse>& r = results[i];
        if (!r.ok()) {
          if (!options_.partial_results) return r.status();
          std::lock_guard<std::mutex> lock(ctx->mu);
          ctx->degraded.insert(member_ids_[jobs[i].first]);
          continue;
        }
        bool member_verdict = r->RowCount() > 0;
        verdict = verdict || member_verdict;
        if (options_.cache != nullptr) {
          options_.cache->PutVerdict(VerdictKey(jobs[i].first, star),
                                     member_ids_[jobs[i].first],
                                     member_verdict);
        }
      }
    }
  } else {
    LUSAIL_ASSIGN_OR_RETURN(IdTable acc, EvaluatePlan(plan, cancel, ctx));
    verdict = acc.NumRows() > 0;
  }

  QueryResponse response = MakeResponse(ctx);
  if (!response.degraded_members.empty()) partial_queries_.fetch_add(1);
  response.SetAskVerdict(verdict);
  return response;
}

Result<QueryResponse> ShardedEndpoint::Broadcast(const sparql::Query& query,
                                                 const CancelToken& cancel,
                                                 ScatterContext* ctx) {
  broadcast_fallbacks_.fetch_add(1);
  const size_t n = NumShards();

  if (query.form == sparql::QueryForm::kAsk) {
    const std::string text = sparql::QueryToString(query);
    std::vector<std::pair<size_t, std::string>> jobs;
    for (size_t shard = 0; shard < n; ++shard) jobs.emplace_back(shard, text);
    std::vector<Result<QueryResponse>> results = RunScatter(jobs, cancel, ctx);
    bool verdict = false;
    for (size_t i = 0; i < results.size(); ++i) {
      Result<QueryResponse>& r = results[i];
      if (!r.ok()) {
        if (!options_.partial_results) return r.status();
        std::lock_guard<std::mutex> lock(ctx->mu);
        ctx->degraded.insert(member_ids_[jobs[i].first]);
        continue;
      }
      verdict = verdict || r->RowCount() > 0;
    }
    QueryResponse response = MakeResponse(ctx);
    if (!response.degraded_members.empty()) partial_queries_.fetch_add(1);
    response.SetAskVerdict(verdict);
    return response;
  }

  // Ship the body (modifiers stripped; a safe LIMIT pushed when legal)
  // and re-apply aggregate / DISTINCT / ORDER BY / LIMIT at the gather.
  sparql::Query shard_query = query;
  shard_query.order_by.clear();
  shard_query.offset.reset();
  if (shard_query.aggregate.has_value()) {
    shard_query.aggregate.reset();
    shard_query.group_by.reset();
    shard_query.projection.clear();
    shard_query.select_all = true;
    shard_query.distinct = false;
    shard_query.limit.reset();
  } else {
    // Each member may contribute anywhere in the first rows of the union,
    // so the pushable row limit per member keeps the gather exact.
    shard_query.limit = query.PushableRowLimit();
  }
  if (!query.order_by.empty() && !query.distinct &&
      !shard_query.aggregate.has_value() && !shard_query.select_all) {
    // The gather sorts, so members must ship the sort keys even when the
    // projection omits them; the finisher reads them as hidden columns.
    // (Under DISTINCT it ignores such keys, so they are not shipped.)
    for (const sparql::OrderKey& key : query.order_by) {
      bool present = false;
      for (const sparql::Variable& var : shard_query.projection) {
        if (var.name == key.var.name) {
          present = true;
          break;
        }
      }
      if (!present) shard_query.projection.push_back(key.var);
    }
  }
  const std::string text = sparql::QueryToString(shard_query);
  std::vector<std::pair<size_t, std::string>> jobs;
  for (size_t shard = 0; shard < n; ++shard) jobs.emplace_back(shard, text);
  std::vector<Result<QueryResponse>> results = RunScatter(jobs, cancel, ctx);
  IdTable acc;
  for (size_t i = 0; i < results.size(); ++i) {
    Result<QueryResponse>& r = results[i];
    if (!r.ok()) {
      if (!options_.partial_results) return r.status();
      std::lock_guard<std::mutex> lock(ctx->mu);
      ctx->degraded.insert(member_ids_[jobs[i].first]);
      continue;
    }
    IdTable t = EncodeResponse(*r);
    core::AppendUnionIds(&acc, t);
  }
  return FinishSelect(query, acc, ctx);
}

Result<QueryResponse> ShardedEndpoint::FinishSelect(const sparql::Query& query,
                                                    const IdTable& acc,
                                                    ScatterContext* ctx) {
  QueryResponse response = MakeResponse(ctx);
  if (!response.degraded_members.empty()) partial_queries_.fetch_add(1);
  response.ids =
      std::make_shared<IdTable>(core::FinishQuery(query, acc, dict_.get()));
  response.ids_dict = dict_;
  return response;
}

void ShardedEndpoint::CollectShards(const Plan& plan, std::set<size_t>* out) {
  for (const auto& star : plan.stars) {
    out->insert(star.shards.begin(), star.shards.end());
  }
  for (const auto& sub : plan.optionals) CollectShards(sub, out);
  for (const auto& chain : plan.unions) {
    for (const auto& sub : chain) CollectShards(sub, out);
  }
  for (const auto& [negated, sub] : plan.exists) CollectShards(sub, out);
}

}  // namespace lusail::shard

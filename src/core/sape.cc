#include "core/sape.h"

#include <algorithm>
#include <future>
#include <map>
#include <set>
#include <unordered_set>

#include "cache/federation_cache.h"
#include "core/hash_join.h"
#include "core/join_optimizer.h"

namespace lusail::core {

namespace {

using sparql::TriplePattern;

/// Distinct bound values of a column (one contiguous scan — this is the
/// columnar layout's home turf).
std::vector<rdf::TermId> DistinctColumn(const IdTable& table,
                                        const std::string& var) {
  std::vector<rdf::TermId> out;
  int idx = table.VarIndex(var);
  if (idx < 0) return out;
  std::unordered_set<rdf::TermId> seen;
  for (rdf::TermId id : table.Column(static_cast<size_t>(idx))) {
    if (id != rdf::kInvalidTermId && seen.insert(id).second) {
      out.push_back(id);
    }
  }
  return out;
}

/// One failed endpoint request: which endpoint, and why.
struct EndpointFailure {
  int endpoint;
  Status status;
};

/// Builds one Status describing *all* endpoint failures of a phase, not
/// just the first: count, the distinct endpoint ids, and up to four
/// per-endpoint messages. Debugging a multi-endpoint outage needs the
/// full picture, not a single truncated message.
Status AggregateFailures(const fed::Federation* federation, const char* phase,
                         const std::vector<EndpointFailure>& failures,
                         size_t total_requests) {
  std::vector<std::string> ids;
  for (const EndpointFailure& f : failures) {
    std::string id = federation->id(static_cast<size_t>(f.endpoint));
    if (std::find(ids.begin(), ids.end(), id) == ids.end()) {
      ids.push_back(std::move(id));
    }
  }
  std::string msg = std::to_string(failures.size()) + " of " +
                    std::to_string(total_requests) +
                    " endpoint requests failed in " + phase +
                    " (endpoints: ";
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) msg += ", ";
    msg += ids[i];
  }
  msg += ")";
  const size_t kMaxDetailed = 4;
  for (size_t i = 0; i < failures.size() && i < kMaxDetailed; ++i) {
    msg += "; " +
           federation->id(static_cast<size_t>(failures[i].endpoint)) + ": " +
           failures[i].status.ToString();
  }
  if (failures.size() > kMaxDetailed) msg += "; ...";
  return Status(failures.front().status.code(), std::move(msg));
}

/// Joins every group of tables that (transitively) share variables into
/// one table per group, ordering each group's joins with the DP join
/// optimizer; disjoint groups remain separate (the delayed phase refines
/// against them, and only the final cartesian step may merge them).
std::vector<IdTable> JoinConnected(std::vector<IdTable> tables,
                                   ThreadPool* pool, size_t partitions,
                                   const CancelToken* cancel = nullptr) {
  if (tables.size() <= 1) return tables;

  // Connected components of the shares-a-variable graph (BFS).
  std::vector<int> component(tables.size(), -1);
  int num_components = 0;
  for (size_t seed = 0; seed < tables.size(); ++seed) {
    if (component[seed] >= 0) continue;
    std::vector<size_t> frontier{seed};
    component[seed] = num_components;
    while (!frontier.empty()) {
      size_t i = frontier.back();
      frontier.pop_back();
      for (size_t j = 0; j < tables.size(); ++j) {
        if (component[j] >= 0) continue;
        if (IdTable::SharedVars(tables[i], tables[j]).empty()) continue;
        component[j] = num_components;
        frontier.push_back(j);
      }
    }
    ++num_components;
  }

  std::vector<IdTable> out;
  out.reserve(static_cast<size_t>(num_components));
  for (int c = 0; c < num_components; ++c) {
    std::vector<size_t> members;
    for (size_t i = 0; i < tables.size(); ++i) {
      if (component[i] == c) members.push_back(i);
    }
    if (members.size() == 1) {
      out.push_back(std::move(tables[members[0]]));
      continue;
    }
    // DP join order over the group's true cardinalities, then a
    // left-deep chain of parallel partitioned hash joins.
    std::vector<double> sizes;
    std::vector<std::set<std::string>> vars;
    for (size_t i : members) {
      sizes.push_back(static_cast<double>(tables[i].NumRows()));
      vars.emplace_back(tables[i].vars.begin(), tables[i].vars.end());
    }
    std::vector<int> order =
        JoinOptimizer::OptimalOrder(sizes, vars, std::max<size_t>(1,
                                                                  partitions));
    IdTable joined = std::move(tables[members[order[0]]]);
    for (size_t k = 1; k < order.size(); ++k) {
      if (cancel != nullptr && cancel->Cancelled()) break;
      joined = ParallelHashJoin(joined, tables[members[order[k]]], pool,
                                partitions, cancel);
    }
    out.push_back(std::move(joined));
  }
  return out;
}

}  // namespace

std::future<Result<IdTable>> SapeExecutor::FetchEndpoint(
    int ep, const std::string& text, const std::string& cache_key,
    bool cacheable, TermDictionary* dict, fed::IssueContext ctx,
    bool cutoff_on_failure) {
  cache::FederationCache* shared =
      (cacheable && options_->use_cache && options_->result_cache)
          ? federation_->query_cache()
          : nullptr;
  std::string endpoint_id;
  if (shared != nullptr) {
    endpoint_id = federation_->id(static_cast<size_t>(ep));
    std::optional<cache::CachedAnswer> hit =
        shared->GetResult(endpoint_id, cache_key);
    if (hit.has_value()) {
      obs::Tracer* tracer =
          ctx.metrics != nullptr ? ctx.metrics->tracer() : nullptr;
      if (tracer != nullptr) {
        obs::SpanId span =
            tracer->StartSpan("cache hit " + endpoint_id, "cache",
                              ctx.trace_parent);
        tracer->Annotate(span, "rows",
                         static_cast<uint64_t>(hit->ids->NumRows()));
        tracer->EndSpan(span);
      }
      // A hit enters this engine's id space as a response does, on the
      // pool; the shared table itself is only read.
      return pool_->Submit([hit = std::move(*hit), dict]() {
        return Result<IdTable>(
            fed::Federation::ToIds(*hit.ids, *hit.terms, dict));
      });
    }
  }
  // Copied before ctx moves into Issue. A default token never fires.
  CancelToken cutoff = cutoff_on_failure ? ctx.cutoff : CancelToken();
  return federation_->Issue(
      pool_, static_cast<size_t>(ep), text, std::move(ctx),
      [shared, endpoint_id, cache_key, dict, cutoff](
          Result<net::QueryResponse> response) mutable -> Result<IdTable> {
        if (!response.ok()) {
          if (cutoff.CancelRequested()) return IdTable();
          cutoff.Cancel();
        }
        if (shared == nullptr || !response.ok()) {
          return fed::Federation::ToIds(std::move(response), dict);
        }
        // The cache keeps the response's own table, so this engine takes a
        // copy (or a translation), never the table itself.
        shared->PutResult(endpoint_id, cache_key,
                          {response->ids, response->ids_dict});
        return Result<IdTable>(
            fed::Federation::ToIds(*response->ids, *response->ids_dict, dict));
      });
}

SapeExecutor::Issued SapeExecutor::IssueEverywhere(
    const Subquery& sq, const std::vector<TriplePattern>& triples,
    const sparql::ValuesClause* values,
    const std::vector<rdf::TermId>* bound_ids, TermDictionary* dict,
    fed::MetricsCollector* metrics, const CancelToken& cancel,
    obs::SpanId trace_parent, size_t row_limit, const CancelToken* failed) {
  std::string text = sq.ToSparql(triples, values);
  // The LIMIT rides inside the text, so the shared result cache keys a
  // limited fetch separately from the unlimited one — a capped answer
  // never masquerades as the full result on a later warm run.
  if (row_limit > 0) text += "\nLIMIT " + std::to_string(row_limit);
  // Unbound texts key the shared result cache directly. Bound (VALUES)
  // fetches are keyed as base text + an id-space fingerprint of the
  // binding block (one precomputed 8-byte content hash mixed per binding
  // instead of serializing the block; content hashes keep the key stable
  // across engines sharing the cache), so re-running a query in a warm
  // serving process skips its bound joins too while giant VALUES
  // serializations stay out of the cache index.
  std::string cache_key = text;
  bool cacheable = true;
  if (values != nullptr) {
    if (bound_ids == nullptr || values->vars.empty()) {
      // No id-space identity for the block: skip the cache rather than
      // risk keying different blocks identically.
      cacheable = false;
    } else {
      cache_key = sq.ToSparql(triples, nullptr) + "\n#values-block:" +
                  FingerprintIdBindings(values->vars[0].name, *dict,
                                        bound_ids->data(), bound_ids->size());
    }
  }
  // Row budget: fired once the union already holds `row_limit` rows.
  // Fetches not yet sent behind the satisfied point skip the wire — a
  // budget hit is a cutoff, never a failure.
  Issued issued;
  issued.sources = sq.sources;
  issued.row_limit = row_limit;
  issued.ctx.metrics = metrics;
  issued.ctx.cancel = cancel;
  issued.ctx.retry = &options_->retry_policy;
  issued.ctx.trace_parent = trace_parent;
  issued.ctx.kind = fed::RequestKind::kFetch;
  if (row_limit > 0) issued.ctx.cutoff = CancelToken::Cancellable();
  if (failed != nullptr) issued.ctx.cutoff = *failed;
  // A row-limited fetch sends its first source alone, like the bound
  // join's first block; CollectEverywhere sends the rest unless that one
  // fills the budget. A bound join's blocks (`failed`) go out at once.
  auto send = [this, text = std::move(text), cache_key = std::move(cache_key),
               cacheable, dict, ctx = issued.ctx,
               cutoff_on_failure = failed != nullptr](int ep) {
    return FetchEndpoint(ep, text, cache_key, cacheable, dict, ctx,
                         cutoff_on_failure);
  };
  const bool first_alone =
      row_limit > 0 && failed == nullptr && issued.sources.size() > 1;
  issued.futures.reserve(issued.sources.size());
  for (int ep : issued.sources) {
    issued.futures.push_back(send(ep));
    if (first_alone) {
      issued.send_rest = std::move(send);
      break;
    }
  }
  return issued;
}

Status SapeExecutor::CollectEverywhere(Issued issued, IdTable* merged) {
  fed::MetricsCollector* metrics = issued.ctx.metrics;
  std::vector<EndpointFailure> failures;
  size_t successes = 0;
  for (size_t k = 0; k < issued.futures.size(); ++k) {
    Result<IdTable> table = issued.futures[k].get();
    if (!table.ok()) {
      // Skipped, or failed after the union already held enough rows:
      // either way the answer needs nothing from it.
      if (issued.row_limit > 0 && issued.ctx.cutoff.CancelRequested()) {
        continue;
      }
      failures.push_back({issued.sources[k], table.status()});
    } else {
      ++successes;
      AppendUnionIds(merged, *table);
      if (issued.row_limit > 0 && merged->NumRows() >= issued.row_limit) {
        issued.ctx.cutoff.Cancel();
      }
    }
    // The first source went alone: send the rest in one wave unless it
    // filled the budget, the query was cancelled, or its failure already
    // decides the call.
    if (k == 0 && issued.send_rest && !issued.ctx.cutoff.CancelRequested() &&
        !issued.ctx.cancel.Cancelled() &&
        (failures.empty() || options_->partial_results)) {
      for (size_t j = 1; j < issued.sources.size(); ++j) {
        issued.futures.push_back(issued.send_rest(issued.sources[j]));
      }
    }
  }
  if (failures.empty()) return Status::OK();
  if (!options_->partial_results) {
    return AggregateFailures(federation_, "subquery evaluation", failures,
                             issued.futures.size());
  }
  // Graceful degradation: each per-endpoint result is one branch of the
  // subquery's UNION — dropping a branch yields a subset of the exact
  // answer, which is exactly what partial_results promises.
  if (metrics != nullptr) {
    for (const EndpointFailure& f : failures) {
      metrics->RecordEndpointDropped(
          federation_->id(static_cast<size_t>(f.endpoint)));
    }
    if (successes == 0) metrics->RecordSubqueryDropped();
  }
  return Status::OK();
}

Result<IdTable> SapeExecutor::Execute(
    std::vector<Subquery> subqueries,
    const std::vector<TriplePattern>& triples, TermDictionary* dict,
    fed::MetricsCollector* metrics, const CancelToken& cancel,
    fed::ExecutionProfile* profile, size_t row_limit) {
  auto track_peak = [profile](const std::vector<IdTable>& tables) {
    if (profile == nullptr) return;
    uint64_t total = 0;
    for (const IdTable& t : tables) total += t.NumRows();
    profile->peak_intermediate_rows =
        std::max(profile->peak_intermediate_rows, total);
  };
  if (subqueries.empty()) {
    return Status::InvalidArgument("no subqueries to execute");
  }

  obs::Tracer* tracer = metrics != nullptr ? metrics->tracer() : nullptr;
  // Opens a "subquery" span under the current phase span. Spans are
  // created on this thread and handed to pool tasks as explicit request
  // parents, so concurrent subqueries nest their requests correctly.
  auto start_sq_span = [&](size_t i, const char* mode) -> obs::SpanId {
    if (tracer == nullptr) return 0;
    obs::SpanId span = tracer->StartSpan("subquery " + std::to_string(i),
                                         "subquery", metrics->trace_parent());
    tracer->Annotate(span, "mode", mode);
    tracer->Annotate(span, "endpoints",
                     static_cast<uint64_t>(subqueries[i].sources.size()));
    tracer->Annotate(span, "estimated_cardinality",
                     subqueries[i].estimated_cardinality);
    return span;
  };

  // Single subquery: evaluate the whole query at every relevant endpoint
  // independently and union (Algorithm 3, lines 2-4).
  if (subqueries.size() == 1) {
    obs::SpanId span = start_sq_span(0, "whole query");
    if (tracer != nullptr && row_limit > 0) {
      tracer->Annotate(span, "limit_pushdown",
                       static_cast<uint64_t>(row_limit));
    }
    IdTable table;
    table.vars = subqueries[0].projection;
    Status status = CollectEverywhere(
        IssueEverywhere(subqueries[0], triples, nullptr, nullptr, dict,
                        metrics, cancel, span, row_limit),
        &table);
    if (tracer != nullptr) tracer->EndSpan(span);
    if (!status.ok()) return status;
    if (cancel.Cancelled()) return cancel.StatusAt("subquery evaluation");
    return table;
  }

  // Delay decision (skipped entirely when SAPE is disabled).
  if (options_->enable_sape) {
    std::vector<double> cards, eps;
    for (const Subquery& sq : subqueries) {
      cards.push_back(sq.estimated_cardinality);
      eps.push_back(static_cast<double>(sq.sources.size()));
    }
    std::vector<bool> delayed =
        DecideDelayed(cards, eps, options_->delay_threshold);
    for (size_t i = 0; i < subqueries.size(); ++i) {
      subqueries[i].delayed = delayed[i];
    }
  } else {
    for (Subquery& sq : subqueries) sq.delayed = false;
  }

  // ---- Phase 1: non-delayed subqueries, all concurrent. ----
  // Every (subquery, endpoint) request is issued through the federation
  // (no nested waits inside workers, and no worker held through a
  // simulated network wait — the pool can be as small as two threads), so
  // all non-delayed subqueries are in flight at once, non-blocking, as in
  // Algorithm 3 lines 6-7.
  struct Fetch {
    size_t sq_index;
    int endpoint;
    std::future<Result<IdTable>> result;
  };
  const net::RetryPolicy* retry = &options_->retry_policy;
  std::vector<Fetch> fetches;
  std::vector<size_t> phase1_order;
  std::map<size_t, IdTable> phase1_tables;
  std::map<size_t, size_t> phase1_successes;
  std::map<size_t, obs::SpanId> phase1_spans;
  std::map<size_t, size_t> phase1_pending;
  for (size_t i = 0; i < subqueries.size(); ++i) {
    if (subqueries[i].delayed) continue;
    phase1_order.push_back(i);
    IdTable empty;
    empty.vars = subqueries[i].projection;
    phase1_tables.emplace(i, std::move(empty));
    phase1_successes.emplace(i, 0);
    obs::SpanId span = start_sq_span(i, "concurrent");
    phase1_spans.emplace(i, span);
    phase1_pending.emplace(i, subqueries[i].sources.size());
    std::string text = subqueries[i].ToSparql(triples, nullptr);
    fed::IssueContext ctx;
    ctx.metrics = metrics;
    ctx.cancel = cancel;
    ctx.retry = retry;
    ctx.trace_parent = span;
    ctx.kind = fed::RequestKind::kFetch;
    for (int ep : subqueries[i].sources) {
      Fetch fetch;
      fetch.sq_index = i;
      fetch.endpoint = ep;
      fetch.result = FetchEndpoint(ep, text, /*cache_key=*/text,
                                   /*cacheable=*/true, dict, ctx);
      fetches.push_back(std::move(fetch));
    }
  }
  std::vector<EndpointFailure> phase1_failures;
  std::set<size_t> phase1_failed_sqs;
  for (Fetch& fetch : fetches) {
    Result<IdTable> part = fetch.result.get();
    if (!part.ok()) {
      phase1_failures.push_back({fetch.endpoint, part.status()});
      phase1_failed_sqs.insert(fetch.sq_index);
    } else {
      ++phase1_successes[fetch.sq_index];
      AppendUnionIds(&phase1_tables[fetch.sq_index], *part);
    }
    // The subquery span closes when its last endpoint result lands.
    if (tracer != nullptr && --phase1_pending[fetch.sq_index] == 0) {
      obs::SpanId span = phase1_spans[fetch.sq_index];
      tracer->Annotate(
          span, "rows",
          static_cast<uint64_t>(phase1_tables[fetch.sq_index].NumRows()));
      tracer->EndSpan(span);
    }
  }
  if (!phase1_failures.empty()) {
    if (!options_->partial_results) {
      return AggregateFailures(federation_, "SAPE phase 1 (concurrent "
                               "subqueries)", phase1_failures,
                               fetches.size());
    }
    if (metrics != nullptr) {
      for (const EndpointFailure& f : phase1_failures) {
        metrics->RecordEndpointDropped(
            federation_->id(static_cast<size_t>(f.endpoint)));
      }
      for (size_t sq_index : phase1_failed_sqs) {
        if (phase1_successes[sq_index] == 0) metrics->RecordSubqueryDropped();
      }
    }
  }
  std::vector<IdTable> tables;
  for (size_t i : phase1_order) {
    tables.push_back(std::move(phase1_tables[i]));
  }

  // Eagerly join connected non-delayed results; this shrinks the found
  // bindings the delayed subqueries will be probed with.
  if (cancel.Cancelled()) return cancel.StatusAt("SAPE phase 1");
  track_peak(tables);
  tables = JoinConnected(std::move(tables), pool_, options_->join_partitions,
                         &cancel);
  if (cancel.Cancelled()) return cancel.StatusAt("SAPE phase 1 join");
  track_peak(tables);

  // ---- Phase 2: delayed subqueries via bound joins. ----
  std::vector<size_t> delayed_left;
  for (size_t i = 0; i < subqueries.size(); ++i) {
    if (subqueries[i].delayed) delayed_left.push_back(i);
  }

  auto found_bindings_for = [&](const Subquery& sq)
      -> std::pair<std::string, std::vector<rdf::TermId>> {
    // The shared variable with the fewest distinct found bindings.
    std::string best_var;
    std::vector<rdf::TermId> best;
    for (const std::string& v : sq.projection) {
      for (const IdTable& t : tables) {
        if (t.VarIndex(v) < 0) continue;
        std::vector<rdf::TermId> vals = DistinctColumn(t, v);
        if (vals.empty()) continue;
        if (best_var.empty() || vals.size() < best.size()) {
          best_var = v;
          best = std::move(vals);
        }
      }
    }
    return {best_var, best};
  };

  while (!delayed_left.empty()) {
    if (cancel.Cancelled()) return cancel.StatusAt("delayed phase");
    // Most selective next: smallest refined cardinality, where the
    // refinement caps the estimate by the found bindings it can join on.
    size_t pick = 0;
    double pick_cost = std::numeric_limits<double>::infinity();
    for (size_t k = 0; k < delayed_left.size(); ++k) {
      const Subquery& sq = subqueries[delayed_left[k]];
      double refined = sq.estimated_cardinality;
      auto [var, bindings] = found_bindings_for(sq);
      if (!var.empty()) {
        refined = std::min(refined, static_cast<double>(bindings.size()));
      }
      if (refined < pick_cost) {
        pick_cost = refined;
        pick = k;
      }
    }
    size_t sq_index = delayed_left[pick];
    delayed_left.erase(delayed_left.begin() + pick);
    Subquery& sq = subqueries[sq_index];

    obs::SpanId sq_span = start_sq_span(sq_index, "delayed");
    auto end_sq_span = [&](size_t result_rows) {
      if (tracer == nullptr) return;
      tracer->Annotate(sq_span, "rows",
                       static_cast<uint64_t>(result_rows));
      tracer->EndSpan(sq_span);
    };

    // Empty-partner short-circuit: a join partner (a table sharing one of
    // this subquery's variables) with zero rows makes the inner join
    // empty no matter what the subquery returns. Without this check such
    // a subquery falls through found_bindings_for (no distinct bindings)
    // and is fetched unbound from every endpoint for nothing. Zero *rows*
    // is the test — a non-empty partner whose shared column is all
    // unbound still joins compatibly and must not short-circuit.
    bool empty_partner = false;
    for (const IdTable& t : tables) {
      if (t.NumRows() != 0) continue;
      for (const std::string& v : sq.projection) {
        if (t.VarIndex(v) >= 0) {
          empty_partner = true;
          break;
        }
      }
      if (empty_partner) break;
    }
    if (empty_partner) {
      if (tracer != nullptr) {
        tracer->Annotate(sq_span, "empty_partner", true);
      }
      IdTable empty;
      empty.vars = sq.projection;
      end_sq_span(0);
      tables.push_back(std::move(empty));
      tables = JoinConnected(std::move(tables), pool_,
                             options_->join_partitions, &cancel);
      continue;
    }

    auto [bind_var, bindings] = found_bindings_for(sq);
    if (bind_var.empty()) {
      // Nothing to bind with: evaluate unbound like phase 1.
      IdTable t;
      t.vars = sq.projection;
      Status status = CollectEverywhere(
          IssueEverywhere(sq, triples, nullptr, nullptr, dict, metrics,
                          cancel, sq_span),
          &t);
      end_sq_span(t.NumRows());
      if (!status.ok()) return status;
      tables.push_back(std::move(t));
      tables = JoinConnected(std::move(tables), pool_,
                             options_->join_partitions, &cancel);
      continue;
    }
    if (tracer != nullptr) {
      tracer->Annotate(sq_span, "bind_var", bind_var);
      tracer->Annotate(sq_span, "bindings",
                       static_cast<uint64_t>(bindings.size()));
    }

    // Source refinement (Algorithm 3, line 13): for generic subqueries
    // (single pattern, >= 2 variables) probe each endpoint with a sampled
    // VALUES block and drop endpoints that answer no sample.
    std::vector<int> sources = sq.sources;
    if (sq.triple_indices.size() == 1 &&
        triples[sq.triple_indices[0]].VariableCount() >= 2 &&
        sources.size() > 1 && !bindings.empty()) {
      sparql::ValuesClause sample;
      sample.vars.push_back(sparql::Variable{bind_var});
      size_t n = std::min(options_->source_refinement_sample, bindings.size());
      for (size_t i = 0; i < n; ++i) {
        sample.rows.push_back({dict->term(bindings[i])});
      }
      sparql::Query ask;
      ask.form = sparql::QueryForm::kAsk;
      ask.where.triples.push_back(triples[sq.triple_indices[0]]);
      ask.where.values.push_back(sample);
      std::string ask_text = sparql::QueryToString(ask);
      cache::FederationCache* shared =
          options_->use_cache ? federation_->query_cache() : nullptr;
      fed::IssueContext ctx;
      ctx.metrics = metrics;
      ctx.cancel = cancel;
      ctx.retry = retry;
      ctx.trace_parent = sq_span;
      ctx.kind = fed::RequestKind::kAsk;
      ctx.probe_pairs = 1;
      std::vector<std::future<Result<bool>>> probes;
      for (int ep : sources) {
        std::string endpoint_id;
        std::string key;
        if (shared != nullptr) {
          endpoint_id = federation_->id(static_cast<size_t>(ep));
          key = cache::FederationCache::Key(endpoint_id, ask_text);
          std::optional<bool> cached = shared->GetVerdict(key);
          if (cached.has_value()) {
            probes.push_back(ReadyFuture(Result<bool>(*cached)));
            continue;
          }
        }
        probes.push_back(federation_->Issue(
            pool_, static_cast<size_t>(ep), ask_text, ctx,
            [shared, endpoint_id,
             key](const Result<net::QueryResponse>& response) {
              Result<bool> answer = fed::Federation::NonEmpty(response);
              if (shared != nullptr && answer.ok()) {
                shared->PutVerdict(key, endpoint_id, *answer);
              }
              return answer;
            }));
      }
      std::vector<int> kept;
      for (size_t i = 0; i < probes.size(); ++i) {
        Result<bool> has = probes[i].get();
        // On sampling-probe failure, keep the endpoint (conservative).
        if (!has.ok() || *has) kept.push_back(sources[i]);
      }
      if (!kept.empty()) sources = std::move(kept);
    }

    // Bound join: ship the found bindings in VALUES blocks. The first
    // block goes alone; once it has landed, every other block goes out in
    // one wave, and the parts are unioned in block order. The token is
    // checked before each of the two sends, so a cancel seen after the
    // first block stops the join before the other blocks are sent. Unless
    // a failed block is merely dropped (partial_results), the first
    // failure fires `failed` and the blocks not yet sent skip the wire.
    Subquery bound_sq = sq;
    bound_sq.sources = sources;
    if (std::find(bound_sq.projection.begin(), bound_sq.projection.end(),
                  bind_var) == bound_sq.projection.end()) {
      bound_sq.projection.push_back(bind_var);
    }
    IdTable merged;
    merged.vars = bound_sq.projection;
    const size_t block = std::max<size_t>(1, options_->bound_join_block_size);
    size_t values_blocks = 0;
    size_t waves = 0;
    const CancelToken failed = CancelToken::Cancellable();
    const CancelToken* cutoff = options_->partial_results ? nullptr : &failed;
    Status status;
    for (size_t start = 0; start < bindings.size() && status.ok();) {
      if (cancel.Cancelled()) {
        end_sq_span(merged.NumRows());
        return cancel.StatusAt("bound join");
      }
      const size_t wave_end =
          waves == 0 ? std::min(block, bindings.size()) : bindings.size();
      std::vector<Issued> wave;
      for (; start < wave_end; start += block) {
        sparql::ValuesClause values;
        values.vars.push_back(sparql::Variable{bind_var});
        std::vector<rdf::TermId> chunk_ids(
            bindings.begin() + start,
            bindings.begin() + std::min(wave_end, start + block));
        for (rdf::TermId id : chunk_ids) {
          values.rows.push_back({dict->term(id)});
        }
        wave.push_back(IssueEverywhere(bound_sq, triples, &values, &chunk_ids,
                                       dict, metrics, cancel, sq_span,
                                       /*row_limit=*/0, cutoff));
      }
      ++waves;
      values_blocks += wave.size();
      // Every block is collected, even after one failed, so no issued
      // request outlives this frame; the first failure is the answer.
      for (Issued& issued : wave) {
        Status part = CollectEverywhere(std::move(issued), &merged);
        if (status.ok()) status = part;
      }
    }
    if (tracer != nullptr) {
      tracer->Annotate(sq_span, "values_blocks",
                       static_cast<uint64_t>(values_blocks));
      tracer->Annotate(sq_span, "waves", static_cast<uint64_t>(waves));
    }
    end_sq_span(merged.NumRows());
    if (!status.ok()) return status;
    tables.push_back(std::move(merged));
    track_peak(tables);
    tables = JoinConnected(std::move(tables), pool_,
                           options_->join_partitions, &cancel);
    track_peak(tables);
  }

  // ---- Global join of whatever is left (disjoint groups: cartesian). ----
  tables = JoinConnected(std::move(tables), pool_, options_->join_partitions,
                         &cancel);
  while (tables.size() > 1) {
    if (cancel.Cancelled()) return cancel.StatusAt("global join");
    // Cartesian products, smallest first to bound growth; the parallel
    // join partitions the product across the pool when it is large.
    std::sort(tables.begin(), tables.end(),
              [](const IdTable& a, const IdTable& b) {
                return a.NumRows() < b.NumRows();
              });
    IdTable joined =
        ParallelHashJoin(tables[0], tables[1], pool_,
                         options_->join_partitions, &cancel);
    tables.erase(tables.begin(), tables.begin() + 2);
    tables.insert(tables.begin(), std::move(joined));
  }
  if (cancel.Cancelled()) return cancel.StatusAt("global join");
  return std::move(tables[0]);
}

}  // namespace lusail::core

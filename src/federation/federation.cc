#include "federation/federation.h"

#include <unistd.h>

#include <cctype>
#include <optional>

#include "cache/federation_cache.h"
#include "net/latency_model.h"
#include "obs/trace_context.h"

namespace lusail::fed {

QueryTrace::QueryTrace(bool enabled, const std::string& engine_name,
                       MetricsCollector* metrics)
    : metrics_(metrics) {
  if (!enabled) return;
  tracer_ = std::make_shared<obs::Tracer>();
  tracer_->set_trace_id(obs::GenerateTraceId());
  tracer_->RegisterProcess(static_cast<uint64_t>(::getpid()),
                           "federator/" + engine_name);
  root_ = tracer_->StartSpan("query", "query");
  tracer_->Annotate(root_, "engine", engine_name);
  tracer_->Annotate(root_, "trace_id", tracer_->trace_id());
  metrics_->SetTracer(tracer_.get());
  metrics_->SetTracerShared(tracer_);
  metrics_->SetTraceParent(root_);
}

obs::JsonValue ProfileToJson(const ExecutionProfile& profile) {
  obs::JsonValue out = obs::JsonValue::Object();
  out.Set("requests", profile.requests);
  out.Set("ask_requests", profile.ask_requests);
  out.Set("probe_pairs", profile.probe_pairs);
  out.Set("bytes_sent", profile.bytes_sent);
  out.Set("bytes_received", profile.bytes_received);
  out.Set("rows_received", profile.rows_received);
  out.Set("network_ms", profile.network_ms);
  out.Set("serial_waves", profile.serial_waves);
  out.Set("first_row_ms", profile.first_row_ms);
  out.Set("source_selection_ms", profile.source_selection_ms);
  out.Set("analysis_ms", profile.analysis_ms);
  out.Set("execution_ms", profile.execution_ms);
  out.Set("total_ms", profile.total_ms);
  out.Set("pushed_optionals", profile.pushed_optionals);
  out.Set("peak_intermediate_rows", profile.peak_intermediate_rows);
  out.Set("retries", profile.retries);
  out.Set("breaker_rejections", profile.breaker_rejections);
  out.Set("breaker_trips", profile.breaker_trips);
  out.Set("endpoints_failed", profile.endpoints_failed);
  out.Set("subqueries_dropped", profile.subqueries_dropped);
  out.Set("hedged_requests", profile.hedged_requests);
  obs::JsonValue failed = obs::JsonValue::Array();
  for (const std::string& id : profile.failed_endpoint_ids) {
    failed.Append(id);
  }
  out.Set("failed_endpoint_ids", std::move(failed));
  out.Set("partial", profile.partial);
  return out;
}

size_t Federation::Add(std::shared_ptr<net::Endpoint> endpoint) {
  endpoints_.push_back(std::move(endpoint));
  breakers_.push_back(std::make_unique<net::CircuitBreaker>(breaker_config_));
  return endpoints_.size() - 1;
}

void Federation::ExportMetrics(obs::MetricsSnapshot* snapshot) const {
  for (size_t i = 0; i < endpoints_.size(); ++i) {
    endpoints_[i]->ExportMetrics(snapshot);
    obs::MetricLabels labels{{"endpoint", id(i)}};
    breakers_[i]->ExportState(snapshot, "lusail_federation_breaker_state",
                              labels);
    snapshot->AddCounter("lusail_federation_breaker_trips_total",
                         "Federation circuit-breaker transitions to open.",
                         std::move(labels),
                         static_cast<double>(breakers_[i]->trips()));
  }
  if (query_cache_ != nullptr) query_cache_->ExportMetrics(snapshot);
}

void Federation::ConfigureBreakers(const net::CircuitBreakerConfig& config) {
  breaker_config_ = config;
  for (auto& breaker : breakers_) {
    breaker = std::make_unique<net::CircuitBreaker>(config);
  }
}

struct Federation::Exchange {
  ThreadPool* pool = nullptr;
  size_t endpoint = 0;
  std::string text;
  IssueContext ctx;
  Completion done;
  obs::SpanId span = 0;
  Result<net::QueryResponse> response = Status::Internal("not sent");
  net::RetryOutcome outcome;
};

void Federation::Start(ThreadPool* pool, size_t i, std::string text,
                       IssueContext ctx, Completion done) const {
  if (ctx.metrics != nullptr) ctx.metrics->NoteSent();
  auto ex = std::make_shared<Exchange>();
  ex->pool = pool;
  ex->endpoint = i;
  ex->text = std::move(text);
  ex->ctx = std::move(ctx);
  ex->done = std::move(done);
  if (pool == nullptr) {
    Send(ex);
  } else {
    pool->Submit([this, ex] { Send(ex); });
  }
}

void Federation::Send(const std::shared_ptr<Exchange>& ex) const {
  const size_t i = ex->endpoint;
  if (i >= endpoints_.size()) {
    ex->done(Status::NotFound("no endpoint with index " + std::to_string(i)));
    return;
  }
  const std::string& endpoint_id = endpoints_[i]->id();
  const IssueContext& ctx = ex->ctx;
  if (ctx.cutoff.Cancelled()) {
    ex->done(ctx.cutoff.StatusAt(("request to " + endpoint_id).c_str()));
    return;
  }
  if (ctx.cancel.Cancelled()) {
    ex->done(ctx.cancel.StatusAt(("request to " + endpoint_id).c_str()));
    return;
  }
  MetricsCollector* metrics = ctx.metrics;
  obs::Tracer* tracer = metrics != nullptr ? metrics->tracer() : nullptr;
  if (tracer != nullptr) {
    obs::SpanId parent =
        ctx.trace_parent != 0 ? ctx.trace_parent : metrics->trace_parent();
    ex->span = tracer->StartSpan("request " + endpoint_id, "request", parent);
    tracer->Annotate(ex->span, "endpoint", endpoint_id);
    tracer->Annotate(ex->span, "is_ask", ctx.kind == RequestKind::kAsk);
  }

  // While the endpoint call runs, downstream layers (the HTTP client,
  // hedged replica workers) can pick up the trace identity from the
  // calling thread and propagate it across the wire. Parent remote
  // subtrees under this exchange's "request" span.
  std::optional<obs::TraceContextScope> trace_scope;
  if (tracer != nullptr) {
    std::shared_ptr<obs::Tracer> shared = metrics->shared_tracer();
    if (shared != nullptr && shared.get() == tracer) {
      obs::TraceContext context;
      context.tracer = std::move(shared);
      context.trace_id = tracer->trace_id();
      context.parent = ex->span;
      trace_scope.emplace(std::move(context));
    }
  }

  double wait_ms = 0.0;
  {
    net::DeferredWait wait;
    if (ctx.retry != nullptr && ctx.retry->enabled()) {
      ex->response = net::QueryWithRetry(
          endpoints_[i].get(), ex->text, ctx.cancel, *ctx.retry,
          breakers_[i].get(), &ex->outcome, tracer, ex->span);
    } else {
      ex->response = endpoints_[i]->QueryCancellable(ex->text, ctx.cancel);
    }
    wait_ms = wait.millis();
  }
  trace_scope.reset();
  if (wait_ms <= 0.0) {
    Complete(ex);
    return;
  }
  timer_->Schedule(wait_ms, ctx.cancel, [this, ex](bool early) {
        if (early) {
          ex->response = ex->ctx.cancel.StatusAt(
              ("request to " + endpoints_[ex->endpoint]->id()).c_str());
        }
        if (ex->pool == nullptr) {
          Complete(ex);
        } else {
          ex->pool->Submit([this, ex] { Complete(ex); });
        }
      });
}

void Federation::Complete(const std::shared_ptr<Exchange>& ex) const {
  const std::string& endpoint_id = endpoints_[ex->endpoint]->id();
  const Result<net::QueryResponse>& response = ex->response;
  const net::RetryOutcome& outcome = ex->outcome;
  MetricsCollector* metrics = ex->ctx.metrics;
  if (metrics != nullptr) {
    metrics->RecordExchange(response.ok() ? &*response : nullptr,
                            ex->ctx.kind == RequestKind::kAsk, outcome,
                            ex->ctx.kind, ex->ctx.probe_pairs);
    // A sharded endpoint answering in partial-results mode names the
    // members it dropped; fold them into the profile's failed-endpoint
    // set so the caller sees the answer is a lower bound.
    if (response.ok()) {
      for (const std::string& member : response->degraded_members) {
        metrics->RecordEndpointDropped(member);
      }
    }
  }

  if (stats_ != nullptr) {
    obs::EndpointExchange exchange;
    exchange.success = response.ok();
    exchange.retries = static_cast<uint64_t>(outcome.retries);
    exchange.breaker_rejections =
        static_cast<uint64_t>(outcome.breaker_rejections);
    exchange.breaker_trips = static_cast<uint64_t>(outcome.breaker_trips);
    if (response.ok()) {
      exchange.latency_ms = response->network_ms + response->server_ms;
      exchange.bytes_sent = response->request_bytes;
      exchange.bytes_received = response->response_bytes;
      exchange.rows = response->RowCount();
      if (response->transport.over_network) {
        exchange.network = true;
        exchange.reused_connection = response->transport.reused_connection;
        exchange.wire_bytes_sent = response->transport.wire_bytes_sent;
        exchange.wire_bytes_received =
            response->transport.wire_bytes_received;
      }
    } else {
      exchange.timeout =
          response.status().code() == StatusCode::kTimeout;
    }
    stats_->RecordExchange(endpoint_id, exchange);
  }

  if (ex->span != 0) {
    obs::Tracer* tracer = metrics->tracer();
    const obs::SpanId span = ex->span;
    tracer->Annotate(span, "ok", response.ok());
    if (response.ok()) {
      tracer->Annotate(span, "rows",
                       static_cast<uint64_t>(response->RowCount()));
      tracer->Annotate(span, "bytes_received", response->response_bytes);
      tracer->Annotate(span, "network_ms", response->network_ms);
      if (!response->served_by.empty()) {
        tracer->Annotate(span, "replica.served_by", response->served_by);
      }
      if (response->hedged) {
        tracer->Annotate(span, "replica.hedged", true);
      }
      if (!response->degraded_members.empty()) {
        tracer->Annotate(
            span, "shard.degraded_members",
            static_cast<uint64_t>(response->degraded_members.size()));
      }
      if (response->transport.over_network) {
        const net::TransportInfo& t = response->transport;
        tracer->Annotate(span, "net.reused_connection", t.reused_connection);
        tracer->Annotate(span, "net.connect_ms", t.connect_ms);
        tracer->Annotate(span, "net.wire_bytes_sent",
                         static_cast<uint64_t>(t.wire_bytes_sent));
        tracer->Annotate(span, "net.wire_bytes_received",
                         static_cast<uint64_t>(t.wire_bytes_received));
      }
    } else {
      tracer->Annotate(span, "status", response.status().ToString());
    }
    if (outcome.retries > 0) {
      tracer->Annotate(span, "retries",
                       static_cast<int64_t>(outcome.retries));
    }
    tracer->EndSpan(span);
  }

  ex->done(std::move(ex->response));
}

Result<sparql::ResultTable> Federation::ToTable(
    Result<net::QueryResponse> response) {
  if (!response.ok()) return response.status();
  return core::DecodeIdTable(*response->ids, *response->ids_dict);
}

Result<core::IdTable> Federation::ToIds(Result<net::QueryResponse> response,
                                        core::TermDictionary* dict) {
  if (!response.ok()) return response.status();
  if (response->ids_dict.get() == dict) {
    // Fast path: the transport already interned into our dictionary;
    // the ids are the result, no string rows ever existed.
    return std::move(*response->ids);
  }
  return ToIds(*response->ids, *response->ids_dict, dict);
}

core::IdTable Federation::ToIds(const core::IdTable& ids,
                                const rdf::TermSource& terms,
                                core::TermDictionary* dict) {
  if (&terms == dict) return ids;
  // Ids of another space (an in-process endpoint's store, an HTTP client's
  // own dictionary, or another engine's): translate each distinct id once.
  return core::TranslateIds(ids, terms, dict);
}

Result<bool> Federation::NonEmpty(const Result<net::QueryResponse>& response) {
  if (!response.ok()) return response.status();
  return response->RowCount() > 0;
}

SentProbes Federation::SendProbes(ThreadPool* pool, sparql::ProbeKind kind,
                                  const std::vector<Probe>& probes,
                                  const IssueContext& ctx) const {
  SentProbes sent;
  sent.probes = probes.size();
  sent.metrics = ctx.metrics;
  std::vector<std::vector<size_t>> by_endpoint(size());
  for (size_t i = 0; i < probes.size(); ++i) {
    by_endpoint[probes[i].endpoint].push_back(i);
  }
  for (size_t ep = 0; ep < by_endpoint.size(); ++ep) {
    const size_t n = by_endpoint[ep].size();
    if (n == 0) continue;
    std::vector<std::string> bodies;
    bodies.reserve(n);
    for (size_t i : by_endpoint[ep]) bodies.push_back(probes[i].body);
    IssueContext probe_ctx = ctx;
    probe_ctx.kind = kind == sparql::ProbeKind::kAsk ? RequestKind::kAsk
                                                     : RequestKind::kProbe;
    probe_ctx.probe_pairs = n;
    sent.requests.emplace_back(
        std::move(by_endpoint[ep]),
        Issue(pool, ep, sparql::ProbeText(kind, bodies), std::move(probe_ctx),
              [kind, n](Result<net::QueryResponse> response)
                  -> Result<std::vector<uint64_t>> {
                if (!response.ok()) return response.status();
                return core::DecodeProbeIds(kind, *response->ids,
                                            *response->ids_dict, n);
              }));
  }
  return sent;
}

std::vector<Result<uint64_t>> Federation::CollectProbes(SentProbes sent) {
  std::vector<Result<uint64_t>> values(sent.probes, uint64_t{0});
  for (auto& [members, future] : sent.requests) {
    Result<std::vector<uint64_t>> answer = future.get();
    for (size_t k = 0; k < members.size(); ++k) {
      if (answer.ok()) {
        values[members[k]] = (*answer)[k];
      } else {
        values[members[k]] = answer.status();
      }
    }
  }
  if (sent.metrics != nullptr) sent.metrics->NoteWaited();
  return values;
}

Status FetchUnion(const Federation& federation, ThreadPool* pool,
                  const std::vector<int>& sources, const std::string& text,
                  core::TermDictionary* dict, const IssueContext& ctx,
                  core::IdTable* out) {
  std::vector<std::future<Result<core::IdTable>>> parts;
  parts.reserve(sources.size());
  for (int ep : sources) {
    parts.push_back(federation.Issue(
        pool, static_cast<size_t>(ep), text, ctx,
        [dict](Result<net::QueryResponse> response) {
          return Federation::ToIds(std::move(response), dict);
        }));
  }
  Status first_error;
  for (auto& part : parts) {
    Result<core::IdTable> ids = part.get();
    if (!ids.ok()) {
      if (first_error.ok()) first_error = ids.status();
      continue;
    }
    if (first_error.ok()) core::AppendUnionIds(out, *ids);
  }
  if (ctx.metrics != nullptr) ctx.metrics->NoteWaited();
  return first_error;
}

}  // namespace lusail::fed

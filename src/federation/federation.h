#ifndef LUSAIL_FEDERATION_FEDERATION_H_
#define LUSAIL_FEDERATION_FEDERATION_H_

#include <atomic>
#include <cmath>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "common/deadline_timer.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "core/id_table.h"
#include "net/endpoint.h"
#include "net/resilience.h"
#include "obs/endpoint_stats.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sparql/probe.h"
#include "sparql/result_table.h"

namespace lusail::cache {
class FederationCache;
}  // namespace lusail::cache

namespace lusail::fed {

/// Per-query cost summary a federated engine reports with its result.
/// This is the data behind the paper's figures: runtime, request counts,
/// and communication volume.
struct ExecutionProfile {
  uint64_t requests = 0;       ///< Total endpoint requests issued.
  uint64_t ask_requests = 0;   ///< Subset that were ASK probes.
  /// (pattern, endpoint) pairs answered by ASK and COUNT probes. One
  /// request carries all of an endpoint's source-selection or COUNT
  /// probes, so this logical count is what per-pair probing would send.
  uint64_t probe_pairs = 0;
  uint64_t bytes_sent = 0;     ///< Query text shipped to endpoints.
  uint64_t bytes_received = 0; ///< Serialized results received.
  uint64_t rows_received = 0;  ///< Binding rows received.
  double network_ms = 0.0;     ///< Sum of simulated per-request network time.

  /// Wall time from the collector's birth (query start) to the completion
  /// of the first subquery or bound-join response that carried at least
  /// one binding row; probe responses (ASK, GJV checks, COUNT) never
  /// count. 0 when no rows ever arrived. The federated analogue of
  /// time-to-first-row: on streamed answers it bounds how early the first
  /// batch could leave.
  double first_row_ms = 0.0;

  double source_selection_ms = 0.0;
  double analysis_ms = 0.0;    ///< Lusail's LADE phase (GJV + decomposition).
  double execution_ms = 0.0;
  double total_ms = 0.0;

  /// OPTIONAL blocks LADE pushed into endpoint subqueries (Lusail only).
  uint64_t pushed_optionals = 0;

  /// Largest number of intermediate binding rows held at once — the
  /// memory-footprint proxy of the paper's extended-version experiments.
  uint64_t peak_intermediate_rows = 0;

  // --- Fault tolerance (client-side resilience + degradation) ---

  uint64_t retries = 0;             ///< Endpoint requests retried.
  uint64_t breaker_rejections = 0;  ///< Requests refused by an open breaker.
  uint64_t breaker_trips = 0;       ///< Circuit-breaker trips this query.
  uint64_t endpoints_failed = 0;    ///< Distinct endpoints dropped.
  uint64_t subqueries_dropped = 0;  ///< Subqueries that lost every endpoint.
  uint64_t hedged_requests = 0;     ///< Requests that launched a hedge.

  /// Ids of the endpoints whose contributions were dropped (partial
  /// results mode); empty when the result is exact.
  std::vector<std::string> failed_endpoint_ids;

  /// True when any endpoint contribution was dropped: the result is a
  /// lower bound of the exact answer, not the exact answer.
  bool partial = false;

  /// The query's span trace, present only when the engine ran with
  /// tracing enabled (LusailOptions::trace or a baseline's trace flag).
  /// Export with trace->ToChromeJsonString() for chrome://tracing.
  std::shared_ptr<const obs::Trace> trace;
};

/// The profile's counters and phase timings as a JSON object (keys match
/// the field names). This is the record the benches dump per query.
obs::JsonValue ProfileToJson(const ExecutionProfile& profile);

/// What a federated request is for, as its caller declares it. Probes
/// steer the plan: kAsk is an ASK probe (source selection, single or
/// batched, and SAPE's source refinement), counted in
/// ExecutionProfile::ask_requests; kProbe is any other (GJV checks,
/// COUNT probes). Fetches (subqueries and bound
/// joins) carry answer rows, so only a fetch response stamps
/// ExecutionProfile::first_row_ms.
enum class RequestKind { kAsk, kProbe, kFetch };

/// Thread-safe accumulator for one federated query execution.
///
/// All counters live under one mutex so a reader (FillCounters, or a
/// /metrics scrape through the collector) always sees a consistent cut:
/// request counts can never lag the retry counts folded in by the same
/// exchange, because RecordExchange records both in one update.
class MetricsCollector {
 public:
  MetricsCollector() = default;
  MetricsCollector(const MetricsCollector&) = delete;
  MetricsCollector& operator=(const MetricsCollector&) = delete;

  /// Folds one endpoint exchange — the response (when the request
  /// produced one) and its retry-loop accounting — into the totals as a
  /// single atomic update. `response` may be null for requests that
  /// failed without a response; `probe_pairs` counts only with one.
  void RecordExchange(const net::QueryResponse* response, bool is_ask,
                      const net::RetryOutcome& outcome,
                      RequestKind kind = RequestKind::kProbe,
                      uint64_t probe_pairs = 0) {
    std::lock_guard<std::mutex> lock(mu_);
    if (response != nullptr) {
      AddResponseLocked(*response, is_ask, kind);
      probe_pairs_ += probe_pairs;
    }
    retries_ += outcome.retries;
    breaker_rejections_ += outcome.breaker_rejections;
    breaker_trips_ += outcome.breaker_trips;
  }

  /// Records that `endpoint_id`'s contribution was dropped from a
  /// subquery union (partial-results degradation).
  void RecordEndpointDropped(const std::string& endpoint_id) {
    std::lock_guard<std::mutex> lock(mu_);
    dropped_endpoints_.insert(endpoint_id);
  }

  /// Records a subquery that lost *all* of its endpoints.
  void RecordSubqueryDropped() {
    std::lock_guard<std::mutex> lock(mu_);
    ++subqueries_dropped_;
  }

  // --- Tracing (optional; engines attach a tracer per traced query) ---

  /// Attaches a tracer; every Federation request accounted through this
  /// collector then emits a "request" span. Non-owning; the tracer must
  /// outlive the query.
  void SetTracer(obs::Tracer* tracer) {
    tracer_.store(tracer, std::memory_order_release);
  }
  obs::Tracer* tracer() const {
    return tracer_.load(std::memory_order_acquire);
  }

  /// Shared ownership of the same tracer, for components that may hold a
  /// reference past the query frame (detached hedge losers grafting a
  /// late server subtree). Set alongside SetTracer when the owner keeps
  /// the tracer in a shared_ptr; empty otherwise.
  void SetTracerShared(std::shared_ptr<obs::Tracer> tracer) {
    std::lock_guard<std::mutex> lock(tracer_mu_);
    shared_tracer_ = std::move(tracer);
  }
  std::shared_ptr<obs::Tracer> shared_tracer() const {
    std::lock_guard<std::mutex> lock(tracer_mu_);
    return shared_tracer_;
  }

  /// The span new request spans are parented to when the call site does
  /// not pass an explicit parent. Engines point this at the currently
  /// running phase span (PhaseSpan maintains it automatically).
  void SetTraceParent(obs::SpanId span) {
    trace_parent_.store(span, std::memory_order_release);
  }
  obs::SpanId trace_parent() const {
    return trace_parent_.load(std::memory_order_acquire);
  }

  /// Copies the counters into a profile (phase timings are the caller's)
  /// as one consistent snapshot.
  void FillCounters(ExecutionProfile* profile) const {
    std::lock_guard<std::mutex> lock(mu_);
    profile->requests = requests_;
    profile->ask_requests = ask_requests_;
    profile->probe_pairs = probe_pairs_;
    profile->bytes_sent = bytes_sent_;
    profile->bytes_received = bytes_received_;
    profile->rows_received = rows_received_;
    profile->network_ms = static_cast<double>(network_us_) / 1000.0;
    profile->first_row_ms = first_row_ms_;
    profile->retries = retries_;
    profile->breaker_rejections = breaker_rejections_;
    profile->breaker_trips = breaker_trips_;
    profile->subqueries_dropped = subqueries_dropped_;
    profile->hedged_requests = hedged_requests_;
    profile->failed_endpoint_ids.assign(dropped_endpoints_.begin(),
                                        dropped_endpoints_.end());
    profile->endpoints_failed = profile->failed_endpoint_ids.size();
    profile->partial =
        profile->endpoints_failed > 0 || profile->subqueries_dropped > 0;
  }

 private:
  void AddResponseLocked(const net::QueryResponse& response, bool is_ask,
                         RequestKind kind) {
    ++requests_;
    if (is_ask) ++ask_requests_;
    bytes_sent_ += response.request_bytes;
    bytes_received_ += response.response_bytes;
    rows_received_ += response.RowCount();
    if (kind == RequestKind::kFetch && first_row_ms_ == 0.0 &&
        response.RowCount() > 0) {
      first_row_ms_ = born_.ElapsedMillis();
    }
    // Round to the nearest microsecond instead of truncating: a
    // truncating cast floors every request's network time, so workloads
    // of many sub-microsecond requests would report ~0 network time.
    network_us_ +=
        static_cast<uint64_t>(std::llround(response.network_ms * 1000.0));
    if (response.hedged) ++hedged_requests_;
  }

  mutable std::mutex mu_;
  uint64_t requests_ = 0;
  uint64_t ask_requests_ = 0;
  uint64_t probe_pairs_ = 0;
  uint64_t bytes_sent_ = 0;
  uint64_t bytes_received_ = 0;
  uint64_t rows_received_ = 0;
  uint64_t network_us_ = 0;
  Stopwatch born_;  ///< Started at construction = query start.
  double first_row_ms_ = 0.0;
  uint64_t retries_ = 0;
  uint64_t breaker_rejections_ = 0;
  uint64_t breaker_trips_ = 0;
  uint64_t subqueries_dropped_ = 0;
  uint64_t hedged_requests_ = 0;
  std::set<std::string> dropped_endpoints_;
  std::atomic<obs::Tracer*> tracer_{nullptr};
  mutable std::mutex tracer_mu_;
  std::shared_ptr<obs::Tracer> shared_tracer_;
  std::atomic<obs::SpanId> trace_parent_{0};
};

/// RAII phase span tied to a MetricsCollector: opens a "phase" span under
/// the collector's current trace parent, makes itself the parent for
/// requests issued while alive, and restores the previous parent on
/// destruction. A no-op when the collector has no tracer, so engines can
/// scope their phases unconditionally.
class PhaseSpan {
 public:
  PhaseSpan(MetricsCollector* metrics, const std::string& name)
      : metrics_(metrics) {
    obs::Tracer* tracer =
        metrics_ != nullptr ? metrics_->tracer() : nullptr;
    if (tracer == nullptr) return;
    prev_ = metrics_->trace_parent();
    span_ = tracer->StartSpan(name, "phase", prev_);
    metrics_->SetTraceParent(span_);
  }
  PhaseSpan(const PhaseSpan&) = delete;
  PhaseSpan& operator=(const PhaseSpan&) = delete;
  ~PhaseSpan() { End(); }

  void End() {
    if (span_ == 0) return;
    metrics_->SetTraceParent(prev_);
    metrics_->tracer()->EndSpan(span_);
    span_ = 0;
  }

  template <typename V>
  void Annotate(std::string key, V value) {
    if (span_ != 0) {
      metrics_->tracer()->Annotate(span_, std::move(key), value);
    }
  }

  obs::SpanId id() const { return span_; }

 private:
  MetricsCollector* metrics_ = nullptr;
  obs::SpanId span_ = 0;
  obs::SpanId prev_ = 0;
};

/// Per-query tracing harness shared by all engines: when `enabled`, owns
/// the tracer (shared, so detached hedge losers can finish grafting a
/// late server subtree after the query frame unwinds), generates the
/// query's 128-bit trace id, opens the root "query" span, and registers
/// the tracer with the metrics collector. Attach() closes the root span
/// and hands the finished trace to the profile.
class QueryTrace {
 public:
  QueryTrace(bool enabled, const std::string& engine_name,
             MetricsCollector* metrics);
  QueryTrace(const QueryTrace&) = delete;
  QueryTrace& operator=(const QueryTrace&) = delete;
  ~QueryTrace() {
    // Detach before the tracer dies (the collector outlives this guard
    // only within the engine's Execute frame, but stay defensive).
    if (tracer_ != nullptr && metrics_ != nullptr) {
      metrics_->SetTracer(nullptr);
      metrics_->SetTracerShared(nullptr);
    }
  }

  bool enabled() const { return tracer_ != nullptr; }
  obs::Tracer* tracer() const { return tracer_.get(); }
  obs::SpanId root() const { return root_; }

  /// Ends the root span and attaches the finished trace to `profile`.
  void Attach(ExecutionProfile* profile) {
    if (tracer_ == nullptr) return;
    tracer_->EndSpan(root_);
    profile->trace = std::make_shared<const obs::Trace>(tracer_->Snapshot());
  }

 private:
  MetricsCollector* metrics_ = nullptr;
  std::shared_ptr<obs::Tracer> tracer_;
  obs::SpanId root_ = 0;
};

/// How Federation::Issue sends and accounts one request.
struct IssueContext {
  /// Accounting target (counters, tracer); may be null.
  MetricsCollector* metrics = nullptr;
  /// Reaches the request in flight and ends a pending wait early.
  CancelToken cancel;
  /// Retry policy; null or disabled means one attempt.
  const net::RetryPolicy* retry = nullptr;
  /// Parent of the "request" span; 0 means the collector's current one.
  obs::SpanId trace_parent = 0;
  RequestKind kind = RequestKind::kProbe;
  /// (pattern, endpoint) pairs an ASK or COUNT probe request answers.
  uint64_t probe_pairs = 0;
  /// Once fired, a request that has not been sent yet is skipped: nothing
  /// is sent or accounted, and on_response gets cutoff.StatusAt(...).
  /// SAPE's LIMIT row budget uses it; requests already sent still land.
  CancelToken cutoff;
};

/// One (pattern, endpoint) probe: its group body (sparql::ProbeBody) and
/// the endpoint index it asks.
struct Probe {
  size_t endpoint = 0;
  std::string body;
};

/// The registry of endpoints a federated query runs against, plus the
/// request path every engine uses (with per-query accounting and
/// cooperative deadline checks).
class Federation {
 public:
  Federation() = default;

  /// Registers an endpoint; returns its index. A circuit breaker is
  /// created alongside it (engaged only by retry-policy executions).
  size_t Add(std::shared_ptr<net::Endpoint> endpoint);

  size_t size() const { return endpoints_.size(); }

  net::Endpoint* endpoint(size_t i) const { return endpoints_[i].get(); }
  const std::string& id(size_t i) const { return endpoints_[i]->id(); }

  /// Replaces every endpoint's circuit breaker with a fresh one using
  /// `config` (also applied to endpoints added later).
  void ConfigureBreakers(const net::CircuitBreakerConfig& config);

  /// The circuit breaker guarding endpoint `i`. Shared by all engines on
  /// this federation — endpoint health is a property of the endpoint,
  /// not of any one client.
  net::CircuitBreaker* breaker(size_t i) const { return breakers_[i].get(); }

  /// Attaches a cross-query telemetry registry: every request issued
  /// through this federation (by any engine) is then accounted per
  /// endpoint — latency histogram, error/retry/breaker counters, byte
  /// volumes. Non-owning; pass nullptr to detach.
  void set_stats_registry(obs::EndpointStatsRegistry* registry) {
    stats_ = registry;
  }
  obs::EndpointStatsRegistry* stats_registry() const { return stats_; }

  /// Attaches a cross-query cache shared by every engine on this
  /// federation: ASK/check-query verdicts, COUNT-probe cardinalities,
  /// and (opt-in per engine) subquery result tables. Non-owning; pass
  /// nullptr to detach.
  void set_query_cache(cache::FederationCache* cache) {
    query_cache_ = cache;
  }
  cache::FederationCache* query_cache() const { return query_cache_; }

  /// Scrape-time telemetry of the federation: each endpoint's own
  /// (net::Endpoint::ExportMetrics, which walks its decorators), the
  /// state and trips of the breaker guarding each endpoint
  /// ({endpoint=<id>}) and the attached query cache's. An attached stats
  /// registry exports itself (EndpointStatsRegistry::ExportMetrics).
  void ExportMetrics(obs::MetricsSnapshot* snapshot) const;

  /// Issues `text` at endpoint `i` and returns a future for
  /// `on_response(response)`. This is the one request path of every
  /// engine. It splits the request into its CPU part and its wait:
  /// - the endpoint chain runs on `pool` under a net::DeferredWait scope,
  ///   so a simulated endpoint's network wait is collected, not slept;
  /// - the response then completes on this federation's timer thread at
  ///   its arrival time, or earlier with ctx.cancel's kTimeout status if
  ///   the token fires first;
  /// - accounting and `on_response` (the caller's decode, encode and
  ///   cache puts) run back on `pool`.
  /// A request with nothing to wait for (HTTP, sleep_scale 0, a failure)
  /// completes on the pool thread that sent it; an HTTP client lends that
  /// thread's CPU slot while it waits (ThreadPool::Blocking), so the
  /// pool's other requests go out meanwhile. With a null `pool`, each
  /// CPU step runs on the thread that reaches it: the caller, then the
  /// timer. Every returned future must be consumed before `pool`, the
  /// metrics collector, or anything `on_response` touches goes away.
  ///
  /// The endpoint sees the request through Endpoint::QueryCancellable,
  /// so `ctx.cancel` (its deadline and any explicit cancel) reaches it in
  /// flight; a token that has fired before the request is sent fails it
  /// with kTimeout. With a `ctx.retry` whose policy is enabled, retryable
  /// failures are retried with backoff under the endpoint's circuit
  /// breaker, never sleeping past the token's deadline.
  ///
  /// The exchange is accounted into `ctx.metrics` (when non-null) and the
  /// stats registry at completion, so both include the wait. When the
  /// collector carries a tracer, the exchange is a "request" span from
  /// send to completion, parented to `ctx.trace_parent` when non-zero,
  /// else to the collector's current default parent, with retry attempts
  /// and breaker rejections as child spans.
  template <typename Fn>
  auto Issue(ThreadPool* pool, size_t i, std::string text, IssueContext ctx,
             Fn on_response) const
      -> std::future<std::invoke_result_t<Fn&, Result<net::QueryResponse>>> {
    using R = std::invoke_result_t<Fn&, Result<net::QueryResponse>>;
    auto promise = std::make_shared<std::promise<R>>();
    std::future<R> future = promise->get_future();
    Start(pool, i, std::move(text), std::move(ctx),
          [promise, fn = std::move(on_response)](
              Result<net::QueryResponse> response) mutable {
            promise->set_value(fn(std::move(response)));
          });
    return future;
  }

  // --- Response decoders for Issue's on_response ---

  /// The response as a string table; ids are decoded through the
  /// dictionary that minted them.
  static Result<sparql::ResultTable> ToTable(
      Result<net::QueryResponse> response);

  /// The response as a core::IdTable in `dict`'s id space. When the
  /// endpoint parses straight into this dictionary
  /// (HttpSparqlEndpoint::set_parse_dictionary), the ids are moved out
  /// untouched; ids of any other space (an in-process endpoint's store
  /// ids, an HTTP client's own or another engine's dictionary) go through
  /// core::TranslateIds, each distinct id interned once.
  static Result<core::IdTable> ToIds(Result<net::QueryResponse> response,
                                     core::TermDictionary* dict);

  /// `ids`, minted by `terms`, in `dict`'s id space, leaving `ids` intact
  /// (a table the result cache shares): a copy when `terms` is `dict`,
  /// core::TranslateIds otherwise.
  static core::IdTable ToIds(const core::IdTable& ids,
                             const rdf::TermSource& terms,
                             core::TermDictionary* dict);

  /// True iff the response carries a row: an ASK verdict, or a locality
  /// check that found a witness.
  static Result<bool> NonEmpty(const Result<net::QueryResponse>& response);

  /// Sends `probes` as one request per endpoint: that endpoint's bodies,
  /// in `probes` order, as sparql::ProbeText(kind, ...). Each request goes
  /// through Issue under `ctx`, declared as an ASK (kAsk) or other probe
  /// with its pair count. Waits for every request and returns each
  /// probe's value (see sparql::DecodeProbeAnswer), or the status of its
  /// endpoint's failed request.
  std::vector<Result<uint64_t>> RunProbes(ThreadPool* pool,
                                          sparql::ProbeKind kind,
                                          const std::vector<Probe>& probes,
                                          const IssueContext& ctx) const;

 private:
  /// One request from send to completion.
  struct Exchange;
  using Completion = std::function<void(Result<net::QueryResponse>)>;

  /// Issue's untyped body: hands the CPU part to `pool` (or runs it).
  void Start(ThreadPool* pool, size_t i, std::string text, IssueContext ctx,
             Completion done) const;
  /// The CPU part: runs the endpoint chain under a DeferredWait scope,
  /// then completes at once or schedules the wait on the timer.
  void Send(const std::shared_ptr<Exchange>& ex) const;
  /// Accounting, the end of the span, then the caller's continuation.
  void Complete(const std::shared_ptr<Exchange>& ex) const;

  std::vector<std::shared_ptr<net::Endpoint>> endpoints_;
  std::vector<std::unique_ptr<net::CircuitBreaker>> breakers_;
  net::CircuitBreakerConfig breaker_config_;
  obs::EndpointStatsRegistry* stats_ = nullptr;
  cache::FederationCache* query_cache_ = nullptr;
  /// Completes deferred waits. Declared last so it drains before the
  /// members its callbacks read are destroyed.
  std::unique_ptr<DeadlineTimer> timer_ = std::make_unique<DeadlineTimer>();
};

/// Issues `text` at every endpoint in `sources` at once through `pool`
/// and appends the answers to `out` in `dict`'s id space, in `sources`
/// order (the baselines' fetch step). Waits for every response; the
/// first failure in that order is returned.
Status FetchUnion(const Federation& federation, ThreadPool* pool,
                  const std::vector<int>& sources, const std::string& text,
                  core::TermDictionary* dict, const IssueContext& ctx,
                  core::IdTable* out);

/// Result of a federated query: the final table plus the cost profile.
struct FederatedResult {
  sparql::ResultTable table;
  ExecutionProfile profile;
};

/// Common interface of Lusail and the baseline engines.
class FederatedEngine {
 public:
  virtual ~FederatedEngine() = default;

  /// Engine name for benchmark reports ("Lusail", "FedX", ...).
  virtual std::string name() const = 0;

  /// Executes a federated SPARQL query under `cancel`: the token (its
  /// deadline and any explicit cancel) is handed to every endpoint
  /// request, and the query unwinds with kTimeout once it fires.
  virtual Result<FederatedResult> Execute(const std::string& sparql_text,
                                          const CancelToken& cancel) = 0;

  /// Executes within `deadline`.
  Result<FederatedResult> Execute(const std::string& sparql_text,
                                  const Deadline& deadline) {
    return Execute(sparql_text, CancelToken(deadline));
  }

  /// Executes with no deadline.
  Result<FederatedResult> Execute(const std::string& sparql_text) {
    return Execute(sparql_text, CancelToken());
  }
};

}  // namespace lusail::fed

#endif  // LUSAIL_FEDERATION_FEDERATION_H_

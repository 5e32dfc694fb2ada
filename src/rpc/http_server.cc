#include "rpc/http_server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <utility>

#include "common/stopwatch.h"
#include "common/string_util.h"
#include "core/id_table.h"
#include "obs/trace.h"
#include "obs/trace_context.h"
#include "rpc/results_json.h"

namespace lusail::rpc {

namespace {

void SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

HttpResponse JsonResponse(int status, obs::JsonValue body) {
  HttpResponse response;
  response.status = status;
  response.reason = HttpReason(status);
  response.SetHeader("Content-Type", "application/json");
  response.body = body.Serialize();
  return response;
}

HttpResponse ErrorResponse(int status, StatusCode code,
                           const std::string& message) {
  obs::JsonValue body = obs::JsonValue::Object();
  body.Set("code", StatusCodeToString(code));
  body.Set("error", message);
  return JsonResponse(status, std::move(body));
}

/// How long a worker waits for the next request on an idle keep-alive
/// connection before handing it back to the pool. Bounds the scheduling
/// latency a pending connection sees when every worker is probing an
/// idle one (a few slices at worst), while keeping the re-queue churn
/// of a fully idle server to ~40 task hops per connection per second.
constexpr int kIdlePollSliceMs = 25;

/// How often the watchdog probes in-flight connections for disconnect.
/// Bounds how long an abandoned evaluation can outlive its client; kept
/// well under the 150 ms abandonment budget the e2e tests assert.
constexpr int kDisconnectProbeMs = 20;

}  // namespace

int HttpStatusForCode(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return 200;
    case StatusCode::kParseError:
    case StatusCode::kInvalidArgument: return 400;
    case StatusCode::kNotFound: return 404;
    case StatusCode::kTimeout: return 504;
    case StatusCode::kUnsupported: return 501;
    case StatusCode::kUnavailable: return 503;
    case StatusCode::kInternal: return 500;
  }
  return 500;
}

StatusCode CodeForHttpStatus(int http_status, const std::string& code_name) {
  // Prefer the exact code the server put in the error body so statuses
  // survive the wire unchanged (retryability in particular).
  static constexpr StatusCode kAll[] = {
      StatusCode::kInvalidArgument, StatusCode::kNotFound,
      StatusCode::kParseError,      StatusCode::kTimeout,
      StatusCode::kUnsupported,     StatusCode::kInternal,
      StatusCode::kUnavailable,
  };
  for (StatusCode code : kAll) {
    if (code_name == StatusCodeToString(code)) return code;
  }
  switch (http_status) {
    case 400: return StatusCode::kInvalidArgument;
    case 404: return StatusCode::kNotFound;
    case 408:
    case 504: return StatusCode::kTimeout;
    case 501: return StatusCode::kUnsupported;
    case 413: return StatusCode::kInvalidArgument;
    case 429:
    case 502:
    case 503: return StatusCode::kUnavailable;
    default: return StatusCode::kInternal;
  }
}

HttpServer::HttpServer(std::shared_ptr<net::Endpoint> endpoint,
                       HttpServerOptions options)
    : endpoint_(std::move(endpoint)), options_(std::move(options)) {
  if (options_.server_name.empty()) {
    options_.server_name = endpoint_ != nullptr ? endpoint_->id() : "server";
  }
}

HttpServer::~HttpServer() { Stop(); }

Status HttpServer::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::InvalidArgument("server already running");
  }
  stopping_.store(false, std::memory_order_release);

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Unavailable(std::string("socket() failed: ") +
                               std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad bind address \"" +
                                   options_.bind_address + "\"");
  }
  if (::bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    Status status = Status::Unavailable(
        "bind(" + options_.bind_address + ":" +
        std::to_string(options_.port) + ") failed: " + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  if (::listen(listen_fd_, options_.backlog) != 0) {
    Status status = Status::Unavailable(std::string("listen() failed: ") +
                                        std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
                    &len) == 0) {
    port_ = ntohs(addr.sin_port);
  }

  workers_ = std::make_unique<ThreadPool>(options_.num_threads);
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  watchdog_thread_ = std::thread([this] { WatchLoop(); });
  return Status::OK();
}

void HttpServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stopping_.store(true, std::memory_order_release);

  // Unblock accept() and stop new connections.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }

  // Graceful connection drain: shutting down the *read* side makes every
  // idle keep-alive read return EOF immediately while in-flight responses
  // still write out. Handlers then close their fds and unregister.
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (int fd : active_fds_) ::shutdown(fd, SHUT_RD);
  }
  // Fire every in-flight evaluation's token so the drain is bounded by
  // the cancellation granularity, not by full query evaluation time.
  {
    std::lock_guard<std::mutex> lock(watch_mu_);
    for (auto& [fd, token] : in_flight_) token.Cancel();
  }
  watch_cv_.notify_all();
  if (watchdog_thread_.joinable()) watchdog_thread_.join();
  {
    std::unique_lock<std::mutex> lock(conn_mu_);
    conn_drained_.wait(lock, [this] { return active_fds_.empty(); });
  }
  workers_.reset();  // Drains remaining (already-finished) tasks.
}

std::string HttpServer::url() const {
  return "http://" + options_.bind_address + ":" + std::to_string(port_) +
         "/sparql";
}

HttpServerStats HttpServer::stats() const {
  HttpServerStats s;
  s.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  s.requests = requests_.load(std::memory_order_relaxed);
  s.bad_requests = bad_requests_.load(std::memory_order_relaxed);
  s.failed_queries = failed_queries_.load(std::memory_order_relaxed);
  s.truncated_results = truncated_results_.load(std::memory_order_relaxed);
  s.timed_out_queries = timed_out_queries_.load(std::memory_order_relaxed);
  s.cancelled_queries = cancelled_queries_.load(std::memory_order_relaxed);
  s.streamed_requests = streamed_requests_.load(std::memory_order_relaxed);
  s.stream_aborts = stream_aborts_.load(std::memory_order_relaxed);
  s.bytes_in = bytes_in_.load(std::memory_order_relaxed);
  s.bytes_out = bytes_out_.load(std::memory_order_relaxed);
  return s;
}

void HttpServer::ExportMetrics(obs::MetricsSnapshot* snapshot) const {
  HttpServerStats s = stats();
  obs::MetricLabels labels{{"server", options_.server_name}};
  snapshot->AddCounter("lusail_rpc_connections_accepted_total",
                       "TCP connections accepted.", labels,
                       static_cast<double>(s.connections_accepted));
  snapshot->AddCounter("lusail_rpc_requests_total",
                       "Well-formed SPARQL requests handled.", labels,
                       static_cast<double>(s.requests));
  snapshot->AddCounter("lusail_rpc_bad_requests_total",
                       "Requests answered 4xx (malformed, wrong route).",
                       labels, static_cast<double>(s.bad_requests));
  snapshot->AddCounter("lusail_rpc_failed_queries_total",
                       "Endpoint evaluations that failed.", labels,
                       static_cast<double>(s.failed_queries));
  snapshot->AddCounter("lusail_rpc_truncated_results_total",
                       "Responses cut at the row cap.", labels,
                       static_cast<double>(s.truncated_results));
  snapshot->AddCounter("lusail_rpc_timed_out_queries_total",
                       "Evaluations abandoned on deadline expiry.", labels,
                       static_cast<double>(s.timed_out_queries));
  snapshot->AddCounter("lusail_rpc_cancelled_queries_total",
                       "Evaluations cancelled (disconnect or shutdown).",
                       labels, static_cast<double>(s.cancelled_queries));
  snapshot->AddCounter("lusail_rpc_streamed_requests_total",
                       "Responses sent with chunked transfer encoding.",
                       labels, static_cast<double>(s.streamed_requests));
  snapshot->AddCounter("lusail_rpc_stream_aborts_total",
                       "Streams cut after the response head was sent.",
                       labels, static_cast<double>(s.stream_aborts));
  {
    std::lock_guard<std::mutex> lock(first_row_mu_);
    snapshot->AddHistogram("lusail_rpc_first_row_ms",
                           "Latency to the first streamed result row.",
                           labels, first_row_ms_);
  }
  snapshot->AddCounter("lusail_rpc_bytes_in_total",
                       "Wire bytes read, headers included.", labels,
                       static_cast<double>(s.bytes_in));
  snapshot->AddCounter("lusail_rpc_bytes_out_total",
                       "Wire bytes written, headers included.", labels,
                       static_cast<double>(s.bytes_out));
}

obs::MetricsSnapshot HttpServer::CollectMetrics() const {
  obs::MetricsSnapshot snapshot;
  ExportMetrics(&snapshot);
  if (endpoint_ != nullptr) endpoint_->ExportMetrics(&snapshot);
  if (options_.metrics != nullptr) options_.metrics->CollectInto(&snapshot);
  return snapshot;
}

void HttpServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // Closed or shut down: exit. (Transient EMFILE etc. also lands
      // here; a demo server need not distinguish.)
      if (stopping_.load(std::memory_order_acquire)) break;
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == ECONNABORTED) {
        continue;
      }
      break;
    }
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    SetNonBlocking(fd);
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      active_fds_.insert(fd);
    }
    auto conn = std::make_shared<ConnState>(fd);
    workers_->Submit([this, conn] { ServeConnection(conn); });
  }
}

struct HttpServer::ConnState {
  explicit ConnState(int fd) : http(fd) {}
  HttpConnection http;
  /// Time since the connection was accepted or last finished a request;
  /// compared against idle_timeout_ms across re-queues.
  Stopwatch idle;
};

void HttpServer::ServeConnection(std::shared_ptr<ConnState> conn) {
  const int fd = conn->http.fd();
  while (!stopping_.load(std::memory_order_acquire)) {
    // Wait for the next request in short poll slices. If none arrives
    // within a slice, yield: re-queue this connection and free the
    // worker, so open keep-alive connections never pin more than one
    // worker each while they actually have traffic. (Pipelined bytes
    // already buffered skip the poll — poll() can't see them.)
    if (!conn->http.HasBufferedData()) {
      struct pollfd pfd;
      pfd.fd = fd;
      pfd.events = POLLIN;
      pfd.revents = 0;
      int ready = ::poll(&pfd, 1, kIdlePollSliceMs);
      if (ready < 0 && errno == EINTR) continue;
      if (ready == 0) {
        if (conn->idle.ElapsedMillis() >= options_.idle_timeout_ms) break;
        if (stopping_.load(std::memory_order_acquire)) break;
        workers_->Submit([this, conn] { ServeConnection(conn); });
        return;  // Worker freed; the connection stays in active_fds_.
      }
      // ready > 0 (data, EOF, or error) and poll errors both fall
      // through to ReadRequest, which classifies them properly.
    }
    bool clean_close = false;
    Result<HttpRequest> request = conn->http.ReadRequest(
        options_.limits, Deadline::AfterMillis(options_.request_timeout_ms),
        &clean_close);
    if (!request.ok()) {
      if (!clean_close && (request.status().code() == StatusCode::kParseError ||
                           request.status().code() ==
                               StatusCode::kInvalidArgument)) {
        bad_requests_.fetch_add(1, std::memory_order_relaxed);
        int http_status =
            request.status().code() == StatusCode::kInvalidArgument ? 413
                                                                    : 400;
        HttpResponse response = ErrorResponse(
            http_status, request.status().code(), request.status().message());
        response.SetHeader("Connection", "close");
        std::string wire = response.Serialize();
        if (SendAll(fd, wire,
                    Deadline::AfterMillis(options_.request_timeout_ms))
                .ok()) {
          bytes_out_.fetch_add(wire.size(), std::memory_order_relaxed);
        }
      }
      break;  // Timeout, close, or connection error: drop the connection.
    }

    StreamOutcome stream;
    HttpResponse response = Handle(*request, fd, &stream);
    bool keep_alive = request->KeepAlive() &&
                      !stopping_.load(std::memory_order_acquire);
    if (stream.streamed) {
      // The handler wrote the response itself (chunked streaming) and
      // accounted its own bytes_out. A cleanly finished stream keeps the
      // connection; an aborted one is closed so the client sees the
      // missing terminal chunk as truncation.
      if (!stream.keep_alive_ok || !keep_alive) break;
      conn->idle = Stopwatch();
      continue;
    }
    if (!keep_alive) response.SetHeader("Connection", "close");
    std::string wire = response.Serialize();
    Status sent = SendAll(
        fd, wire, Deadline::AfterMillis(options_.request_timeout_ms));
    if (!sent.ok()) break;
    bytes_out_.fetch_add(wire.size(), std::memory_order_relaxed);
    if (!keep_alive) break;
    conn->idle = Stopwatch();  // Request served: restart the idle clock.
  }
  bytes_in_.fetch_add(conn->http.bytes_read(), std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    active_fds_.erase(fd);
    ::close(fd);
  }
  conn_drained_.notify_all();
}

void HttpServer::WatchLoop() {
  // Probe every connection with an in-flight evaluation for disconnect:
  // MSG_PEEK|MSG_DONTWAIT returns 0 on EOF (client closed or Stop()'s
  // SHUT_RD) and an error on reset — both mean nobody is waiting for the
  // response, so fire the token. Readable pipelined bytes (n > 0) and
  // EAGAIN (quiet but open) leave the evaluation alone.
  std::unique_lock<std::mutex> lock(watch_mu_);
  while (!stopping_.load(std::memory_order_acquire)) {
    for (auto& [fd, token] : in_flight_) {
      char probe;
      ssize_t n = ::recv(fd, &probe, 1, MSG_PEEK | MSG_DONTWAIT);
      if (n == 0 ||
          (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
           errno != EINTR)) {
        token.Cancel();
      }
    }
    watch_cv_.wait_for(lock, std::chrono::milliseconds(kDisconnectProbeMs));
  }
}

HttpResponse HttpServer::Handle(const HttpRequest& request, int fd,
                                StreamOutcome* stream) {
  // Split "?n=..." style query strings off the route.
  std::string_view target(request.target);
  std::string_view query_string;
  size_t qmark = target.find('?');
  if (qmark != std::string_view::npos) {
    query_string = target.substr(qmark + 1);
    target = target.substr(0, qmark);
  }
  if (target == "/sparql") {
    if (request.method != "POST") {
      bad_requests_.fetch_add(1, std::memory_order_relaxed);
      HttpResponse response = ErrorResponse(
          405, StatusCode::kInvalidArgument,
          "SPARQL protocol endpoint only accepts POST");
      response.SetHeader("Allow", "POST");
      return response;
    }
    if (endpoint_ == nullptr) {
      failed_queries_.fetch_add(1, std::memory_order_relaxed);
      return ErrorResponse(503, StatusCode::kUnavailable,
                           "no endpoint behind this listener");
    }
    return HandleSparql(request, fd, stream);
  }
  if (target == "/health" && request.method == "GET") {
    obs::JsonValue body = obs::JsonValue::Object();
    bool healthy = true;
    if (options_.health_probe) {
      healthy = options_.health_probe(&body);
    }
    body.Set("ok", healthy);
    body.Set("endpoint", endpoint_id());
    return JsonResponse(healthy ? 200 : 503, std::move(body));
  }
  if (target == "/stats" && request.method == "GET") {
    obs::JsonValue body = obs::JsonValue::Object();
    body.Set("endpoint", endpoint_id());
    body.Set("metrics", CollectMetrics().ToJson());
    return JsonResponse(200, std::move(body));
  }
  if (target == "/metrics" && request.method == "GET") {
    HttpResponse response;
    response.status = 200;
    response.reason = "OK";
    response.SetHeader("Content-Type",
                       "text/plain; version=0.0.4; charset=utf-8");
    response.body = CollectMetrics().RenderPrometheus();
    return response;
  }
  if (target == "/debug/queries" && request.method == "GET") {
    if (options_.flight_recorder == nullptr) {
      return ErrorResponse(404, StatusCode::kNotFound,
                           "no flight recorder on this server");
    }
    size_t n = 0;  // 0 = everything buffered.
    size_t npos = query_string.find("n=");
    if (npos != std::string_view::npos &&
        (npos == 0 || query_string[npos - 1] == '&')) {
      n = static_cast<size_t>(
          std::strtoull(std::string(query_string.substr(npos + 2)).c_str(),
                        nullptr, 10));
    }
    return JsonResponse(200, options_.flight_recorder->ToJson(n));
  }
  bad_requests_.fetch_add(1, std::memory_order_relaxed);
  return ErrorResponse(404, StatusCode::kNotFound,
                       "no route for " + request.method + " " +
                           request.target);
}

HttpResponse HttpServer::HandleSparql(const HttpRequest& request, int fd,
                                      StreamOutcome* stream) {
  // Extract the query text per the SPARQL 1.1 Protocol subset we speak:
  // a direct application/sparql-query body, or form-encoded query=.
  std::string query_text;
  const std::string* content_type = request.FindHeader("Content-Type");
  std::string_view media = content_type == nullptr
                               ? std::string_view("application/sparql-query")
                               : std::string_view(*content_type);
  // Drop any ";charset=..." parameter.
  size_t semi = media.find(';');
  if (semi != std::string_view::npos) {
    media = StripWhitespace(media.substr(0, semi));
  }
  if (EqualsIgnoreCase(media, "application/sparql-query")) {
    query_text = request.body;
  } else if (EqualsIgnoreCase(media, "application/x-www-form-urlencoded")) {
    Result<std::string> field = FormField(request.body, "query");
    if (!field.ok()) {
      bad_requests_.fetch_add(1, std::memory_order_relaxed);
      return ErrorResponse(400, StatusCode::kInvalidArgument,
                           "form body carries no query= field");
    }
    query_text = std::move(field).value();
  } else {
    bad_requests_.fetch_add(1, std::memory_order_relaxed);
    return ErrorResponse(415, StatusCode::kInvalidArgument,
                         "unsupported media type \"" + std::string(media) +
                             "\"");
  }
  if (query_text.empty()) {
    bad_requests_.fetch_add(1, std::memory_order_relaxed);
    return ErrorResponse(400, StatusCode::kInvalidArgument, "empty query");
  }

  requests_.fetch_add(1, std::memory_order_relaxed);

  // Adopt the client's trace identity: a request carrying either trace
  // header gets a per-request tracer whose span subtree ships back in
  // X-Lusail-Trace, letting the federator merge both processes into one
  // trace. A malformed trace id falls back to a locally generated one so
  // the server subtree is still internally consistent.
  std::shared_ptr<obs::Tracer> tracer;
  std::string trace_id;
  obs::SpanId serve_span = 0;
  const std::string* trace_id_header = request.FindHeader("X-Lusail-Trace-Id");
  const std::string* parent_header = request.FindHeader("X-Lusail-Parent-Span");
  if (trace_id_header != nullptr || parent_header != nullptr) {
    trace_id =
        trace_id_header != nullptr && obs::IsValidTraceId(*trace_id_header)
            ? *trace_id_header
            : obs::GenerateTraceId();
    tracer = std::make_shared<obs::Tracer>();
    tracer->set_trace_id(trace_id);
    tracer->RegisterProcess(static_cast<uint64_t>(::getpid()),
                            "endpointd/" + options_.server_name);
    serve_span = tracer->StartSpan("serve " + options_.server_name, "server");
    tracer->Annotate(serve_span, "trace_id", trace_id);
    if (parent_header != nullptr) {
      // The parent span id lives in the *client's* id space; recorded as
      // an annotation for debugging. Graft() on the client side does the
      // actual re-parenting.
      tracer->Annotate(serve_span, "client_parent_span", *parent_header);
    }
  }

  Stopwatch request_timer;

  // Common exit: closes the serve span, attaches the (size-capped) span
  // subtree to success and error responses alike, and files the flight
  // record.
  auto finish = [&](HttpResponse response, const std::string& status_name,
                    uint64_t rows, bool truncated, bool cancelled_flag) {
    double total_ms = request_timer.ElapsedMillis();
    if (tracer != nullptr) {
      tracer->Annotate(serve_span, "status", status_name);
      if (cancelled_flag) tracer->Annotate(serve_span, "cancelled", true);
      tracer->EndSpan(serve_span);
      response.SetHeader(
          "X-Lusail-Trace",
          tracer->Snapshot().ToWireString(options_.max_trace_header_bytes));
    }
    if (options_.flight_recorder != nullptr) {
      obs::FlightRecord record;
      record.query_hash = obs::QueryHashHex(query_text);
      record.trace_id = trace_id;
      record.status = status_name;
      record.cancelled = cancelled_flag;
      record.truncated = truncated;
      record.rows = rows;
      record.total_ms = total_ms;
      record.execution_ms = total_ms;
      options_.flight_recorder->Record(std::move(record));
    }
    return response;
  };

  // Derive a server-local deadline from the client's remaining budget.
  // The header value is "milliseconds left at send time", so the skew is
  // one network hop — the client always gives up first, as it should.
  Deadline deadline;
  const std::string* budget = request.FindHeader("X-Lusail-Deadline-Ms");
  if (budget != nullptr) {
    char* end = nullptr;
    double ms = std::strtod(budget->c_str(), &end);
    if (end != budget->c_str() && ms >= 0.0) {
      deadline = Deadline::AfterMillis(ms);
    }
  }
  if (deadline.Expired()) {
    timed_out_queries_.fetch_add(1, std::memory_order_relaxed);
    failed_queries_.fetch_add(1, std::memory_order_relaxed);
    return finish(
        ErrorResponse(504, StatusCode::kTimeout,
                      "deadline expired before evaluation started"),
        StatusCodeToString(StatusCode::kTimeout), 0, false, false);
  }

  CancelToken cancel = CancelToken::Cancellable(deadline);
  {
    std::lock_guard<std::mutex> lock(watch_mu_);
    in_flight_[fd] = cancel;
  }
  watch_cv_.notify_all();

  Stopwatch server_timer;

  if (stream != nullptr && request.FindHeader("X-Lusail-Stream") != nullptr) {
    // Streamed response: evaluate through QueryStreaming and write each
    // row batch as one chunked-transfer frame the moment it is produced.
    // End-of-stream metadata (server time, first-row latency, truncation,
    // trace subtree) rides in the trailer section, since none of it is
    // known when the head goes out.
    net::StreamOptions stream_options;
    stream_options.batch_rows = options_.stream_batch_rows;
    stream_options.max_rows = options_.max_result_rows;

    obs::SpanId eval_span = 0;
    std::optional<obs::TraceContextScope> trace_scope;
    if (tracer != nullptr) {
      eval_span = tracer->StartSpan("evaluate", "server", serve_span);
      obs::TraceContext context;
      context.tracer = tracer;
      context.trace_id = trace_id;
      context.parent = eval_span;
      trace_scope.emplace(std::move(context));
    }

    const bool keep_alive = request.KeepAlive() &&
                            !stopping_.load(std::memory_order_acquire);
    bool head_sent = false;
    bool first_binding = true;
    auto send_head = [&](const std::vector<std::string>& vars) {
      HttpResponse head;
      head.status = 200;
      head.reason = "OK";
      head.SetHeader("Content-Type", "application/sparql-results+json");
      head.SetHeader("Transfer-Encoding", "chunked");
      head.SetHeader("Trailer",
                     "X-Lusail-Server-Ms, X-Lusail-First-Row-Ms, "
                     "X-Lusail-Truncated, X-Lusail-Trace");
      if (!keep_alive) head.SetHeader("Connection", "close");
      return head.SerializeHead() + EncodeChunk(SrjStreamPrefix(vars));
    };
    // Every write gets the request timeout: a consumer that stalls longer
    // blocks here, the sink fails, and QueryStreaming unwinds — the slow
    // client back-pressures the evaluator instead of growing a buffer.
    auto sink = [&](net::StreamBatch&& batch) -> Status {
      std::string wire;
      if (!head_sent) {
        wire = send_head(batch.ids->vars);
        head_sent = true;
      }
      if (batch.ids->NumRows() > 0) {
        std::string bindings;
        AppendSrjBindings(*batch.ids, *batch.ids_dict, &first_binding,
                          &bindings);
        wire += EncodeChunk(bindings);
      }
      if (wire.empty()) return Status::OK();
      Status sent = SendAll(
          fd, wire, Deadline::AfterMillis(options_.request_timeout_ms));
      if (!sent.ok()) return sent;
      bytes_out_.fetch_add(wire.size(), std::memory_order_relaxed);
      return Status::OK();
    };

    Result<net::StreamSummary> summary =
        endpoint_->QueryStreaming(query_text, cancel, stream_options, sink);
    trace_scope.reset();
    if (eval_span != 0) {
      tracer->Annotate(eval_span, "ok", summary.ok());
      if (summary.ok()) {
        tracer->Annotate(eval_span, "rows", summary->rows_delivered);
      }
      tracer->EndSpan(eval_span);
    }
    {
      std::lock_guard<std::mutex> lock(watch_mu_);
      in_flight_.erase(fd);
    }

    bool cancelled_flag = false;
    if (!summary.ok()) {
      failed_queries_.fetch_add(1, std::memory_order_relaxed);
      if (summary.status().code() == StatusCode::kTimeout &&
          cancel.deadline().Expired()) {
        timed_out_queries_.fetch_add(1, std::memory_order_relaxed);
      } else if (cancel.CancelRequested()) {
        cancelled_queries_.fetch_add(1, std::memory_order_relaxed);
        cancelled_flag = true;
      }
    }
    if (!summary.ok() && !head_sent) {
      // Nothing on the wire yet: fail exactly like a buffered request.
      return finish(
          ErrorResponse(HttpStatusForCode(summary.status().code()),
                        summary.status().code(), summary.status().message()),
          StatusCodeToString(summary.status().code()), 0, false,
          cancelled_flag);
    }

    stream->streamed = true;
    streamed_requests_.fetch_add(1, std::memory_order_relaxed);

    uint64_t rows = 0;
    bool truncated = false;
    std::string status_name;
    if (!summary.ok()) {
      // Mid-stream failure: the terminal chunk never goes out, and the
      // connection is dropped — the client's incremental parser sees a
      // structurally truncated document instead of a silently short one.
      stream_aborts_.fetch_add(1, std::memory_order_relaxed);
      status_name = StatusCodeToString(summary.status().code());
      if (tracer != nullptr) {
        tracer->Annotate(serve_span, "status", status_name);
        if (cancelled_flag) tracer->Annotate(serve_span, "cancelled", true);
        tracer->EndSpan(serve_span);
      }
    } else {
      rows = summary->rows_delivered;
      truncated = summary->truncated;
      status_name = "ok";
      if (truncated) {
        truncated_results_.fetch_add(1, std::memory_order_relaxed);
      }
      double first_row = summary->response.first_row_ms;
      if (first_row > 0.0) {
        std::lock_guard<std::mutex> lock(first_row_mu_);
        first_row_ms_.Record(first_row);
      }
      std::string tail;
      if (!head_sent) {
        // A QueryStreaming override that skipped the sink on an empty
        // result; emit the (empty) document head now.
        tail = send_head(summary->response.ids->vars);
      }
      std::vector<std::pair<std::string, std::string>> trailers;
      trailers.emplace_back("X-Lusail-Server-Ms",
                            std::to_string(server_timer.ElapsedMillis()));
      if (first_row > 0.0) {
        trailers.emplace_back("X-Lusail-First-Row-Ms",
                              std::to_string(first_row));
      }
      if (truncated) trailers.emplace_back("X-Lusail-Truncated", "true");
      if (tracer != nullptr) {
        tracer->Annotate(serve_span, "status", "ok");
        tracer->Annotate(serve_span, "rows", rows);
        tracer->EndSpan(serve_span);
        trailers.emplace_back(
            "X-Lusail-Trace",
            tracer->Snapshot().ToWireString(options_.max_trace_header_bytes));
      }
      tail += EncodeChunk(SrjStreamSuffix());
      tail += EncodeLastChunk(trailers);
      Status sent = SendAll(
          fd, tail, Deadline::AfterMillis(options_.request_timeout_ms));
      if (sent.ok()) {
        bytes_out_.fetch_add(tail.size(), std::memory_order_relaxed);
        stream->keep_alive_ok = true;
      } else {
        stream_aborts_.fetch_add(1, std::memory_order_relaxed);
      }
    }

    if (options_.flight_recorder != nullptr) {
      obs::FlightRecord record;
      record.query_hash = obs::QueryHashHex(query_text);
      record.trace_id = trace_id;
      record.status = status_name;
      record.cancelled = cancelled_flag;
      record.truncated = truncated;
      record.rows = rows;
      record.total_ms = request_timer.ElapsedMillis();
      record.execution_ms = record.total_ms;
      options_.flight_recorder->Record(std::move(record));
    }
    return HttpResponse{};  // Ignored: the bytes are already on the wire.
  }

  Result<net::QueryResponse> evaluated = Status::Internal("unreachable");
  {
    obs::SpanId eval_span = 0;
    std::optional<obs::TraceContextScope> trace_scope;
    if (tracer != nullptr) {
      eval_span = tracer->StartSpan("evaluate", "server", serve_span);
      // Install the context so a nested federating endpoint (multi-hop
      // topologies) propagates the same trace one level further down.
      obs::TraceContext context;
      context.tracer = tracer;
      context.trace_id = trace_id;
      context.parent = eval_span;
      trace_scope.emplace(std::move(context));
    }
    evaluated = endpoint_->QueryCancellable(query_text, cancel);
    trace_scope.reset();
    if (eval_span != 0) {
      tracer->Annotate(eval_span, "ok", evaluated.ok());
      if (evaluated.ok()) {
        tracer->Annotate(eval_span, "rows",
                         static_cast<uint64_t>(evaluated->RowCount()));
      }
      tracer->EndSpan(eval_span);
    }
  }
  {
    std::lock_guard<std::mutex> lock(watch_mu_);
    in_flight_.erase(fd);
  }
  if (!evaluated.ok()) {
    failed_queries_.fetch_add(1, std::memory_order_relaxed);
    // An expired propagated deadline takes precedence over a fired cancel
    // token: a client that times out also closes its connection, so the
    // watchdog often requests cancellation while the evaluation is still
    // unwinding from the deadline check — the root cause is the deadline.
    bool cancelled_flag = false;
    if (evaluated.status().code() == StatusCode::kTimeout &&
        cancel.deadline().Expired()) {
      timed_out_queries_.fetch_add(1, std::memory_order_relaxed);
    } else if (cancel.CancelRequested()) {
      cancelled_queries_.fetch_add(1, std::memory_order_relaxed);
      cancelled_flag = true;
    }
    return finish(
        ErrorResponse(HttpStatusForCode(evaluated.status().code()),
                      evaluated.status().code(), evaluated.status().message()),
        StatusCodeToString(evaluated.status().code()), 0, false,
        cancelled_flag);
  }

  // Cut to max_result_rows in ID space, so only the rows shipped are
  // written.
  const core::IdTable* ids = evaluated->ids.get();
  core::IdTable cut;
  bool truncated = false;
  if (options_.max_result_rows > 0 &&
      ids->NumRows() > options_.max_result_rows) {
    cut = ids->Slice(0, options_.max_result_rows);
    ids = &cut;
    truncated = true;
    truncated_results_.fetch_add(1, std::memory_order_relaxed);
  }

  HttpResponse response;
  response.status = 200;
  response.reason = "OK";
  response.SetHeader("Content-Type", "application/sparql-results+json");
  // Endpoint-side time (evaluation plus any simulated latency charge),
  // so clients can split wall time into server vs. network shares.
  response.SetHeader("X-Lusail-Server-Ms",
                     std::to_string(server_timer.ElapsedMillis()));
  if (truncated) response.SetHeader("X-Lusail-Truncated", "true");
  response.body = IdTableToSrj(*ids, *evaluated->ids_dict);
  return finish(std::move(response), "ok",
                static_cast<uint64_t>(ids->NumRows()), truncated, false);
}

}  // namespace lusail::rpc

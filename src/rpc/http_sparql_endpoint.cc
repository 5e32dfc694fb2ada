#include "rpc/http_sparql_endpoint.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "obs/trace_context.h"
#include "rpc/http_server.h"
#include "rpc/results_json.h"

namespace lusail::rpc {

namespace {

// Poll slice while waiting for response bytes under a cancellable token:
// cancellation latency is bounded by this without busy-waiting.
constexpr int kCancelPollSliceMs = 10;

// After half-closing a cancelled request, how long we keep listening for
// the server's abort response (the 504 carrying its span subtree). Keeps
// hedged-loser threads from lingering until the full query deadline when
// the peer is not a Lusail server and never answers the half-close.
constexpr double kCancelResponseWaitMs = 2000.0;

// Grafts the server's span subtree (the X-Lusail-Trace response header)
// into the calling thread's active trace, parented under the span that
// issued this request. Runs for success and error responses alike — a
// cancelled or timed-out server still reports how far it got.
void MaybeGraftServerTrace(const HttpResponse& http,
                           const std::string& endpoint_id) {
  const obs::TraceContext* context = obs::CurrentTraceContext();
  if (context == nullptr || context->tracer == nullptr) return;
  const std::string* wire = http.FindHeader("X-Lusail-Trace");
  if (wire == nullptr) return;
  bool truncated = false;
  auto remote = obs::Trace::FromWireString(*wire, &truncated);
  if (!remote.ok()) return;
  obs::SpanId root = context->tracer->Graft(remote.value(), context->parent);
  if (root == 0) return;
  context->tracer->Annotate(root, "served_by", endpoint_id);
  if (truncated) context->tracer->Annotate(root, "trace.truncated", true);
}

// Dials host:port with a non-blocking connect bounded by `deadline`.
Result<int> DialTcp(const std::string& host, uint16_t port,
                    const Deadline& deadline) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status(StatusCode::kUnavailable,
                  std::string("socket(): ") + std::strerror(errno));
  }
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    ::close(fd);
    return Status(StatusCode::kUnavailable,
                  std::string("fcntl(O_NONBLOCK): ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status(StatusCode::kInvalidArgument,
                  "not an IPv4 address: " + host);
  }

  int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    Status s(StatusCode::kUnavailable,
             "connect " + host + ":" + std::to_string(port) + ": " +
                 std::strerror(errno));
    ::close(fd);
    return s;
  }
  if (rc != 0) {
    // Wait for the connect to resolve, in slices so a huge deadline still
    // reacts to expiry promptly.
    for (;;) {
      if (deadline.Expired()) {
        ::close(fd);
        return Status(StatusCode::kTimeout, "connect timed out to " + host +
                                                ":" + std::to_string(port));
      }
      double remaining = deadline.RemainingMillis();
      int wait_ms =
          static_cast<int>(std::min(remaining, 1000.0));
      if (wait_ms < 1) wait_ms = 1;
      pollfd pfd{fd, POLLOUT, 0};
      int n = ::poll(&pfd, 1, wait_ms);
      if (n < 0) {
        if (errno == EINTR) continue;
        ::close(fd);
        return Status(StatusCode::kUnavailable,
                      std::string("poll(): ") + std::strerror(errno));
      }
      if (n == 0) continue;  // Slice elapsed; re-check the deadline.
      break;
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) < 0 || err != 0) {
      Status s(StatusCode::kUnavailable,
               "connect " + host + ":" + std::to_string(port) + ": " +
                   std::strerror(err != 0 ? err : errno));
      ::close(fd);
      return s;
    }
  }
  return fd;
}

// True when the pooled fd is still usable: not closed by the peer and with
// no stray buffered bytes. A non-blocking recv(MSG_PEEK) distinguishes
// "open and quiet" (EAGAIN) from "peer closed" (0) / "junk waiting" (>0).
bool ConnectionLooksAlive(int fd) {
  char byte;
  ssize_t n = ::recv(fd, &byte, 1, MSG_PEEK | MSG_DONTWAIT);
  if (n == 0) return false;                            // Orderly close.
  if (n > 0) return false;                             // Unexpected data.
  return errno == EAGAIN || errno == EWOULDBLOCK;      // Open and idle.
}

// Waits for the first response bytes on `fd`. A response that is
// already readable costs one zero-timeout poll; otherwise the wait lends
// the pool worker's CPU slot (ThreadPool::Blocking), so the pool can send
// other requests meanwhile, and its time is added to `*wait_ms`. With a
// token another thread can fire, the wait runs in poll slices so an
// explicit cancel can interrupt it: the request is then half-closed — the
// server's disconnect watchdog sees EOF and aborts evaluation — and the
// read side stays open a bounded while longer for the abort response (and
// its span subtree), reported through `*half_closed`. Fails once that
// grace period passes without an answer; deadline expiry and socket
// errors are left to the response reader.
Status AwaitFirstBytes(int fd, const CancelToken& cancel, bool* half_closed,
                       double* wait_ms) {
  *half_closed = false;
  pollfd ready{fd, POLLIN, 0};
  if (::poll(&ready, 1, 0) > 0) return Status::OK();
  ThreadPool::Blocking lend;
  Stopwatch waited;
  const Deadline& deadline = cancel.deadline();
  Deadline cancel_wait;
  Status status = Status::OK();
  for (;;) {
    if (deadline.Expired()) break;
    if (*half_closed && cancel_wait.Expired()) {
      status = cancel.StatusAt("cancelled endpoint request");
      break;
    }
    if (!*half_closed && cancel.CancelRequested()) {
      ::shutdown(fd, SHUT_WR);
      *half_closed = true;
      cancel_wait = Deadline::AfterMillis(
          std::min(kCancelResponseWaitMs, deadline.RemainingMillis()));
    }
    // Without a token to watch, wake at least every second to re-check
    // the deadline.
    const int slice_ms =
        cancel.can_cancel()
            ? kCancelPollSliceMs
            : static_cast<int>(std::min(deadline.RemainingMillis(), 1000.0)) +
                  1;
    pollfd pfd{fd, POLLIN, 0};
    int n = ::poll(&pfd, 1, slice_ms);
    if (n < 0 && errno == EINTR) continue;
    if (n != 0) break;  // Bytes, EOF, or an error to read.
  }
  *wait_ms += waited.ElapsedMillis();
  return status;
}

// The exchange accounting of a buffered response or a stream summary.
net::QueryResponse& Accounting(net::QueryResponse& response) {
  return response;
}
net::QueryResponse& Accounting(net::StreamSummary& summary) {
  return summary.response;
}

// Splits the exchange's wire time on the span that issued it (the calling
// thread's trace parent, the federation's "request" span): writing the
// request, the wait for its first response byte, and reading and decoding
// the response. Annotations only: a new span would not be counted as
// request time.
void AnnotateWireTimes(double send_ms, double wait_ms, double parse_ms) {
  const obs::TraceContext* context = obs::CurrentTraceContext();
  if (context == nullptr || context->tracer == nullptr) return;
  context->tracer->Annotate(context->parent, "net.send_ms", send_ms);
  context->tracer->Annotate(context->parent, "net.wait_ms", wait_ms);
  context->tracer->Annotate(context->parent, "net.parse_ms", parse_ms);
}

}  // namespace

HttpSparqlEndpoint::HttpSparqlEndpoint(std::string id, std::string host,
                                       uint16_t port,
                                       HttpClientOptions options)
    : id_(std::move(id)),
      host_(std::move(host)),
      port_(port),
      options_(options),
      parse_dict_(std::make_shared<core::TermDictionary>()) {}

HttpSparqlEndpoint::~HttpSparqlEndpoint() { CloseIdleConnections(); }

void HttpSparqlEndpoint::CloseIdleConnections() {
  std::vector<int> fds;
  {
    std::lock_guard<std::mutex> lock(pool_mu_);
    fds.swap(idle_fds_);
  }
  for (int fd : fds) ::close(fd);
}

HttpClientStats HttpSparqlEndpoint::stats() const {
  HttpClientStats s;
  s.requests = requests_.load(std::memory_order_relaxed);
  s.connections_opened = connections_opened_.load(std::memory_order_relaxed);
  s.connections_reused = connections_reused_.load(std::memory_order_relaxed);
  s.stale_retries = stale_retries_.load(std::memory_order_relaxed);
  s.transport_errors = transport_errors_.load(std::memory_order_relaxed);
  return s;
}

void HttpSparqlEndpoint::ExportMetrics(obs::MetricsSnapshot* snapshot) const {
  HttpClientStats s = stats();
  obs::MetricLabels labels{{"endpoint", id_}};
  snapshot->AddCounter("lusail_http_client_requests_total",
                       "HTTP SPARQL requests issued by this client.", labels,
                       static_cast<double>(s.requests));
  snapshot->AddCounter("lusail_http_client_connections_opened_total",
                       "Fresh TCP connections dialed.", labels,
                       static_cast<double>(s.connections_opened));
  snapshot->AddCounter("lusail_http_client_connections_reused_total",
                       "Pooled keep-alive connections reused.", labels,
                       static_cast<double>(s.connections_reused));
  snapshot->AddCounter("lusail_http_client_stale_retries_total",
                       "Reused connections found dead and replaced.", labels,
                       static_cast<double>(s.stale_retries));
  snapshot->AddCounter("lusail_http_client_transport_errors_total",
                       "Requests that failed at the transport layer.", labels,
                       static_cast<double>(s.transport_errors));
}

Result<int> HttpSparqlEndpoint::AcquireConnection(const Deadline& deadline,
                                                  bool* reused,
                                                  double* connect_ms) {
  *reused = false;
  *connect_ms = 0.0;
  for (;;) {
    int fd = -1;
    {
      std::lock_guard<std::mutex> lock(pool_mu_);
      if (!idle_fds_.empty()) {
        fd = idle_fds_.back();
        idle_fds_.pop_back();
      }
    }
    if (fd < 0) break;
    if (ConnectionLooksAlive(fd)) {
      *reused = true;
      connections_reused_.fetch_add(1, std::memory_order_relaxed);
      return fd;
    }
    ::close(fd);  // Server closed it while pooled; try the next one.
  }

  // Fresh connection: bounded by the tighter of the caller's deadline and
  // the configured connect budget.
  Deadline connect_deadline = Deadline::AfterMillis(
      std::min(options_.connect_timeout_ms, deadline.RemainingMillis()));
  Stopwatch dial;
  LUSAIL_ASSIGN_OR_RETURN(int fd, DialTcp(host_, port_, connect_deadline));
  *connect_ms = dial.ElapsedMillis();
  connections_opened_.fetch_add(1, std::memory_order_relaxed);
  return fd;
}

void HttpSparqlEndpoint::ReleaseConnection(int fd) {
  {
    std::lock_guard<std::mutex> lock(pool_mu_);
    if (idle_fds_.size() < options_.max_idle_connections) {
      idle_fds_.push_back(fd);
      return;
    }
  }
  ::close(fd);
}

std::string HttpSparqlEndpoint::SerializeRequest(const std::string& query,
                                                 const Deadline& deadline,
                                                 bool stream) const {
  HttpRequest request;
  request.method = "POST";
  request.target = "/sparql";
  request.SetHeader("Host", host_ + ":" + std::to_string(port_));
  request.SetHeader("Content-Type", "application/sparql-query");
  request.SetHeader("Accept", "application/sparql-results+json");
  if (stream) request.SetHeader("X-Lusail-Stream", "true");
  // Propagate the remaining budget so the server stops evaluating when
  // this client has already given up. Every request carries one: even a
  // call without a deadline runs under the default request timeout cap.
  if (deadline.has_deadline()) {
    request.SetHeader("X-Lusail-Deadline-Ms",
                      std::to_string(deadline.RemainingMillis()));
  }
  // Propagate the trace identity so the server joins this query's trace:
  // it adopts the id, parents its own spans under ours, and ships its
  // subtree back in X-Lusail-Trace.
  const obs::TraceContext* trace_context = obs::CurrentTraceContext();
  if (trace_context != nullptr && trace_context->tracer != nullptr) {
    request.SetHeader("X-Lusail-Trace-Id", trace_context->trace_id);
    request.SetHeader("X-Lusail-Parent-Span",
                      std::to_string(trace_context->parent));
  }
  request.body = query;
  return request.Serialize();
}

Status HttpSparqlEndpoint::ErrorStatus(const HttpResponse& http) const {
  // Recover the original StatusCode from the JSON error body when the
  // server sent one, so retryability survives the wire.
  std::string code_name;
  std::string message = http.body;
  auto parsed = obs::JsonValue::Parse(http.body);
  if (parsed.ok() && parsed.value().type() == obs::JsonValue::Type::kObject) {
    const obs::JsonValue& code = parsed.value().Get("code");
    const obs::JsonValue& error = parsed.value().Get("error");
    if (code.type() == obs::JsonValue::Type::kString) {
      code_name = code.AsString();
    }
    if (error.type() == obs::JsonValue::Type::kString) {
      message = error.AsString();
    }
  }
  StatusCode code = CodeForHttpStatus(http.status, code_name);
  return Status(code,
                id_ + ": HTTP " + std::to_string(http.status) + ": " + message);
}

Status HttpSparqlEndpoint::Malformed(const Status& s) const {
  // Garbage from the server is a transport problem from the federator's
  // point of view (retryable), not a query problem.
  if (s.code() != StatusCode::kParseError) return s;
  return Status(StatusCode::kUnavailable,
                "malformed HTTP response from " + id_ + ": " + s.message());
}

template <typename T, typename RoundTripFn>
Result<T> HttpSparqlEndpoint::Exchange(const CancelToken& cancel,
                                       RoundTripFn round_trip) {
  if (cancel.Cancelled()) return cancel.StatusAt("endpoint request");
  requests_.fetch_add(1, std::memory_order_relaxed);
  // A call without a deadline is capped so a hung remote server cannot
  // hang the engine.
  CancelToken effective = cancel.CappedAt(options_.default_request_timeout_ms);

  Stopwatch wall;
  double send_ms = 0.0, wait_ms = 0.0, parse_ms = 0.0;  // Over attempts.
  Result<T> result = Status(StatusCode::kInternal, "unreachable retry exit");
  // One transparent retry: a pooled connection can die between requests
  // (keep-alive race). Retrying is safe only when no response byte
  // arrived, so the request cannot have been executed-and-half-answered
  // (and, when streaming, no batch reached the sink).
  for (int attempt = 0; attempt < 2; ++attempt) {
    bool reused = false;
    double connect_ms = 0.0;
    auto acquired =
        AcquireConnection(effective.deadline(), &reused, &connect_ms);
    if (!acquired.ok()) {
      transport_errors_.fetch_add(1, std::memory_order_relaxed);
      result = acquired.status();
      break;
    }
    int fd = acquired.value();

    WireAttempt wire;
    Stopwatch trip;
    Result<T> attempted = round_trip(fd, effective, wall, &wire);
    send_ms += wire.send_ms;
    wait_ms += wire.wait_ms;
    parse_ms +=
        std::max(0.0, trip.ElapsedMillis() - wire.send_ms - wire.wait_ms);
    if (attempted.ok()) {
      if (wire.conn_reusable) {
        ReleaseConnection(fd);
      } else {
        ::close(fd);
      }
      T out = std::move(attempted).value();
      net::QueryResponse& response = Accounting(out);
      response.network_ms =
          std::max(0.0, wall.ElapsedMillis() - response.server_ms);
      response.transport.over_network = true;
      response.transport.reused_connection = reused;
      response.transport.connect_ms = connect_ms;
      response.transport.wire_bytes_sent = wire.wire_out;
      response.transport.wire_bytes_received = wire.wire_in;
      result = std::move(out);
      break;
    }

    ::close(fd);
    const Status& s = attempted.status();
    bool retryable_stale = reused && !wire.got_response_bytes &&
                           s.code() == StatusCode::kUnavailable &&
                           attempt == 0 && !effective.Cancelled();
    if (retryable_stale) {
      stale_retries_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (s.code() == StatusCode::kUnavailable ||
        s.code() == StatusCode::kTimeout) {
      transport_errors_.fetch_add(1, std::memory_order_relaxed);
    }
    result = s;
    break;
  }
  AnnotateWireTimes(send_ms, wait_ms, parse_ms);
  return result;
}

Result<net::QueryResponse> HttpSparqlEndpoint::RoundTrip(
    int fd, const std::string& query, const CancelToken& cancel,
    WireAttempt* wire) {
  const Deadline& deadline = cancel.deadline();
  Stopwatch send;
  std::string serialized = SerializeRequest(query, deadline, false);
  wire->wire_out = serialized.size();
  LUSAIL_RETURN_NOT_OK(SendAll(fd, serialized, deadline));
  wire->send_ms = send.ElapsedMillis();

  bool half_closed = false;
  LUSAIL_RETURN_NOT_OK(
      AwaitFirstBytes(fd, cancel, &half_closed, &wire->wait_ms));

  HttpConnection conn(fd);
  auto response = conn.ReadResponse(options_.limits, deadline);
  wire->wire_in = conn.bytes_read();
  wire->got_response_bytes = conn.bytes_read() > 0;
  if (!response.ok()) {
    // A server that closed without answering the abort (or a response cut
    // short) reports the cancellation, not the transport noise.
    if (half_closed) return cancel.StatusAt("cancelled endpoint request");
    return Malformed(response.status());
  }
  HttpResponse& http = response.value();
  MaybeGraftServerTrace(http, id_);

  if (half_closed) {
    // The evaluation was cancelled; the response exists only to carry
    // the server's subtree (grafted above).
    return cancel.StatusAt("cancelled endpoint request");
  }
  if (http.status != 200) return ErrorStatus(http);

  net::QueryResponse out;
  // The SRJ body is decoded straight into dictionary ids: no string term
  // rows exist for this response.
  std::shared_ptr<core::TermDictionary> parse_dict = parse_dictionary();
  LUSAIL_ASSIGN_OR_RETURN(core::IdTable ids,
                          ParseSrjToIds(http.body, parse_dict.get()));
  out.ids = std::make_shared<core::IdTable>(std::move(ids));
  out.ids_dict = std::move(parse_dict);
  out.request_bytes = query.size();
  out.response_bytes = http.body.size();
  if (const std::string* server_ms = http.FindHeader("X-Lusail-Server-Ms")) {
    out.server_ms = std::strtod(server_ms->c_str(), nullptr);
  }

  // Only a fully-read keep-alive response leaves the connection reusable.
  wire->conn_reusable = http.KeepAlive() && !conn.HasBufferedData();
  return out;
}

void HttpSparqlEndpoint::set_parse_dictionary(
    std::shared_ptr<core::TermDictionary> dict) {
  if (dict == nullptr) dict = std::make_shared<core::TermDictionary>();
  std::lock_guard<std::mutex> lock(pool_mu_);
  parse_dict_ = std::move(dict);
}

std::shared_ptr<core::TermDictionary> HttpSparqlEndpoint::parse_dictionary() {
  std::lock_guard<std::mutex> lock(pool_mu_);
  return parse_dict_;
}

Result<net::QueryResponse> HttpSparqlEndpoint::QueryCancellable(
    const std::string& sparql_text, const CancelToken& cancel) {
  return Exchange<net::QueryResponse>(
      cancel, [&](int fd, const CancelToken& effective, const Stopwatch&,
                  WireAttempt* wire) {
        return RoundTrip(fd, sparql_text, effective, wire);
      });
}

Result<net::StreamSummary> HttpSparqlEndpoint::StreamRoundTrip(
    int fd, const std::string& query, const CancelToken& cancel,
    const net::StreamOptions& options, const net::StreamSink& sink,
    const Stopwatch& wall, WireAttempt* wire) {
  const Deadline& deadline = cancel.deadline();
  Stopwatch send;
  std::string serialized = SerializeRequest(query, deadline, true);
  wire->wire_out = serialized.size();
  LUSAIL_RETURN_NOT_OK(SendAll(fd, serialized, deadline));
  wire->send_ms = send.ElapsedMillis();

  HttpConnection conn(fd);
  // Keep the wire-in counter honest on every exit path.
  auto record_wire = [&] {
    wire->wire_in = conn.bytes_read();
    wire->got_response_bytes = conn.bytes_read() > 0;
  };
  auto normalize = [&](const Status& s) {
    record_wire();
    return Malformed(s);
  };

  bool half_closed = false;
  LUSAIL_RETURN_NOT_OK(
      AwaitFirstBytes(fd, cancel, &half_closed, &wire->wait_ms));

  auto head = conn.ReadResponseHead(options_.limits, deadline);
  if (!head.ok()) {
    if (half_closed) return cancel.StatusAt("cancelled endpoint request");
    return normalize(head.status());
  }
  record_wire();
  HttpResponse& http = head.value();

  // Reads the rest of a Content-Length body (error responses, and 200s
  // from servers that ignored X-Lusail-Stream).
  auto read_content_length_body = [&]() -> Result<std::string> {
    size_t remaining = 0;
    if (const std::string* cl = http.FindHeader("Content-Length")) {
      remaining = static_cast<size_t>(
          std::strtoull(cl->c_str(), nullptr, 10));
    }
    if (remaining > options_.limits.max_body_bytes) {
      return Status::InvalidArgument("response body exceeds limit");
    }
    std::string body;
    while (body.size() < remaining) {
      std::string piece;
      Status rc =
          conn.ReadBodyBytes(remaining - body.size(), deadline, &piece);
      if (!rc.ok()) return rc;
      if (piece.empty()) break;
      body.append(piece);
    }
    return body;
  };

  if (http.status != 200) {
    auto body = read_content_length_body();
    record_wire();
    http.body = body.ok() ? std::move(body).value() : std::string();
    MaybeGraftServerTrace(http, id_);
    if (half_closed) return cancel.StatusAt("cancelled endpoint request");
    return ErrorStatus(http);
  }
  if (half_closed) {
    MaybeGraftServerTrace(http, id_);
    return cancel.StatusAt("cancelled endpoint request");
  }

  std::shared_ptr<core::TermDictionary> parse_dict = parse_dictionary();
  SrjChunkDecoder decoder(parse_dict);

  net::StreamSummary summary;
  summary.response.request_bytes = query.size();
  uint64_t body_bytes = 0;
  bool delivered_any_batch = false;

  // Drains the decoder's pending rows into the sink, honoring the row
  // budget. Returns non-OK to stop the exchange; sets *budget_hit when
  // max_rows was reached (the stream should be cut, not failed).
  auto deliver = [&](bool* budget_hit) -> Status {
    *budget_hit = false;
    size_t pending = decoder.PendingRows();
    if (pending == 0) return Status::OK();
    size_t take = pending;
    if (options.max_rows > 0) {
      uint64_t left = options.max_rows - summary.rows_delivered;
      if (pending >= left) {
        take = static_cast<size_t>(left);
        *budget_hit = true;
        summary.truncated = true;
      }
    }
    if (summary.rows_delivered == 0 && take > 0 &&
        summary.response.first_row_ms == 0.0) {
      summary.response.first_row_ms = wall.ElapsedMillis();
    }
    net::StreamBatch batch;
    core::IdTable ids = decoder.TakeIds();
    if (take < ids.NumRows()) ids = ids.Slice(0, take);
    batch.ids = std::make_shared<core::IdTable>(std::move(ids));
    batch.ids_dict = parse_dict;
    summary.rows_delivered += take;
    delivered_any_batch = true;
    return sink(std::move(batch));
  };

  const std::string* te = http.FindHeader("Transfer-Encoding");
  bool chunked = te != nullptr && EqualsIgnoreCase(*te, "chunked");
  bool stream_cut = false;  ///< Budget or cancel ended the stream early.
  if (chunked) {
    bool last = false;
    while (!last) {
      if (cancel.Cancelled()) {
        record_wire();
        return cancel.StatusAt("cancelled mid-stream");
      }
      std::string data;
      std::vector<std::pair<std::string, std::string>> trailers;
      Status rc =
          conn.ReadChunk(options_.limits, deadline, &data, &last, &trailers);
      if (!rc.ok()) return normalize(rc);
      for (auto& trailer : trailers) {
        http.headers.push_back(std::move(trailer));
      }
      if (!data.empty()) {
        body_bytes += data.size();
        Status fed = decoder.Feed(data);
        if (!fed.ok()) return normalize(fed);
        bool budget_hit = false;
        Status delivered = deliver(&budget_hit);
        if (!delivered.ok()) {
          record_wire();
          return delivered;
        }
        if (budget_hit) {
          // Budget met mid-stream: half-close so a Lusail server's
          // disconnect watchdog stops the evaluation, and stop reading.
          ::shutdown(fd, SHUT_WR);
          stream_cut = true;
          break;
        }
      }
    }
    if (!stream_cut) {
      Status complete = decoder.Finish();
      if (!complete.ok()) return normalize(complete);
    }
  } else {
    // The server ignored X-Lusail-Stream (foreign endpoint): the body is
    // Content-Length framed. Decode it whole, then deliver in one pass.
    auto body = read_content_length_body();
    if (!body.ok()) return normalize(body.status());
    body_bytes = body.value().size();
    Status fed = decoder.Feed(body.value());
    if (fed.ok()) fed = decoder.Finish();
    if (!fed.ok()) {
      record_wire();
      return fed;  // SRJ-level failure: same contract as ParseSrj.
    }
    bool budget_hit = false;
    Status delivered = deliver(&budget_hit);
    if (!delivered.ok()) {
      record_wire();
      return delivered;
    }
    stream_cut = budget_hit;
  }
  record_wire();
  MaybeGraftServerTrace(http, id_);

  if (!delivered_any_batch) {
    // Empty result: the sink still learns the vars (at-least-once
    // contract of StreamSink).
    net::StreamBatch batch;
    batch.ids = std::make_shared<core::IdTable>(decoder.vars());
    batch.ids_dict = parse_dict;
    Status delivered = sink(std::move(batch));
    if (!delivered.ok()) return delivered;
  }

  summary.response.ids = std::make_shared<core::IdTable>(decoder.vars());
  summary.response.ids_dict = parse_dict;
  summary.response.response_bytes = body_bytes;
  if (const std::string* server_ms = http.FindHeader("X-Lusail-Server-Ms")) {
    summary.response.server_ms = std::strtod(server_ms->c_str(), nullptr);
  }
  if (http.FindHeader("X-Lusail-Truncated") != nullptr) {
    summary.truncated = true;
  }
  wire->conn_reusable =
      !stream_cut && http.KeepAlive() && !conn.HasBufferedData();
  return summary;
}

Result<net::StreamSummary> HttpSparqlEndpoint::QueryStreaming(
    const std::string& sparql_text, const CancelToken& cancel,
    const net::StreamOptions& options, const net::StreamSink& sink) {
  return Exchange<net::StreamSummary>(
      cancel, [&](int fd, const CancelToken& effective, const Stopwatch& wall,
                  WireAttempt* wire) {
        return StreamRoundTrip(fd, sparql_text, effective, options, sink,
                               wall, wire);
      });
}

}  // namespace lusail::rpc

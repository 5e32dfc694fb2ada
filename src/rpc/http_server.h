#ifndef LUSAIL_RPC_HTTP_SERVER_H_
#define LUSAIL_RPC_HTTP_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>

#include "common/cancel.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "net/endpoint.h"
#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "rpc/http.h"

namespace lusail::rpc {

struct HttpServerOptions {
  /// Address to bind; loopback by default (the demo federation runs on
  /// one machine, and nothing here authenticates).
  std::string bind_address = "127.0.0.1";

  /// TCP port; 0 picks an ephemeral port (read it back via port()).
  uint16_t port = 0;

  /// Worker threads handling connections; 0 = hardware concurrency. A
  /// backend that is itself an HTTP client lends the worker's slot while
  /// it waits for its upstream's first byte (ThreadPool::Blocking), so
  /// such a server can have up to (1 + ThreadPool::kSparesPerWorker)
  /// requests per worker in flight.
  size_t num_threads = 4;

  /// Listen backlog.
  int backlog = 64;

  /// Reading one request (header + body) must finish within this long of
  /// its first byte; writing a response within this long of its start.
  double request_timeout_ms = 30000.0;

  /// How long a keep-alive connection may sit idle between requests.
  double idle_timeout_ms = 30000.0;

  /// Header/body size limits.
  HttpLimits limits;

  /// Cap on rows serialized into one response; 0 = unlimited. Mirrors the
  /// result-size caps of public Fuseki/Virtuoso deployments (the FedX
  /// experience report's truncation hazard): when a result is cut, the
  /// response carries "X-Lusail-Truncated: true". The cap counts the rows
  /// that would actually ship — after the query's own OFFSET/LIMIT have
  /// been applied by the evaluator — so an explicit LIMIT k with k <= cap
  /// is never reported as truncated.
  size_t max_result_rows = 0;

  /// Rows per chunk on streamed responses (requests carrying
  /// "X-Lusail-Stream"). Each batch is serialized and written as one
  /// chunked-transfer frame as the evaluator produces it.
  size_t stream_batch_rows = 512;

  /// Display name for this server in metrics labels and traces; defaults
  /// to the fronted endpoint's id (or "server" on a stats-only listener).
  std::string server_name;

  /// Extra metric collectors rendered into GET /metrics alongside the
  /// server's own counters. Non-owning; may be null.
  obs::MetricsRegistry* metrics = nullptr;

  /// When set, every completed /sparql request is recorded here and
  /// GET /debug/queries serves the ring. Non-owning; may be null.
  obs::FlightRecorder* flight_recorder = nullptr;

  /// Health probe behind GET /health: fill `body` with component state
  /// and return overall health (true -> 200, false -> 503). When unset,
  /// /health always answers 200 {"ok":true}.
  std::function<bool(obs::JsonValue* body)> health_probe;

  /// Size cap on the X-Lusail-Trace response header carrying this
  /// server's span subtree back to the federator. Oversized subtrees are
  /// truncated span-by-span (the root always survives), never dropped.
  size_t max_trace_header_bytes = 8192;
};

/// Cumulative server-side counters (atomic reads, no lock).
struct HttpServerStats {
  uint64_t connections_accepted = 0;
  uint64_t requests = 0;        ///< Well-formed SPARQL requests handled.
  uint64_t bad_requests = 0;    ///< 4xx answers (malformed, wrong route).
  uint64_t failed_queries = 0;  ///< Endpoint evaluation failures (5xx/4xx).
  uint64_t truncated_results = 0;
  uint64_t timed_out_queries = 0;  ///< 504s: client deadline expired mid-eval.
  uint64_t cancelled_queries = 0;  ///< Evaluations cancelled (disconnect/stop).
  uint64_t streamed_requests = 0;  ///< Responses sent with chunked transfer.
  uint64_t stream_aborts = 0;   ///< Streams cut after the head was sent.
  uint64_t bytes_in = 0;        ///< Wire bytes read (headers included).
  uint64_t bytes_out = 0;       ///< Wire bytes written.
};

/// A dependency-free, multi-threaded HTTP/1.1 server (POSIX sockets) that
/// fronts one net::Endpoint as a SPARQL 1.1 Protocol endpoint:
///
///   POST /sparql   application/sparql-query body, or
///                  application/x-www-form-urlencoded with query=...
///                  -> 200 application/sparql-results+json (SRJ; ASK
///                     queries use the spec's boolean form)
///   GET  /health   -> {"ok":true,"endpoint":<id>}
///   GET  /metrics  -> CollectMetrics() as Prometheus text
///   GET  /stats    -> {"endpoint":<id>,"metrics":<the same snapshot as
///                     JSON (obs::MetricsSnapshot::ToJson)>}
///
/// Endpoint failures map onto HTTP statuses (parse error 400, unsupported
/// 501, timeout 504, unavailable 503, internal 500) with an
/// application/json body {"code":<StatusCode name>,"error":<message>}
/// that HttpSparqlEndpoint turns back into the original Status, so a
/// remote federation degrades exactly like an in-process one.
///
/// Deadline propagation: a request may carry "X-Lusail-Deadline-Ms" (the
/// client's remaining budget in milliseconds at send time); the server
/// derives a local Deadline from it and threads a CancelToken through the
/// fronted endpoint via QueryCancellable, so evaluation is abandoned
/// cooperatively once the budget runs out and the client gets 504 with a
/// kTimeout body (retry classification survives the wire). A watchdog
/// thread probes connections with in-flight evaluations for client
/// disconnect (EOF/error on a MSG_PEEK read) and fires the same token,
/// so a client that hangs up never keeps a server core busy; Stop() also
/// fires every in-flight token for a fast graceful drain.
///
/// Connections are keep-alive (HTTP/1.1 semantics). A worker thread
/// drives a connection only while a request is pending; between requests
/// the connection is re-queued onto the pool, so any number of open
/// keep-alive connections share num_threads workers without starving the
/// accept queue (a thread-per-connection loop deadlocks the moment
/// concurrent connections exceed workers: parked workers wait out the
/// idle timeout while queued connections wait for a worker). Reads and
/// writes are bounded by the request/idle deadlines in the options.
/// Stop() is graceful: it stops accepting, shuts down the read side of
/// every open connection, and waits for in-flight requests to finish
/// writing their responses.
class HttpServer {
 public:
  /// Serves `endpoint` (shared; several servers may front one endpoint).
  /// A null endpoint makes a stats-only listener: /metrics, /health,
  /// /stats, and /debug/queries work; /sparql answers 503. This is what
  /// backs the federator-side `lusail_cli --metrics-port` listener.
  HttpServer(std::shared_ptr<net::Endpoint> endpoint,
             HttpServerOptions options = {});
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds, listens, and starts the accept thread. Fails with
  /// kUnavailable when the port cannot be bound.
  Status Start();

  /// Graceful shutdown; idempotent. Returns once every connection has
  /// drained and the accept thread has joined.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// The bound TCP port (the ephemeral pick when options.port was 0).
  uint16_t port() const { return port_; }

  /// "http://<bind_address>:<port>/sparql".
  std::string url() const;

  const std::string& endpoint_id() const {
    return endpoint_ != nullptr ? endpoint_->id() : options_.server_name;
  }

  HttpServerStats stats() const;

  /// Emits the server's own lusail_rpc_* counters, labelled
  /// {server=<server_name>}.
  void ExportMetrics(obs::MetricsSnapshot* snapshot) const;

  /// The one snapshot GET /metrics and GET /stats render: ExportMetrics,
  /// the fronted endpoint's own ExportMetrics (its whole decorator stack;
  /// none for a server without an endpoint), plus every collector of
  /// `options.metrics`.
  obs::MetricsSnapshot CollectMetrics() const;

 private:
  /// Per-connection state that outlives any single worker task: the
  /// buffered reader (possibly holding pipelined bytes) and the idle
  /// clock. Shared between re-queued servicing tasks.
  struct ConnState;

  void AcceptLoop();
  void ServeConnection(std::shared_ptr<ConnState> conn);
  void WatchLoop();

  /// Set by a handler that wrote its response to the socket itself
  /// (chunked streaming); ServeConnection then skips the normal write.
  struct StreamOutcome {
    bool streamed = false;      ///< Response bytes already on the wire.
    bool keep_alive_ok = false; ///< Stream ended cleanly; fd reusable.
  };

  /// Routes one request to a response (never throws, never closes fd).
  /// `fd` identifies the connection the response will go out on, so the
  /// disconnect watchdog can tie an in-flight evaluation to its socket.
  HttpResponse Handle(const HttpRequest& request, int fd,
                      StreamOutcome* stream);
  HttpResponse HandleSparql(const HttpRequest& request, int fd,
                            StreamOutcome* stream);

  std::shared_ptr<net::Endpoint> endpoint_;
  HttpServerOptions options_;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;
  std::unique_ptr<ThreadPool> workers_;

  std::mutex conn_mu_;
  std::condition_variable conn_drained_;
  std::set<int> active_fds_;

  /// Connections with an evaluation in flight, keyed by fd; the watchdog
  /// probes these for disconnect and Cancel()s the token. Entries live
  /// only for the duration of one HandleSparql call.
  std::mutex watch_mu_;
  std::condition_variable watch_cv_;
  std::unordered_map<int, CancelToken> in_flight_;
  std::thread watchdog_thread_;

  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> bad_requests_{0};
  std::atomic<uint64_t> failed_queries_{0};
  std::atomic<uint64_t> truncated_results_{0};
  std::atomic<uint64_t> timed_out_queries_{0};
  std::atomic<uint64_t> cancelled_queries_{0};
  std::atomic<uint64_t> streamed_requests_{0};
  std::atomic<uint64_t> stream_aborts_{0};
  std::atomic<uint64_t> bytes_in_{0};
  std::atomic<uint64_t> bytes_out_{0};

  /// First-row latency on streamed responses (exported as the
  /// lusail_rpc_first_row_ms histogram). LatencyHistogram is not
  /// thread-safe; first_row_mu_ guards it.
  mutable std::mutex first_row_mu_;
  obs::LatencyHistogram first_row_ms_;
};

/// Maps a Status onto the HTTP status code the server answers with.
int HttpStatusForCode(StatusCode code);

/// Reverses HttpStatusForCode on the client side using the error body's
/// "code" member when present, else a default per HTTP status.
StatusCode CodeForHttpStatus(int http_status, const std::string& code_name);

}  // namespace lusail::rpc

#endif  // LUSAIL_RPC_HTTP_SERVER_H_

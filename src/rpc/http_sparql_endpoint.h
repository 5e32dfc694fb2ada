#ifndef LUSAIL_RPC_HTTP_SPARQL_ENDPOINT_H_
#define LUSAIL_RPC_HTTP_SPARQL_ENDPOINT_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "net/endpoint.h"
#include "obs/metrics.h"
#include "rpc/http.h"

namespace lusail::rpc {

struct HttpClientOptions {
  /// TCP connect budget per new connection.
  double connect_timeout_ms = 2000.0;

  /// Request budget applied when the caller passes no deadline (a plain
  /// Query() call). A hung remote server must not hang the federator.
  double default_request_timeout_ms = 30000.0;

  /// Idle connections kept pooled for reuse; older ones are closed.
  size_t max_idle_connections = 8;

  /// Response parsing limits.
  HttpLimits limits;
};

/// Cumulative client-side transport counters of one HttpSparqlEndpoint.
struct HttpClientStats {
  uint64_t requests = 0;
  uint64_t connections_opened = 0;
  uint64_t connections_reused = 0;
  uint64_t stale_retries = 0;  ///< Reused connections found dead, replaced.
  uint64_t transport_errors = 0;
};

/// A net::Endpoint whose queries travel over the SPARQL 1.1 HTTP
/// protocol to a remote server (rpc::HttpServer / lusail_endpointd, or
/// any endpoint speaking the same subset): POST /sparql with
/// application/sparql-query, SPARQL JSON Results back.
///
/// Because this implements the same interface as the in-process
/// endpoints — QueryCancellable and its CancelToken — the entire client
/// stack (the federation's retries and circuit breakers, FederationCache,
/// tracer spans, endpoint telemetry) composes over the network unchanged:
/// transport failures surface as kUnavailable and deadline expiry as
/// kTimeout, both retryable, exactly like the simulated fault layer.
///
/// Every request carries the remaining budget as "X-Lusail-Deadline-Ms"
/// so a Lusail server abandons evaluation once this client has given up
/// (foreign endpoints ignore the header).
///
/// Responses are parsed straight into ids (SRJ -> IdTable, no string
/// rows) in one parse dictionary the client owns for its lifetime, so an
/// answer's `ids_dict` outlives the answer (a result-cache entry may keep
/// it). It holds only terms that Federation::ToIds interns into the
/// engine dictionary anyway; an engine that passes its own dictionary
/// (set_parse_dictionary) skips that translation altogether.
///
/// The wait for a response's first byte is a ThreadPool::Blocking region:
/// on an engine pool worker it lends the worker's CPU slot, so a pool of
/// one thread still keeps two of a query's requests in flight at once.
///
/// Thread-safe: concurrent queries each use their own pooled connection
/// (per-host keep-alive pool, capped at max_idle_connections). A reused
/// connection that turns out to be dead before any response byte is
/// replaced by a fresh one transparently (the usual keep-alive race).
class HttpSparqlEndpoint : public net::Endpoint {
 public:
  HttpSparqlEndpoint(std::string id, std::string host, uint16_t port,
                     HttpClientOptions options = {});
  ~HttpSparqlEndpoint() override;

  HttpSparqlEndpoint(const HttpSparqlEndpoint&) = delete;
  HttpSparqlEndpoint& operator=(const HttpSparqlEndpoint&) = delete;

  const std::string& id() const override { return id_; }
  const std::string& host() const { return host_; }
  uint16_t port() const { return port_; }

  /// Buffered request. When the token can be cancelled by another thread
  /// (an engine query, a hedged replica attempt), it is polled while the
  /// client waits for the response; on cancellation the client
  /// half-closes the connection (shutdown(SHUT_WR)) so the server's
  /// disconnect watchdog aborts evaluation, then keeps reading briefly —
  /// a Lusail server answers the abort with a 504 that still carries its
  /// span subtree, which is grafted into the active trace before the
  /// cancellation status is returned.
  Result<net::QueryResponse> QueryCancellable(const std::string& sparql_text,
                                              const CancelToken& cancel)
      override;

  /// Streaming variant: the request carries "X-Lusail-Stream", and a
  /// chunked response is decoded incrementally — each wire chunk's rows
  /// are delivered through `sink` the moment they parse (into the parse
  /// dictionary), so neither the response
  /// body nor the result table is ever held whole on this side. A
  /// Content-Length response from a server that ignores the header
  /// degrades to read-fully-then-deliver. `options.max_rows` cuts the
  /// stream early (half-closing the connection so a Lusail server stops
  /// evaluating).
  Result<net::StreamSummary> QueryStreaming(
      const std::string& sparql_text, const CancelToken& cancel,
      const net::StreamOptions& options, const net::StreamSink& sink) override;

  HttpClientStats stats() const;

  /// Parses later responses into `dict` (an engine's own dictionary, so
  /// Federation::ToIds consumes the ids with zero re-encoding); nullptr
  /// restores a fresh private dictionary. Thread-safe; takes effect for
  /// requests issued after the call.
  void set_parse_dictionary(
      std::shared_ptr<core::TermDictionary> dict) override;

  /// Emits lusail_http_client_* counters labelled {endpoint=id}.
  void ExportMetrics(obs::MetricsSnapshot* snapshot) const override;

  /// Closes every pooled idle connection (tests, endpoint restarts).
  void CloseIdleConnections();

 private:
  /// Pops a pooled connection (sets *reused) or dials a new one.
  Result<int> AcquireConnection(const Deadline& deadline, bool* reused,
                                double* connect_ms);
  void ReleaseConnection(int fd);

  /// Per-attempt wire accounting a round trip reports to Exchange.
  struct WireAttempt {
    bool got_response_bytes = false;  ///< A stale-connection retry is unsafe.
    bool conn_reusable = false;       ///< The fd may go back into the pool.
    uint64_t wire_in = 0;             ///< Bytes read incl. HTTP framing.
    uint64_t wire_out = 0;            ///< Bytes written incl. HTTP framing.
    double send_ms = 0.0;  ///< Serializing and writing the request.
    double wait_ms = 0.0;  ///< Waiting for the first response byte.
  };

  /// The one request path of the buffered and the streaming query: caps
  /// the token's deadline at the default request timeout, runs
  /// `round_trip(fd, token, wall, &attempt)` on a pooled or fresh
  /// connection with one transparent retry when a reused connection turns
  /// out dead before any response byte, and fills the result's transport
  /// accounting. When traced, annotates the calling request span with
  /// net.send_ms, net.wait_ms and net.parse_ms, summed over the attempts.
  /// `T` is net::QueryResponse or net::StreamSummary.
  template <typename T, typename RoundTripFn>
  Result<T> Exchange(const CancelToken& cancel, RoundTripFn round_trip);

  /// One buffered request/response exchange on `fd`.
  Result<net::QueryResponse> RoundTrip(int fd, const std::string& query,
                                       const CancelToken& cancel,
                                       WireAttempt* wire);

  /// Streaming exchange on `fd`: sends the request with "X-Lusail-Stream",
  /// then reads the response incrementally, feeding bytes through a
  /// SrjChunkDecoder and the sink. `wall` is the per-query clock
  /// first-row latency is measured against.
  Result<net::StreamSummary> StreamRoundTrip(
      int fd, const std::string& query, const CancelToken& cancel,
      const net::StreamOptions& options, const net::StreamSink& sink,
      const Stopwatch& wall, WireAttempt* wire);

  /// The serialized POST /sparql request carrying `query`, the remaining
  /// budget and the caller's trace identity.
  std::string SerializeRequest(const std::string& query,
                               const Deadline& deadline, bool stream) const;

  /// The status a non-200 response stands for, recovered from its JSON
  /// error body when there is one.
  Status ErrorStatus(const HttpResponse& http) const;

  /// Maps a parse failure of the HTTP framing to kUnavailable.
  Status Malformed(const Status& s) const;

  /// The dictionary a response starting now parses into.
  std::shared_ptr<core::TermDictionary> parse_dictionary();

  std::string id_;
  std::string host_;
  uint16_t port_;
  HttpClientOptions options_;

  std::mutex pool_mu_;
  std::vector<int> idle_fds_;
  /// Never null. Guarded by pool_mu_.
  std::shared_ptr<core::TermDictionary> parse_dict_;

  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> connections_opened_{0};
  std::atomic<uint64_t> connections_reused_{0};
  std::atomic<uint64_t> stale_retries_{0};
  std::atomic<uint64_t> transport_errors_{0};
};

}  // namespace lusail::rpc

#endif  // LUSAIL_RPC_HTTP_SPARQL_ENDPOINT_H_

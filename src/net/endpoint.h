#ifndef LUSAIL_NET_ENDPOINT_H_
#define LUSAIL_NET_ENDPOINT_H_

#include <functional>
#include <memory>
#include <string>

#include "common/cancel.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "core/dictionary.h"
#include "core/id_table.h"

namespace lusail::obs {
class MetricsSnapshot;
}  // namespace lusail::obs

namespace lusail::net {

/// How a response physically travelled. In-process endpoints leave the
/// default (no network); transports like rpc::HttpSparqlEndpoint fill it
/// so federation spans and endpoint telemetry can report real wire
/// behavior (connection reuse, connect latency, bytes on the wire).
struct TransportInfo {
  bool over_network = false;     ///< True when a real socket was involved.
  bool reused_connection = false;  ///< Pooled keep-alive connection reused.
  double connect_ms = 0.0;       ///< TCP connect time (0 when reused).
  size_t wire_bytes_sent = 0;    ///< Bytes written incl. HTTP framing.
  size_t wire_bytes_received = 0;  ///< Bytes read incl. HTTP framing.
};

/// One request/response exchange with an endpoint, with the cost
/// accounting a federated engine needs.
struct QueryResponse {
  /// The answer in ID space; a successful response always carries both.
  /// `ids_dict` resolves the ids to terms: an in-process SparqlEndpoint
  /// answers in its store's ids, a transport parses into its parse
  /// dictionary (rpc::HttpSparqlEndpoint::set_parse_dictionary), and a
  /// consumer holding a different dictionary translates the ids
  /// (Federation::ToIds) instead of comparing incomparable ids. Ids
  /// already minted stay valid in `ids_dict`, so a consumer may keep both
  /// (the shared result cache does). Strings exist only where a consumer
  /// decodes them (core::DecodeIdTable). ASK answers have zero columns
  /// and 0 or 1 rows. Decorators pass both through untouched.
  std::shared_ptr<core::IdTable> ids;
  std::shared_ptr<const rdf::TermSource> ids_dict;

  size_t request_bytes = 0;   ///< Serialized query size.
  size_t response_bytes = 0;  ///< Serialized result size.
  double network_ms = 0.0;    ///< Network time (simulated or measured).
  double server_ms = 0.0;     ///< Endpoint-side evaluation time.
  TransportInfo transport;    ///< Physical transport details, if any.

  size_t RowCount() const { return ids->NumRows(); }

  /// Sets the payload to an ASK verdict: zero columns, one row when
  /// `holds`, none otherwise.
  void SetAskVerdict(bool holds);

  /// Replica bookkeeping, filled by ReplicaGroup: the id of the replica
  /// that produced this response (empty for plain endpoints) and whether
  /// a hedged (duplicate) request was launched while this one ran.
  std::string served_by;
  bool hedged = false;

  /// Shard bookkeeping, filled by shard::ShardedEndpoint in
  /// partial-results mode: ids of the shard members whose contribution
  /// was dropped because the member failed mid-scatter. Non-empty means
  /// this response is a lower bound of the exact answer; Federation folds
  /// the ids into the query profile's failed-endpoint set.
  std::vector<std::string> degraded_members;

  /// Milliseconds from request start until the first result row was
  /// available to the caller. Filled by the streaming path (QueryStreaming
  /// implementations); 0 when unknown (buffered exchanges, empty results).
  double first_row_ms = 0.0;
};

/// One batch of rows delivered through a streaming query, in ID space
/// like QueryResponse: `ids_dict` resolves `ids`. Batches of one response
/// carry the same variable set.
struct StreamBatch {
  std::shared_ptr<core::IdTable> ids;
  std::shared_ptr<const rdf::TermSource> ids_dict;

  size_t NumRows() const { return ids->NumRows(); }
};

/// Row-batch consumer for QueryStreaming. Returning a non-OK status stops
/// the stream: the producer abandons remaining work (cancelling upstream
/// fetches where it can) and QueryStreaming returns that status. The sink
/// is invoked from the producer's thread, synchronously — a sink that
/// blocks (a slow socket write) back-pressures the producer instead of
/// letting it buffer unboundedly. On success the sink runs at least once:
/// an empty result still delivers one zero-row batch so the consumer
/// learns the variable set (streaming serializers need it for the head).
using StreamSink = std::function<Status(StreamBatch&&)>;

/// Tuning for one streaming query.
struct StreamOptions {
  /// Target rows per delivered batch (and per wire chunk).
  size_t batch_rows = 256;

  /// Stop after delivering this many rows (0 = unlimited). This is a
  /// *budget*, not a LIMIT: the producer may cut evaluation short once the
  /// budget is met, so the caller must treat a budget-bounded stream as
  /// possibly truncated.
  uint64_t max_rows = 0;
};

/// Summary of a completed stream: the per-exchange accounting of
/// QueryResponse, whose `ids` is a zero-row table naming the variables
/// (the rows went through the sink), plus how many rows were delivered
/// and whether a budget cut them short.
struct StreamSummary {
  QueryResponse response;   ///< Accounting; `ids` holds no rows.
  uint64_t rows_delivered = 0;
  bool truncated = false;   ///< StreamOptions::max_rows cut the stream.
};

/// Abstract SPARQL endpoint. Federated engines interact with endpoints
/// exclusively through query *text* — exactly like HTTP SPARQL protocol
/// endpoints in the paper — so request counts and byte volumes are honest.
class Endpoint {
 public:
  virtual ~Endpoint() = default;

  /// Stable endpoint identifier (plays the role of the endpoint URL).
  virtual const std::string& id() const = 0;

  /// Parses and evaluates `sparql_text` under `cancel`, charging simulated
  /// network cost. ASK answers have zero columns and 0 or 1 rows.
  /// This is the one buffered entry point an endpoint implements:
  /// implementations that evaluate locally check the token between work
  /// chunks, transports watch it while waiting on the wire, and
  /// decorators hand it to the endpoint they wrap, so an explicit cancel
  /// and the token's deadline reach every hop. Thread-safe.
  virtual Result<QueryResponse> QueryCancellable(const std::string& sparql_text,
                                                 const CancelToken& cancel) = 0;

  /// Convenience forwarders to QueryCancellable. They stay virtual only so
  /// decorators written against the older three-method contract (the
  /// benchmark's timing probe) still compile; new endpoints override
  /// QueryCancellable alone. Runs with an inert token.
  virtual Result<QueryResponse> Query(const std::string& sparql_text) {
    return QueryCancellable(sparql_text, CancelToken());
  }

  /// Runs QueryCancellable with a deadline-only token.
  virtual Result<QueryResponse> QueryWithDeadline(
      const std::string& sparql_text, const Deadline& deadline) {
    return QueryCancellable(sparql_text, CancelToken(deadline));
  }

  /// Streaming variant: rows reach the caller in batches through `sink`
  /// while the query runs, so no hop has to hold the whole answer. The
  /// default evaluates via QueryCancellable and then delivers the
  /// answer's ids in `options.batch_rows` slices — wire transports
  /// (rpc::HttpSparqlEndpoint) override this with true incremental
  /// decoding, and decorators pass it through. Batches stop early when
  /// the sink errors, the token fires, or `options.max_rows` is met.
  virtual Result<StreamSummary> QueryStreaming(const std::string& sparql_text,
                                               const CancelToken& cancel,
                                               const StreamOptions& options,
                                               const StreamSink& sink);

  /// Adds this endpoint's telemetry to `snapshot` at scrape time. An
  /// endpoint with counters of its own exports them; a decorator exports
  /// its own and then forwards to every endpoint it wraps, so one call on
  /// the outermost endpoint reports the whole stack, each layer once.
  /// The default has nothing to report.
  virtual void ExportMetrics(obs::MetricsSnapshot* /*snapshot*/) const {}

  /// False when this endpoint knows it cannot answer a request now (every
  /// replica behind an open circuit breaker), so source selection skips
  /// probing it. Decorators forward to the endpoint they wrap; the
  /// default, with no health state to consult, is always available.
  virtual bool Available() const { return true; }

  /// Hands a transport the dictionary to parse later responses into (an
  /// engine's own, so Federation::ToIds consumes the ids with no
  /// re-encoding); nullptr restores the transport's private one.
  /// Decorators forward it to every endpoint they wrap, so one call on
  /// the outermost endpoint reaches every transport in the stack. The
  /// default, with nothing to parse, ignores it. Call before issuing the
  /// queries it should affect.
  virtual void set_parse_dictionary(
      std::shared_ptr<core::TermDictionary> /*dict*/) {}
};

}  // namespace lusail::net

#endif  // LUSAIL_NET_ENDPOINT_H_

#ifndef LUSAIL_NET_SPARQL_ENDPOINT_H_
#define LUSAIL_NET_SPARQL_ENDPOINT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "net/endpoint.h"
#include "net/latency_model.h"
#include "sparql/evaluator.h"
#include "store/triple_store.h"

namespace lusail::net {

/// Cumulative request statistics of one endpoint (server-side view).
struct EndpointStats {
  uint64_t requests = 0;
  uint64_t ask_requests = 0;
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  uint64_t rows_out = 0;
};

/// A simulated SPARQL endpoint: a frozen TripleStore plus the local query
/// engine, fronted by the text-query interface and a latency model. This
/// plays the role of a Fuseki/Virtuoso server in the paper's setup.
///
/// Answers leave in store ids: QueryResponse::ids holds the evaluator's
/// columns and ids_dict a sparql::AnswerTerms over the store dictionary
/// (shared, so a response may outlive the endpoint) plus the answer's
/// foreign terms. response_bytes is what the answer's wire form would
/// weigh, exactly as for a string table.
class SparqlEndpoint : public Endpoint {
 public:
  /// Takes ownership of `store`; the store must already be frozen (or it
  /// will be frozen here).
  SparqlEndpoint(std::string id, std::unique_ptr<store::TripleStore> store,
                 LatencyModel latency);

  const std::string& id() const override { return id_; }

  /// Threads the token into the local evaluator, so a long-running
  /// evaluation aborts within one batch or ~1k index probes of the token
  /// firing (deadline expiry or explicit cancel) and returns no rows.
  Result<QueryResponse> QueryCancellable(const std::string& sparql_text,
                                         const CancelToken& cancel) override;

  /// Direct (non-network) access for workload generators and tests.
  const store::TripleStore& store() const { return *store_; }

  const LatencyModel& latency() const { return latency_; }
  void set_latency(LatencyModel latency) { latency_ = latency; }

  /// Server-side cumulative statistics.
  EndpointStats stats() const;
  void ResetStats();

 private:
  /// The store's dictionary, sharing ownership of the store.
  std::shared_ptr<const rdf::Dictionary> StoreDictionary() const;

  std::string id_;
  std::shared_ptr<store::TripleStore> store_;
  /// The store dictionary as a TermSource, for answers with no foreign
  /// terms (most of them): one shared instance, no per-response copy.
  std::shared_ptr<const sparql::AnswerTerms> store_terms_;
  sparql::Evaluator evaluator_;
  LatencyModel latency_;

  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> ask_requests_{0};
  std::atomic<uint64_t> bytes_in_{0};
  std::atomic<uint64_t> bytes_out_{0};
  std::atomic<uint64_t> rows_out_{0};
};

}  // namespace lusail::net

#endif  // LUSAIL_NET_SPARQL_ENDPOINT_H_

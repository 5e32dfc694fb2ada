#include "net/sparql_endpoint.h"

#include "common/stopwatch.h"
#include "sparql/parser.h"

namespace lusail::net {

SparqlEndpoint::SparqlEndpoint(std::string id,
                               std::unique_ptr<store::TripleStore> store,
                               LatencyModel latency)
    : id_(std::move(id)),
      store_(std::move(store)),
      evaluator_(store_.get()),
      latency_(latency) {
  if (!store_->frozen()) store_->Freeze();
}

Result<QueryResponse> SparqlEndpoint::QueryCancellable(
    const std::string& sparql_text, const CancelToken& cancel) {
  Stopwatch server_timer;
  LUSAIL_ASSIGN_OR_RETURN(sparql::Query query,
                          sparql::ParseQuery(sparql_text));
  QueryResponse response;
  LUSAIL_ASSIGN_OR_RETURN(response.table, evaluator_.Execute(query, cancel));
  response.server_ms = server_timer.ElapsedMillis();

  response.request_bytes = sparql_text.size();
  response.response_bytes = response.table.SerializedBytes();
  response.network_ms =
      latency_.CostMillis(response.request_bytes, response.response_bytes);

  requests_.fetch_add(1, std::memory_order_relaxed);
  if (query.form == sparql::QueryForm::kAsk) {
    ask_requests_.fetch_add(1, std::memory_order_relaxed);
  }
  bytes_in_.fetch_add(response.request_bytes, std::memory_order_relaxed);
  bytes_out_.fetch_add(response.response_bytes, std::memory_order_relaxed);
  rows_out_.fetch_add(response.table.NumRows(), std::memory_order_relaxed);

  latency_.Impose(response.request_bytes, response.response_bytes);
  return response;
}

EndpointStats SparqlEndpoint::stats() const {
  EndpointStats s;
  s.requests = requests_.load(std::memory_order_relaxed);
  s.ask_requests = ask_requests_.load(std::memory_order_relaxed);
  s.bytes_in = bytes_in_.load(std::memory_order_relaxed);
  s.bytes_out = bytes_out_.load(std::memory_order_relaxed);
  s.rows_out = rows_out_.load(std::memory_order_relaxed);
  return s;
}

void SparqlEndpoint::ResetStats() {
  requests_ = 0;
  ask_requests_ = 0;
  bytes_in_ = 0;
  bytes_out_ = 0;
  rows_out_ = 0;
}

}  // namespace lusail::net

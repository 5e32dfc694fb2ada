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
  store_terms_ = std::make_shared<const sparql::AnswerTerms>(
      StoreDictionary(), std::vector<rdf::Term>());
}

std::shared_ptr<const rdf::Dictionary> SparqlEndpoint::StoreDictionary()
    const {
  return std::shared_ptr<const rdf::Dictionary>(store_, &store_->dict());
}

Result<QueryResponse> SparqlEndpoint::QueryCancellable(
    const std::string& sparql_text, const CancelToken& cancel) {
  Stopwatch server_timer;
  LUSAIL_ASSIGN_OR_RETURN(sparql::Query query,
                          sparql::ParseQuery(sparql_text));
  LUSAIL_ASSIGN_OR_RETURN(sparql::IdAnswer answer,
                          evaluator_.ExecuteIds(query, cancel));
  QueryResponse response;
  response.ids_dict = answer.foreign.empty()
                          ? store_terms_
                          : std::make_shared<const sparql::AnswerTerms>(
                                StoreDictionary(), std::move(answer.foreign));
  response.ids = std::make_shared<core::IdTable>(core::IdTable::FromColumns(
      std::move(answer.vars), std::move(answer.columns), answer.num_rows));
  response.server_ms = server_timer.ElapsedMillis();

  response.request_bytes = sparql_text.size();
  response.response_bytes =
      core::SerializedBytes(*response.ids, *response.ids_dict);
  response.network_ms =
      latency_.CostMillis(response.request_bytes, response.response_bytes);

  requests_.fetch_add(1, std::memory_order_relaxed);
  if (query.form == sparql::QueryForm::kAsk) {
    ask_requests_.fetch_add(1, std::memory_order_relaxed);
  }
  bytes_in_.fetch_add(response.request_bytes, std::memory_order_relaxed);
  bytes_out_.fetch_add(response.response_bytes, std::memory_order_relaxed);
  rows_out_.fetch_add(response.RowCount(), std::memory_order_relaxed);

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

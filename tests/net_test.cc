#include <memory>
#include <thread>

#include <gtest/gtest.h>

#include "common/stopwatch.h"
#include "net/fault_injection.h"
#include "net/latency_model.h"
#include "net/resilience.h"
#include "net/sparql_endpoint.h"
#include "store/triple_store.h"

namespace lusail::net {
namespace {

std::unique_ptr<store::TripleStore> MakeStore() {
  auto store = std::make_unique<store::TripleStore>();
  for (int i = 0; i < 10; ++i) {
    store->Add(rdf::TermTriple{
        rdf::Term::Iri("http://ex/s" + std::to_string(i)),
        rdf::Term::Iri("http://ex/p"), rdf::Term::Integer(i)});
  }
  store->Freeze();
  return store;
}

TEST(LatencyModelTest, CostFormula) {
  LatencyModel model{10.0, 100.0, 0.0};  // 10ms + bytes/100 per ms.
  EXPECT_DOUBLE_EQ(model.CostMillis(50, 150), 10.0 + 2.0);
  LatencyModel infinite_bw{5.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(infinite_bw.CostMillis(1000, 1000), 5.0);
}

TEST(LatencyModelTest, PresetsAreOrdered) {
  EXPECT_LT(LatencyModel::LocalCluster().request_latency_ms,
            LatencyModel::GeoDistributed().request_latency_ms);
  EXPECT_GT(LatencyModel::LocalCluster().bandwidth_bytes_per_ms,
            LatencyModel::GeoDistributed().bandwidth_bytes_per_ms);
  EXPECT_DOUBLE_EQ(LatencyModel::None().CostMillis(1 << 20, 1 << 20), 0.0);
}

TEST(SparqlEndpointTest, AnswersSelect) {
  SparqlEndpoint endpoint("ep0", MakeStore(), LatencyModel::None());
  auto response =
      endpoint.Query("SELECT ?s ?o WHERE { ?s <http://ex/p> ?o . }");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->RowCount(), 10u);
  EXPECT_GT(response->response_bytes, 0u);
  EXPECT_GT(response->request_bytes, 0u);
}

TEST(SparqlEndpointTest, AnswersAsk) {
  SparqlEndpoint endpoint("ep0", MakeStore(), LatencyModel::None());
  auto yes = endpoint.Query("ASK { ?s <http://ex/p> 3 . }");
  ASSERT_TRUE(yes.ok());
  EXPECT_EQ(yes->RowCount(), 1u);
  auto no = endpoint.Query("ASK { ?s <http://ex/p> 99 . }");
  ASSERT_TRUE(no.ok());
  EXPECT_EQ(no->RowCount(), 0u);
}

TEST(SparqlEndpointTest, RejectsBadQueryText) {
  SparqlEndpoint endpoint("ep0", MakeStore(), LatencyModel::None());
  auto response = endpoint.Query("this is not sparql");
  EXPECT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kParseError);
}

TEST(SparqlEndpointTest, AccumulatesStats) {
  SparqlEndpoint endpoint("ep0", MakeStore(), LatencyModel::None());
  ASSERT_TRUE(endpoint.Query("ASK { ?s ?p ?o . }").ok());
  ASSERT_TRUE(
      endpoint.Query("SELECT ?s WHERE { ?s <http://ex/p> ?o . }").ok());
  EndpointStats stats = endpoint.stats();
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.ask_requests, 1u);
  EXPECT_EQ(stats.rows_out, 11u);  // 1 ASK row + 10 bindings.
  EXPECT_GT(stats.bytes_in, 0u);
  endpoint.ResetStats();
  EXPECT_EQ(endpoint.stats().requests, 0u);
}

TEST(SparqlEndpointTest, ChargesNetworkCost) {
  // Accounting-only model (no sleeping): the charge must follow the
  // formula exactly.
  LatencyModel model{7.0, 1000.0, 0.0};
  SparqlEndpoint endpoint("ep0", MakeStore(), model);
  std::string query = "SELECT ?s ?o WHERE { ?s <http://ex/p> ?o . }";
  auto response = endpoint.Query(query);
  ASSERT_TRUE(response.ok());
  double expected =
      7.0 + (query.size() + response->response_bytes) / 1000.0;
  EXPECT_DOUBLE_EQ(response->network_ms, expected);
}

TEST(SparqlEndpointTest, SleepScaleImposesRealDelay) {
  LatencyModel model{20.0, 0.0, 1.0};
  SparqlEndpoint endpoint("ep0", MakeStore(), model);
  Stopwatch timer;
  ASSERT_TRUE(endpoint.Query("ASK { ?s ?p ?o . }").ok());
  EXPECT_GE(timer.ElapsedMillis(), 15.0);
}

// ---------------------------------------------------------------------
// Retry loop deadline handling
// ---------------------------------------------------------------------

TEST(RetryDeadlineTest, ExpiredDeadlineFailsBeforeAnyAttempt) {
  SparqlEndpoint endpoint("ep0", MakeStore(), LatencyModel::None());
  Deadline deadline = Deadline::AfterMillis(0);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  RetryOutcome outcome;
  auto r = QueryWithRetry(&endpoint, "ASK { ?s ?p ?o . }",
                          CancelToken(deadline), RetryPolicy::Standard(4),
                          nullptr, &outcome);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kTimeout);
  EXPECT_EQ(outcome.attempts, 0);
}

TEST(RetryDeadlineTest, BackoffNeverSleepsPastDeadline) {
  // A permanently-down endpoint with a retry budget whose nominal backoff
  // (50 attempts x up to 1 s) dwarfs the 40 ms deadline: the loop must
  // give up at the deadline, not after the backoff schedule.
  auto injector = std::make_shared<FaultInjectingEndpoint>(
      std::make_shared<SparqlEndpoint>("ep0", MakeStore(),
                                       LatencyModel::None()),
      FaultProfile::None());
  injector->set_down(true);
  RetryPolicy policy;
  policy.max_attempts = 50;
  policy.initial_backoff_ms = 30.0;
  policy.max_backoff_ms = 1000.0;
  Deadline deadline = Deadline::AfterMillis(40);
  Stopwatch timer;
  RetryOutcome outcome;
  auto r = QueryWithRetry(injector.get(), "ASK { ?s ?p ?o . }",
                          CancelToken(deadline), policy, nullptr, &outcome);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kTimeout);
  EXPECT_LT(timer.ElapsedMillis(), 500.0);
  EXPECT_LT(outcome.attempts, 50);
}

TEST(RetryDeadlineTest, RetrySucceedsWithinGenerousDeadline) {
  auto injector = std::make_shared<FaultInjectingEndpoint>(
      std::make_shared<SparqlEndpoint>("ep0", MakeStore(),
                                       LatencyModel::None()),
      FaultProfile::Transient(0.5, 3));
  RetryPolicy policy = RetryPolicy::Standard(10);
  policy.initial_backoff_ms = 0.1;
  policy.max_backoff_ms = 0.5;
  for (int i = 0; i < 10; ++i) {
    RetryOutcome outcome;
    auto r = QueryWithRetry(injector.get(), "ASK { ?s <http://ex/p> ?o . }",
                            CancelToken(Deadline::AfterMillis(5000)), policy,
                            nullptr, &outcome);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_GE(outcome.attempts, 1);
  }
}

TEST(SparqlEndpointTest, FreezesUnfrozenStore) {
  auto store = std::make_unique<store::TripleStore>();
  store->Add(rdf::TermTriple{rdf::Term::Iri("http://s"),
                             rdf::Term::Iri("http://p"),
                             rdf::Term::Iri("http://o")});
  // Intentionally not frozen.
  SparqlEndpoint endpoint("ep0", std::move(store), LatencyModel::None());
  EXPECT_TRUE(endpoint.store().frozen());
}

}  // namespace
}  // namespace lusail::net

// Tests for the rpc wire layer: SRJ round-trips (including the term
// zoo and ASK's boolean form), the HTTP server's protocol negatives
// against raw sockets, the HttpSparqlEndpoint client (keep-alive reuse,
// deadlines, status fidelity, dead-server handling), and full loopback
// LUBM federations running the engine over real TCP sockets — with the
// resilience / partial-results stack composed on top.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cache/cached_endpoint.h"
#include "cache/federation_cache.h"
#include "cache/query_service.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "core/lusail_engine.h"
#include "net/fault_injection.h"
#include "net/replica.h"
#include "net/resilience.h"
#include "net/sparql_endpoint.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_context.h"
#include "rpc/http.h"
#include "rpc/http_server.h"
#include "rpc/http_sparql_endpoint.h"
#include "rpc/results_json.h"
#include "shard/shard_map.h"
#include "shard/sharded_endpoint.h"
#include "store/triple_store.h"
#include "workload/federation_builder.h"
#include "workload/lubm_generator.h"

namespace lusail {
namespace {

using rpc::HttpServer;
using rpc::HttpServerOptions;
using rpc::HttpSparqlEndpoint;
using rpc::ParseSrj;
using rpc::ResultTableToSrj;

// ---------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------

/// Order-independent row fingerprints for result comparison.
std::vector<std::string> CanonicalRows(const sparql::ResultTable& table) {
  std::vector<std::string> rows;
  for (const auto& row : table.rows) {
    std::string s;
    for (const auto& cell : row) {
      s += cell.has_value() ? cell->ToString() : "UNDEF";
      s += "\x1f";
    }
    rows.push_back(std::move(s));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

std::unique_ptr<store::TripleStore> TinyStore() {
  auto store = std::make_unique<store::TripleStore>();
  for (int i = 0; i < 5; ++i) {
    store->Add(rdf::TermTriple{
        rdf::Term::Iri("http://ex/s" + std::to_string(i)),
        rdf::Term::Iri("http://ex/p"), rdf::Term::Integer(i)});
  }
  store->Freeze();
  return store;
}

std::shared_ptr<net::SparqlEndpoint> TinyEndpoint(const std::string& id) {
  return std::make_shared<net::SparqlEndpoint>(id, TinyStore(),
                                               net::LatencyModel::None());
}

/// Sends `request` as raw bytes to 127.0.0.1:`port` and returns whatever
/// the server writes back until it closes the connection.
std::string RawExchange(uint16_t port, const std::string& request) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  size_t sent = 0;
  while (sent < request.size()) {
    ssize_t n = ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buf[4096];
  for (;;) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

/// A TCP listener that accepts connections and never answers — the
/// canonical hung server for deadline tests.
class SilentServer {
 public:
  SilentServer() {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    struct sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = 0;
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    ::bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
           sizeof(addr));
    ::listen(listen_fd_, 8);
    socklen_t len = sizeof(addr);
    ::getsockname(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
                  &len);
    port_ = ntohs(addr.sin_port);
    acceptor_ = std::thread([this] {
      for (;;) {
        int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) return;
        accepted_.push_back(fd);  // Hold open, never respond.
      }
    });
  }
  ~SilentServer() {
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    if (acceptor_.joinable()) acceptor_.join();
    for (int fd : accepted_) ::close(fd);
  }
  uint16_t port() const { return port_; }

 private:
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread acceptor_;
  std::vector<int> accepted_;
};

// ---------------------------------------------------------------------
// SRJ serializer/parser
// ---------------------------------------------------------------------

TEST(SrjTest, RoundTripsTermZoo) {
  sparql::ResultTable table;
  table.vars = {"a", "b", "c"};
  table.rows.push_back({rdf::Term::Iri("http://ex/thing?q=1&x=\"y\""),
                        rdf::Term::Literal("plain \"quoted\"\nline"),
                        rdf::Term::BlankNode("b0")});
  table.rows.push_back({rdf::Term::TypedLiteral("42",
                                                std::string(rdf::kXsdInteger)),
                        rdf::Term::LangLiteral("hallo", "de"),
                        std::nullopt});
  table.rows.push_back({std::nullopt, std::nullopt, std::nullopt});
  table.rows.push_back({rdf::Term::Double(2.5),
                        rdf::Term::Literal(""),
                        rdf::Term::Iri("http://ex/unicode/\xC3\xA9")});

  Result<sparql::ResultTable> back = ParseSrj(ResultTableToSrj(table));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->vars, table.vars);
  ASSERT_EQ(back->rows.size(), table.rows.size());
  // Exact (ordered) round trip, cell by cell.
  for (size_t r = 0; r < table.rows.size(); ++r) {
    for (size_t c = 0; c < table.vars.size(); ++c) {
      const auto& want = table.rows[r][c];
      const auto& got = back->rows[r][c];
      ASSERT_EQ(want.has_value(), got.has_value()) << "row " << r;
      if (want.has_value()) {
        EXPECT_EQ(want->ToString(), got->ToString()) << "row " << r;
      }
    }
  }
}

TEST(SrjTest, EmptyStringLiteralRoundTripsAsBound) {
  // "" is a real RDF literal, distinct from an unbound cell; the codec
  // must keep the binding present with an empty lexical form, not drop
  // it into nullopt on either leg of the round trip.
  sparql::ResultTable table;
  table.vars = {"x", "y"};
  table.rows.push_back({rdf::Term::Literal(""), std::nullopt});
  Result<sparql::ResultTable> back = ParseSrj(ResultTableToSrj(table));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->rows.size(), 1u);
  ASSERT_TRUE(back->rows[0][0].has_value());
  EXPECT_TRUE(back->rows[0][0]->is_literal());
  EXPECT_EQ(back->rows[0][0]->lexical(), "");
  EXPECT_TRUE(back->rows[0][0]->lang().empty());
  EXPECT_FALSE(back->rows[0][1].has_value());
}

TEST(SrjTest, NonEmptyLanguageTagWinsOverDatatype) {
  // Lax producers emit both xml:lang and datatype on one binding. The
  // SPARQL data model says a language-tagged literal's datatype is
  // implied (rdf:langString), so a non-empty tag takes precedence.
  Result<sparql::ResultTable> parsed = ParseSrj(
      "{\"head\":{\"vars\":[\"x\"]},\"results\":{\"bindings\":"
      "[{\"x\":{\"type\":\"literal\",\"value\":\"bonjour\","
      "\"xml:lang\":\"fr\","
      "\"datatype\":\"http://www.w3.org/2001/XMLSchema#string\"}}]}}");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->rows.size(), 1u);
  ASSERT_TRUE(parsed->rows[0][0].has_value());
  EXPECT_EQ(parsed->rows[0][0]->lang(), "fr");
  EXPECT_EQ(parsed->rows[0][0]->lexical(), "bonjour");
  EXPECT_TRUE(parsed->rows[0][0]->datatype().empty());
}

TEST(SrjTest, EmptyLanguageTagDoesNotShadowDatatype) {
  // Regression: a present-but-empty xml:lang used to shadow the
  // datatype, silently turning typed literals into plain ones.
  Result<sparql::ResultTable> parsed = ParseSrj(
      "{\"head\":{\"vars\":[\"x\"]},\"results\":{\"bindings\":"
      "[{\"x\":{\"type\":\"literal\",\"value\":\"42\",\"xml:lang\":\"\","
      "\"datatype\":\"http://www.w3.org/2001/XMLSchema#integer\"}}]}}");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->rows.size(), 1u);
  ASSERT_TRUE(parsed->rows[0][0].has_value());
  EXPECT_TRUE(parsed->rows[0][0]->lang().empty());
  EXPECT_EQ(parsed->rows[0][0]->datatype(),
            "http://www.w3.org/2001/XMLSchema#integer");
  EXPECT_EQ(parsed->rows[0][0]->lexical(), "42");
}

TEST(SrjTest, RoundTripsAskBooleanForm) {
  // ASK true: zero columns, one row.
  sparql::ResultTable yes;
  yes.rows.push_back({});
  std::string yes_srj = ResultTableToSrj(yes);
  EXPECT_NE(yes_srj.find("\"boolean\":true"), std::string::npos) << yes_srj;
  Result<sparql::ResultTable> yes_back = ParseSrj(yes_srj);
  ASSERT_TRUE(yes_back.ok());
  EXPECT_TRUE(yes_back->vars.empty());
  EXPECT_EQ(yes_back->rows.size(), 1u);

  // ASK false: zero columns, zero rows.
  sparql::ResultTable no;
  std::string no_srj = ResultTableToSrj(no);
  EXPECT_NE(no_srj.find("\"boolean\":false"), std::string::npos) << no_srj;
  Result<sparql::ResultTable> no_back = ParseSrj(no_srj);
  ASSERT_TRUE(no_back.ok());
  EXPECT_TRUE(no_back->vars.empty());
  EXPECT_EQ(no_back->rows.size(), 0u);
}

TEST(SrjTest, RejectsMalformedDocuments) {
  const char* cases[] = {
      "",                                     // empty
      "not json at all",                      // garbage
      "[1,2,3]",                              // wrong root type
      "{}",                                   // no head
      "{\"head\":{\"vars\":[\"x\"]}}",        // no results/boolean
      "{\"head\":{\"vars\":[\"x\"]},\"results\":{}}",          // no bindings
      "{\"head\":{\"vars\":[\"x\"]},\"results\":{\"bindings\":42}}",
      "{\"head\":{\"vars\":[\"x\"]},\"results\":{\"bindings\":"
      "[{\"x\":{\"type\":\"warp\",\"value\":\"v\"}}]}}",  // unknown type
      "{\"head\":{\"vars\":[\"x\"]},\"results\":{\"bindings\":"
      "[{\"x\":{\"type\":\"uri\"}}]}}",       // term without value
      "{\"head\":{},\"boolean\":\"yes\"}",    // non-boolean boolean
      "{\"head\":{\"vars\":[\"x\"]},\"results\":{\"bindings\":[",  // cut off
  };
  for (const char* text : cases) {
    Result<sparql::ResultTable> parsed = ParseSrj(text);
    EXPECT_FALSE(parsed.ok()) << "accepted: " << text;
  }
}

// ---------------------------------------------------------------------
// HTTP server protocol negatives (raw sockets)
// ---------------------------------------------------------------------

class HttpWireTest : public ::testing::Test {
 protected:
  void SetUp() override {
    HttpServerOptions options;
    options.limits.max_header_bytes = 1024;  // Small enough to trip below.
    server_ = std::make_unique<HttpServer>(TinyEndpoint("EP"), options);
    ASSERT_TRUE(server_->Start().ok());
  }
  void TearDown() override { server_->Stop(); }

  std::unique_ptr<HttpServer> server_;
};

TEST_F(HttpWireTest, MalformedRequestLineIs400) {
  std::string response =
      RawExchange(server_->port(), "THIS IS NOT HTTP\r\n\r\n");
  EXPECT_NE(response.find("HTTP/1.1 400"), std::string::npos) << response;
}

TEST_F(HttpWireTest, UnknownRouteIs404) {
  std::string response = RawExchange(
      server_->port(),
      "GET /nope HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n");
  EXPECT_NE(response.find("HTTP/1.1 404"), std::string::npos) << response;
  EXPECT_NE(response.find("NotFound"), std::string::npos) << response;
}

TEST_F(HttpWireTest, GetOnSparqlRouteIs405) {
  std::string response = RawExchange(
      server_->port(),
      "GET /sparql HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n");
  EXPECT_NE(response.find("HTTP/1.1 405"), std::string::npos) << response;
  EXPECT_NE(response.find("Allow: POST"), std::string::npos) << response;
}

TEST_F(HttpWireTest, WrongContentTypeIs415) {
  std::string body = "{\"not\":\"sparql\"}";
  std::string response = RawExchange(
      server_->port(),
      "POST /sparql HTTP/1.1\r\nHost: x\r\nContent-Type: application/json"
      "\r\nContent-Length: " + std::to_string(body.size()) +
      "\r\nConnection: close\r\n\r\n" + body);
  EXPECT_NE(response.find("HTTP/1.1 415"), std::string::npos) << response;
}

TEST_F(HttpWireTest, OversizedHeadersAre413) {
  std::string big(4096, 'x');  // Exceeds the 1024-byte header limit.
  std::string response = RawExchange(
      server_->port(),
      "POST /sparql HTTP/1.1\r\nHost: x\r\nX-Padding: " + big +
      "\r\n\r\n");
  EXPECT_NE(response.find("HTTP/1.1 413"), std::string::npos) << response;
}

TEST_F(HttpWireTest, HealthRouteReportsEndpointId) {
  std::string response = RawExchange(
      server_->port(),
      "GET /health HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n");
  EXPECT_NE(response.find("HTTP/1.1 200"), std::string::npos) << response;
  EXPECT_NE(response.find("\"endpoint\":\"EP\""), std::string::npos)
      << response;
  EXPECT_GT(server_->stats().connections_accepted, 0u);
}

// ---------------------------------------------------------------------
// HttpSparqlEndpoint client
// ---------------------------------------------------------------------

class HttpEndpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    direct_ = TinyEndpoint("EP");
    server_ = std::make_unique<HttpServer>(direct_);
    ASSERT_TRUE(server_->Start().ok());
    remote_ = std::make_unique<HttpSparqlEndpoint>("EP", "127.0.0.1",
                                                   server_->port());
  }
  void TearDown() override { server_->Stop(); }

  std::shared_ptr<net::SparqlEndpoint> direct_;
  std::unique_ptr<HttpServer> server_;
  std::unique_ptr<HttpSparqlEndpoint> remote_;
};

TEST_F(HttpEndpointTest, SelectMatchesDirectEndpoint) {
  const std::string query =
      "SELECT ?s ?o WHERE { ?s <http://ex/p> ?o } ORDER BY ?s";
  Result<net::QueryResponse> direct = direct_->Query(query);
  Result<net::QueryResponse> remote = remote_->Query(query);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  sparql::ResultTable direct_table = *fed::Federation::ToTable(direct);
  sparql::ResultTable remote_table = *fed::Federation::ToTable(remote);
  EXPECT_EQ(remote_table.vars, direct_table.vars);
  EXPECT_EQ(CanonicalRows(remote_table), CanonicalRows(direct_table));
  EXPECT_EQ(remote_table.rows.size(), 5u);
  EXPECT_TRUE(remote->transport.over_network);
  EXPECT_GT(remote->transport.wire_bytes_sent, 0u);
  EXPECT_GT(remote->transport.wire_bytes_received, 0u);
  EXPECT_FALSE(direct->transport.over_network);
}

TEST_F(HttpEndpointTest, AskTravelsAsBooleanForm) {
  Result<net::QueryResponse> yes =
      remote_->Query("ASK { <http://ex/s0> <http://ex/p> ?o }");
  ASSERT_TRUE(yes.ok()) << yes.status().ToString();
  sparql::ResultTable yes_table = *fed::Federation::ToTable(yes);
  EXPECT_TRUE(yes_table.vars.empty());
  EXPECT_EQ(yes_table.rows.size(), 1u);

  Result<net::QueryResponse> no =
      remote_->Query("ASK { <http://ex/absent> <http://ex/p> ?o }");
  ASSERT_TRUE(no.ok()) << no.status().ToString();
  sparql::ResultTable no_table = *fed::Federation::ToTable(no);
  EXPECT_TRUE(no_table.vars.empty());
  EXPECT_EQ(no_table.rows.size(), 0u);
}

TEST_F(HttpEndpointTest, KeepAliveReusesTheConnection) {
  const std::string query = "SELECT ?s WHERE { ?s <http://ex/p> ?o }";
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(remote_->Query(query).ok());
  }
  rpc::HttpClientStats stats = remote_->stats();
  EXPECT_EQ(stats.requests, 3u);
  EXPECT_EQ(stats.connections_opened, 1u);
  EXPECT_EQ(stats.connections_reused, 2u);

  // Reuse is visible in the per-response transport info too.
  Result<net::QueryResponse> again = remote_->Query(query);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->transport.reused_connection);
}

TEST_F(HttpEndpointTest, ParseErrorsSurviveTheWire) {
  Result<net::QueryResponse> direct = direct_->Query("SELEKT garbage !!");
  Result<net::QueryResponse> remote = remote_->Query("SELEKT garbage !!");
  ASSERT_FALSE(direct.ok());
  ASSERT_FALSE(remote.ok());
  // The exact status code crosses the wire via the error body, so the
  // remote failure classifies (and retries) exactly like the local one.
  EXPECT_EQ(remote.status().code(), direct.status().code());
  EXPECT_EQ(server_->stats().failed_queries, 1u);
}

TEST_F(HttpEndpointTest, DeadlineExpiresAgainstASilentServer) {
  SilentServer silent;
  HttpSparqlEndpoint hung("HUNG", "127.0.0.1", silent.port());
  Stopwatch timer;
  Result<net::QueryResponse> response = hung.QueryWithDeadline(
      "SELECT ?s WHERE { ?s ?p ?o }", Deadline::AfterMillis(200));
  EXPECT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kTimeout)
      << response.status().ToString();
  // It honored the deadline rather than the 30s default.
  EXPECT_LT(timer.ElapsedMillis(), 5000.0);
}

TEST_F(HttpEndpointTest, StoppedServerBecomesUnavailable) {
  const std::string query = "SELECT ?s WHERE { ?s <http://ex/p> ?o }";
  ASSERT_TRUE(remote_->Query(query).ok());  // Pools a live connection.
  server_->Stop();
  Result<net::QueryResponse> after = remote_->Query(query);
  ASSERT_FALSE(after.ok());
  // A transport-level failure must classify as retryable unavailability,
  // never hang and never poison later calls.
  EXPECT_EQ(after.status().code(), StatusCode::kUnavailable)
      << after.status().ToString();
}

TEST_F(HttpEndpointTest, TruncationCapAppliesRemoteRowLimit) {
  HttpServerOptions capped_options;
  capped_options.max_result_rows = 2;
  HttpServer capped(direct_, capped_options);
  ASSERT_TRUE(capped.Start().ok());
  HttpSparqlEndpoint client("EP", "127.0.0.1", capped.port());
  Result<net::QueryResponse> response =
      client.Query("SELECT ?s WHERE { ?s <http://ex/p> ?o }");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(fed::Federation::ToTable(response)->rows.size(), 2u);
  EXPECT_EQ(capped.stats().truncated_results, 1u);
  capped.Stop();
}

// ---------------------------------------------------------------------
// Loopback federation: the engine over real TCP sockets
// ---------------------------------------------------------------------

/// Three LUBM universities, each served by its own HttpServer on a
/// loopback port, plus the equivalent in-process federation for
/// row-identity checks.
class LoopbackFederationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    workload::LubmConfig config = workload::LubmConfig::Small();
    config.num_universities = 3;
    std::vector<workload::EndpointSpec> specs =
        workload::LubmGenerator(config).GenerateAll();

    in_process_ = workload::BuildFederation(specs, net::LatencyModel::None());

    for (const auto& spec : specs) {
      auto store = std::make_unique<store::TripleStore>();
      for (const auto& triple : spec.triples) store->Add(triple);
      store->Freeze();
      auto endpoint = std::make_shared<net::SparqlEndpoint>(
          spec.id, std::move(store), net::LatencyModel::None());
      auto server = std::make_unique<HttpServer>(endpoint);
      ASSERT_TRUE(server->Start().ok());
      remote_.Add(std::make_shared<HttpSparqlEndpoint>(
          spec.id, "127.0.0.1", server->port()));
      servers_.push_back(std::move(server));
    }
  }
  void TearDown() override {
    for (auto& server : servers_) server->Stop();
  }

  std::unique_ptr<fed::Federation> in_process_;
  fed::Federation remote_;
  std::vector<std::unique_ptr<HttpServer>> servers_;
};

TEST_F(LoopbackFederationTest, LubmQueriesAreRowIdentical) {
  core::LusailEngine local_engine(in_process_.get());
  core::LusailEngine remote_engine(&remote_);
  const std::string queries[] = {workload::LubmGenerator::QueryQa(),
                                 workload::LubmGenerator::Q1()};
  for (const std::string& query : queries) {
    Result<fed::FederatedResult> local = local_engine.Execute(query);
    Result<fed::FederatedResult> remote = remote_engine.Execute(query);
    ASSERT_TRUE(local.ok()) << local.status().ToString();
    ASSERT_TRUE(remote.ok()) << remote.status().ToString();
    EXPECT_GT(remote->table.rows.size(), 0u);
    EXPECT_EQ(CanonicalRows(remote->table), CanonicalRows(local->table));
  }
}

TEST_F(LoopbackFederationTest, ResilienceAndTracingComposeOverTheWire) {
  core::LusailOptions options;
  options.retry_policy = net::RetryPolicy::Standard(3);
  options.trace = true;
  core::LusailEngine engine(&remote_, options);
  Result<fed::FederatedResult> result =
      engine.Execute(workload::LubmGenerator::QueryQa());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_NE(result->profile.trace, nullptr);

  // Request spans carry the physical transport annotations.
  size_t annotated = 0;
  for (const auto& span : result->profile.trace->spans) {
    for (const auto& annotation : span.annotations) {
      if (annotation.key == "net.wire_bytes_received") ++annotated;
    }
  }
  EXPECT_GT(annotated, 0u);
}

TEST_F(LoopbackFederationTest, KilledServerDegradesToPartialResults) {
  // Baseline: the exact answer while all three servers are up.
  core::LusailEngine exact_engine(&remote_);
  Result<fed::FederatedResult> exact =
      exact_engine.Execute(workload::LubmGenerator::QueryQa());
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  std::vector<std::string> exact_rows = CanonicalRows(exact->table);

  servers_[2]->Stop();  // Kill one university.

  // Without degradation the query must fail loudly, not hang.
  core::LusailOptions strict;
  strict.retry_policy = net::RetryPolicy::Standard(2);
  core::LusailEngine strict_engine(&remote_, strict);
  Result<fed::FederatedResult> failed =
      strict_engine.Execute(workload::LubmGenerator::QueryQa());
  EXPECT_FALSE(failed.ok());

  // With partial results the survivors' contribution comes back, flagged
  // as partial, and is a subset of the exact answer.
  core::LusailOptions degraded;
  degraded.retry_policy = net::RetryPolicy::Standard(2);
  degraded.partial_results = true;
  core::LusailEngine degraded_engine(&remote_, degraded);
  Result<fed::FederatedResult> partial =
      degraded_engine.Execute(workload::LubmGenerator::QueryQa());
  ASSERT_TRUE(partial.ok()) << partial.status().ToString();
  EXPECT_TRUE(partial->profile.partial);
  EXPECT_FALSE(partial->profile.failed_endpoint_ids.empty());
  for (const std::string& row : CanonicalRows(partial->table)) {
    EXPECT_TRUE(std::binary_search(exact_rows.begin(), exact_rows.end(), row))
        << "partial result invented row " << row;
  }
}

TEST_F(LoopbackFederationTest, MidQueryServerKillTerminatesCleanly) {
  core::LusailOptions options;
  options.retry_policy = net::RetryPolicy::Standard(2);
  options.partial_results = true;
  core::LusailEngine engine(&remote_, options);

  // Exercise the race from both sides a few times: the kill can land
  // during source selection, COUNT probes, or subquery execution. Any
  // outcome is acceptable except hanging or crashing; an ok result must
  // not invent rows.
  core::LusailEngine exact_engine(&remote_);
  Result<fed::FederatedResult> exact =
      exact_engine.Execute(workload::LubmGenerator::QueryQa());
  ASSERT_TRUE(exact.ok());
  std::vector<std::string> exact_rows = CanonicalRows(exact->table);

  std::thread killer([this] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    servers_[1]->Stop();
  });
  Result<fed::FederatedResult> result = engine.Execute(
      workload::LubmGenerator::QueryQa(), Deadline::AfterMillis(20000));
  killer.join();
  if (result.ok()) {
    for (const std::string& row : CanonicalRows(result->table)) {
      EXPECT_TRUE(
          std::binary_search(exact_rows.begin(), exact_rows.end(), row))
          << "invented row " << row;
    }
  } else {
    // A loud, classified failure is fine too.
    EXPECT_NE(result.status().code(), StatusCode::kOk);
  }
}

// ---------------------------------------------------------------------
// Deadline propagation and cooperative cancellation over the wire
// ---------------------------------------------------------------------

/// An endpoint whose evaluation is expensive but materializes nothing:
/// a three-way cross product over `n` triples whose final FILTER
/// references all three object variables (so it runs at the innermost
/// enumeration step and rejects every candidate). n = 400 gives 6.4e7
/// filter evaluations — multiple seconds of evaluation, zero rows. With
/// `one_subject` every triple shares one subject, so a subject star over
/// <http://ex/p> enumerates the same cross product.
std::shared_ptr<net::SparqlEndpoint> CrossProductEndpoint(
    const std::string& id, int n = 400, bool one_subject = false) {
  auto store = std::make_unique<store::TripleStore>();
  for (int i = 0; i < n; ++i) {
    store->Add(rdf::TermTriple{
        rdf::Term::Iri("http://ex/s" + std::to_string(one_subject ? 0 : i)),
        rdf::Term::Iri("http://ex/p"), rdf::Term::Integer(i)});
  }
  store->Freeze();
  return std::make_shared<net::SparqlEndpoint>(id, std::move(store),
                                               net::LatencyModel::None());
}

const char kSlowQuery[] =
    "SELECT ?a ?b ?c WHERE { ?a <http://ex/p> ?x . ?b <http://ex/p> ?y . "
    "?c <http://ex/p> ?z . FILTER(?x + ?y + ?z < 0) }";

/// The tentpole e2e: a 100 ms client deadline against a multi-second
/// evaluation. The client's budget crosses the wire as
/// X-Lusail-Deadline-Ms, the server derives a local deadline from it,
/// and the evaluator abandons the enumeration within one check chunk of
/// expiry — visible as the server's timed_out_queries counter rising
/// shortly after the deadline, with no rows ever materialized.
TEST(HttpDeadlineTest, ClientDeadlineStopsServerEvaluation) {
  std::shared_ptr<net::SparqlEndpoint> slow = CrossProductEndpoint("SLOW");
  HttpServer server(slow);
  ASSERT_TRUE(server.Start().ok());
  HttpSparqlEndpoint client("SLOW", "127.0.0.1", server.port());

  Stopwatch timer;
  Result<net::QueryResponse> response =
      client.QueryWithDeadline(kSlowQuery, Deadline::AfterMillis(100));
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kTimeout)
      << response.status().ToString();

  // The server must abandon evaluation shortly after the 100 ms budget,
  // not run the multi-second query to completion.
  bool abandoned = false;
  while (timer.ElapsedMillis() < 5000.0) {
    if (server.stats().timed_out_queries >= 1) {
      abandoned = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_TRUE(abandoned);
  EXPECT_LT(timer.ElapsedMillis(), 250.0)
      << "server kept evaluating past the propagated deadline";

  // Cancelled evaluation materialized nothing (SparqlEndpoint counts
  // requests and rows only on success).
  EXPECT_EQ(slow->stats().rows_out, 0u);
  EXPECT_EQ(slow->stats().requests, 0u);
  EXPECT_EQ(server.stats().failed_queries, 1u);
  server.Stop();
}

/// An engine-level cancel must reach the request in flight: the query's
/// token rides from LusailEngine through the Federation to the HTTP
/// client, which half-closes the connection so the server aborts the
/// evaluation. The star over one subject makes the slow work happen on
/// the server (one subquery), not in the federator's join.
TEST(HttpDeadlineTest, EngineCancelReachesInFlightRequest) {
  HttpServer server(CrossProductEndpoint("SLOW", 400, /*one_subject=*/true));
  ASSERT_TRUE(server.Start().ok());
  fed::Federation federation;
  federation.Add(
      std::make_shared<HttpSparqlEndpoint>("SLOW", "127.0.0.1", server.port()));
  core::LusailEngine engine(&federation);

  CancelToken token = CancelToken::Cancellable(Deadline::AfterMillis(8000));
  std::thread canceller([token]() mutable {
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    token.Cancel();
  });
  Stopwatch timer;
  Result<fed::FederatedResult> result = engine.Execute(
      "SELECT ?a WHERE { ?a <http://ex/p> ?x . ?a <http://ex/p> ?y . "
      "?a <http://ex/p> ?z . FILTER(?x + ?y + ?z < 0) }",
      token);
  double elapsed = timer.ElapsedMillis();
  canceller.join();

  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kTimeout)
      << result.status().ToString();
  EXPECT_LT(elapsed, 2000.0) << "the cancel did not reach the request";
  // The server may count the aborted query just after it answers.
  auto settled = [&server] {
    rpc::HttpServerStats stats = server.stats();
    return stats.cancelled_queries + stats.timed_out_queries > 0;
  };
  while (!settled() && timer.ElapsedMillis() < 10000.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(server.stats().cancelled_queries, 1u);
  EXPECT_EQ(server.stats().timed_out_queries, 0u);
  server.Stop();
}

/// A client that hangs up mid-evaluation must not keep a server core
/// busy: the disconnect watchdog notices EOF on the connection and fires
/// the in-flight token, counted as cancelled_queries.
TEST(HttpDeadlineTest, ClientDisconnectCancelsInFlightEvaluation) {
  std::shared_ptr<net::SparqlEndpoint> slow = CrossProductEndpoint("SLOW");
  HttpServer server(slow);
  ASSERT_TRUE(server.Start().ok());

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  std::string body(kSlowQuery);
  std::string request =
      "POST /sparql HTTP/1.1\r\nHost: loopback\r\n"
      "Content-Type: application/sparql-query\r\nContent-Length: " +
      std::to_string(body.size()) + "\r\n\r\n" + body;
  ASSERT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));

  // Wait until the server has started evaluating, then hang up.
  Stopwatch timer;
  while (server.stats().requests < 1 && timer.ElapsedMillis() < 5000.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(server.stats().requests, 1u);
  ::close(fd);

  bool cancelled = false;
  while (timer.ElapsedMillis() < 5000.0) {
    if (server.stats().cancelled_queries >= 1) {
      cancelled = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_TRUE(cancelled) << "disconnect did not cancel the evaluation";
  EXPECT_EQ(slow->stats().rows_out, 0u);
  server.Stop();
}

/// Without a deadline header the server evaluates under an infinite
/// deadline — the header, not a server-side default, carries the budget.
TEST(HttpDeadlineTest, NoHeaderMeansNoServerDeadline) {
  HttpServer server(TinyEndpoint("EP"));
  ASSERT_TRUE(server.Start().ok());
  std::string body = "SELECT ?s WHERE { ?s <http://ex/p> ?o }";
  std::string response = RawExchange(
      server.port(),
      "POST /sparql HTTP/1.1\r\nHost: x\r\nConnection: close\r\n"
      "Content-Type: application/sparql-query\r\nContent-Length: " +
          std::to_string(body.size()) + "\r\n\r\n" + body);
  EXPECT_NE(response.find("200"), std::string::npos);
  EXPECT_EQ(server.stats().timed_out_queries, 0u);
  server.Stop();
}

/// An already-expired budget answers 504 before evaluation starts, with
/// the kTimeout code in the body so the client reconstructs the status.
TEST(HttpDeadlineTest, ExpiredBudgetIs504BeforeEvaluation) {
  std::shared_ptr<net::SparqlEndpoint> slow = CrossProductEndpoint("SLOW");
  HttpServer server(slow);
  ASSERT_TRUE(server.Start().ok());
  std::string body(kSlowQuery);
  std::string response = RawExchange(
      server.port(),
      "POST /sparql HTTP/1.1\r\nHost: x\r\nConnection: close\r\n"
      "X-Lusail-Deadline-Ms: 0\r\n"
      "Content-Type: application/sparql-query\r\nContent-Length: " +
          std::to_string(body.size()) + "\r\n\r\n" + body);
  EXPECT_NE(response.find("504"), std::string::npos) << response;
  EXPECT_NE(response.find("Timeout"), std::string::npos) << response;
  EXPECT_EQ(slow->stats().requests, 0u);
  server.Stop();
}

/// More concurrent connections than server workers: the regression test
/// for thread-per-connection starvation (workers parked on idle
/// keep-alive connections while new connections waited out the client's
/// read deadline).
TEST(HttpServerConcurrencyTest, MoreConnectionsThanWorkersMakeProgress) {
  HttpServerOptions options;
  options.num_threads = 2;
  HttpServer server(TinyEndpoint("EP"), options);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kClients = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&server, &failures] {
      HttpSparqlEndpoint client("EP", "127.0.0.1", server.port());
      for (int q = 0; q < 3; ++q) {
        Result<net::QueryResponse> response = client.QueryWithDeadline(
            "SELECT ?s WHERE { ?s <http://ex/p> ?o }",
            Deadline::AfterMillis(10000));
        if (!response.ok() || response->RowCount() != 5) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  server.Stop();
}

// ---------------------------------------------------------------------
// Requests in flight together on a one-thread engine pool
// ---------------------------------------------------------------------

/// A server backend that answers each request `delay_ms` late and counts
/// how many requests all backends sharing `in_flight` serve at once.
class SlowCountingEndpoint : public net::Endpoint {
 public:
  SlowCountingEndpoint(std::shared_ptr<net::Endpoint> inner, int delay_ms,
                       std::atomic<int>* in_flight, std::atomic<int>* peak)
      : inner_(std::move(inner)),
        delay_ms_(delay_ms),
        in_flight_(in_flight),
        peak_(peak) {}

  const std::string& id() const override { return inner_->id(); }

  Result<net::QueryResponse> QueryCancellable(
      const std::string& text, const CancelToken& cancel) override {
    int now = in_flight_->fetch_add(1) + 1;
    int seen = peak_->load();
    while (seen < now && !peak_->compare_exchange_weak(seen, now)) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms_));
    in_flight_->fetch_sub(1);
    return inner_->QueryCancellable(text, cancel);
  }

 private:
  std::shared_ptr<net::Endpoint> inner_;
  int delay_ms_;
  std::atomic<int>* in_flight_;
  std::atomic<int>* peak_;
};

TEST(HttpOverlapTest, OneThreadPoolOverlapsRequests) {
  std::atomic<int> in_flight{0};
  std::atomic<int> peak{0};
  std::vector<std::unique_ptr<HttpServer>> servers;
  fed::Federation federation;
  for (int i = 0; i < 4; ++i) {
    const std::string id = "EP" + std::to_string(i);
    servers.push_back(std::make_unique<HttpServer>(
        std::make_shared<SlowCountingEndpoint>(TinyEndpoint(id), 30,
                                               &in_flight, &peak)));
    ASSERT_TRUE(servers.back()->Start().ok());
    federation.Add(std::make_shared<HttpSparqlEndpoint>(
        id, "127.0.0.1", servers.back()->port()));
  }
  // The one engine thread lends its slot while it waits for a response,
  // so the pool sends the next request instead of queueing it.
  ThreadPool pool(1);
  core::TermDictionary dict;
  core::IdTable out;
  Status status = fed::FetchUnion(
      federation, &pool, {0, 1, 2, 3},
      "SELECT ?s ?o WHERE { ?s <http://ex/p> ?o }", &dict,
      fed::IssueContext(), &out);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(out.NumRows(), 20u);
  EXPECT_GE(peak.load(), 2);
  EXPECT_LE(pool.spares_started(), ThreadPool::kSparesPerWorker);
  for (auto& server : servers) server->Stop();
}

// ---------------------------------------------------------------------
// Trace propagation over the wire
// ---------------------------------------------------------------------

/// Extracts one header value from a raw HTTP response string.
std::string HeaderValue(const std::string& response, const std::string& name) {
  std::string needle = name + ": ";
  size_t pos = response.find(needle);
  if (pos == std::string::npos) return "";
  size_t end = response.find("\r\n", pos);
  return response.substr(pos + needle.size(), end - pos - needle.size());
}

TEST(TracePropagationTest, ServerAdoptsTraceIdAndReturnsItsSubtree) {
  HttpServer server(TinyEndpoint("EP"));
  ASSERT_TRUE(server.Start().ok());
  std::string trace_id = obs::GenerateTraceId();
  std::string body = "SELECT ?s WHERE { ?s <http://ex/p> ?o }";
  std::string response = RawExchange(
      server.port(),
      "POST /sparql HTTP/1.1\r\nHost: x\r\nConnection: close\r\n"
      "X-Lusail-Trace-Id: " + trace_id + "\r\n"
      "X-Lusail-Parent-Span: 17\r\n"
      "Content-Type: application/sparql-query\r\nContent-Length: " +
          std::to_string(body.size()) + "\r\n\r\n" + body);
  ASSERT_NE(response.find("200"), std::string::npos) << response;
  std::string wire = HeaderValue(response, "X-Lusail-Trace");
  ASSERT_FALSE(wire.empty()) << response;
  auto parsed = obs::Trace::FromWireString(wire);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->trace_id, trace_id);
  ASSERT_GE(parsed->spans.size(), 2u);  // serve + evaluate.
  // The serve root records the client's parent span id for debugging.
  bool found_parent_annotation = false;
  for (const auto& annotation : parsed->spans[0].annotations) {
    if (annotation.key == "client_parent_span" && annotation.value == "17") {
      found_parent_annotation = true;
    }
  }
  EXPECT_TRUE(found_parent_annotation);
  // The server identified its process for per-process trace tracks.
  ASSERT_FALSE(parsed->processes.empty());
  EXPECT_NE(parsed->processes[0].second.find("endpointd/"),
            std::string::npos);
  server.Stop();
}

TEST(TracePropagationTest, EvaluateSpanCountsTheAnswerRows) {
  // A SparqlEndpoint answers in store ids, so the span must count rows in
  // whichever representation the response carries.
  HttpServer server(TinyEndpoint("EP"));
  ASSERT_TRUE(server.Start().ok());
  std::string body = "SELECT ?s WHERE { ?s <http://ex/p> ?o }";
  std::string response = RawExchange(
      server.port(),
      "POST /sparql HTTP/1.1\r\nHost: x\r\nConnection: close\r\n"
      "X-Lusail-Trace-Id: " + obs::GenerateTraceId() + "\r\n"
      "Content-Type: application/sparql-query\r\nContent-Length: " +
          std::to_string(body.size()) + "\r\n\r\n" + body);
  ASSERT_NE(response.find("200"), std::string::npos) << response;
  auto parsed =
      obs::Trace::FromWireString(HeaderValue(response, "X-Lusail-Trace"));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  std::string rows;
  for (const auto& span : parsed->spans) {
    if (span.name != "evaluate") continue;
    for (const auto& annotation : span.annotations) {
      if (annotation.key == "rows") rows = annotation.value;
    }
  }
  EXPECT_EQ(rows, "5");
  Result<sparql::ResultTable> answer =
      fed::Federation::ToTable(TinyEndpoint("EP")->Query(body));
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(std::to_string(answer->NumRows()), rows);
  server.Stop();
}

TEST(TracePropagationTest, MalformedTraceIdFallsBackToAFreshOne) {
  HttpServer server(TinyEndpoint("EP"));
  ASSERT_TRUE(server.Start().ok());
  std::string body = "SELECT ?s WHERE { ?s <http://ex/p> ?o }";
  std::string response = RawExchange(
      server.port(),
      "POST /sparql HTTP/1.1\r\nHost: x\r\nConnection: close\r\n"
      "X-Lusail-Trace-Id: NOT-A-TRACE-ID\r\n"
      "Content-Type: application/sparql-query\r\nContent-Length: " +
          std::to_string(body.size()) + "\r\n\r\n" + body);
  std::string wire = HeaderValue(response, "X-Lusail-Trace");
  ASSERT_FALSE(wire.empty()) << response;
  auto parsed = obs::Trace::FromWireString(wire);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(obs::IsValidTraceId(parsed->trace_id)) << parsed->trace_id;
  EXPECT_NE(parsed->trace_id, "NOT-A-TRACE-ID");
  server.Stop();
}

TEST(TracePropagationTest, UntracedRequestsCarryNoTraceHeader) {
  HttpServer server(TinyEndpoint("EP"));
  ASSERT_TRUE(server.Start().ok());
  std::string body = "SELECT ?s WHERE { ?s <http://ex/p> ?o }";
  std::string response = RawExchange(
      server.port(),
      "POST /sparql HTTP/1.1\r\nHost: x\r\nConnection: close\r\n"
      "Content-Type: application/sparql-query\r\nContent-Length: " +
          std::to_string(body.size()) + "\r\n\r\n" + body);
  ASSERT_NE(response.find("200"), std::string::npos);
  EXPECT_EQ(response.find("X-Lusail-Trace:"), std::string::npos);
  server.Stop();
}

TEST(TracePropagationTest, ClientGraftsServerSubtreeUnderItsRequestSpan) {
  HttpServer server(TinyEndpoint("EP"));
  ASSERT_TRUE(server.Start().ok());
  HttpSparqlEndpoint client("EP", "127.0.0.1", server.port());

  auto tracer = std::make_shared<obs::Tracer>();
  tracer->set_trace_id(obs::GenerateTraceId());
  obs::SpanId request_span = tracer->StartSpan("request", "request");
  {
    obs::TraceContext context;
    context.tracer = tracer;
    context.trace_id = tracer->trace_id();
    context.parent = request_span;
    obs::TraceContextScope scope(context);
    auto response = client.QueryWithDeadline(
        "SELECT ?s WHERE { ?s <http://ex/p> ?o }",
        Deadline::AfterMillis(10000));
    ASSERT_TRUE(response.ok()) << response.status().ToString();
  }
  tracer->EndSpan(request_span);

  obs::Trace merged = tracer->Snapshot();
  std::vector<const obs::Span*> servers = merged.ByCategory("server");
  ASSERT_GE(servers.size(), 2u);  // Grafted serve + evaluate spans.
  // The grafted serve root hangs under the client's request span and is
  // labelled with the endpoint that served it.
  const obs::Span* serve = nullptr;
  for (const obs::Span* span : servers) {
    if (span->parent == request_span) serve = span;
  }
  ASSERT_NE(serve, nullptr);
  bool served_by = false;
  for (const auto& annotation : serve->annotations) {
    if (annotation.key == "served_by" && annotation.value == "EP") {
      served_by = true;
    }
  }
  EXPECT_TRUE(served_by);
  server.Stop();
}

TEST(TracePropagationTest, RequestSpanSplitsTheWireTime) {
  std::atomic<int> in_flight{0};
  std::atomic<int> peak{0};
  HttpServer server(std::make_shared<SlowCountingEndpoint>(
      TinyEndpoint("EP"), 20, &in_flight, &peak));
  ASSERT_TRUE(server.Start().ok());
  HttpSparqlEndpoint client("EP", "127.0.0.1", server.port());

  auto tracer = std::make_shared<obs::Tracer>();
  tracer->set_trace_id(obs::GenerateTraceId());
  obs::SpanId request_span = tracer->StartSpan("request", "request");
  Stopwatch wall;
  {
    obs::TraceContext context;
    context.tracer = tracer;
    context.trace_id = tracer->trace_id();
    context.parent = request_span;
    obs::TraceContextScope scope(context);
    auto response = client.QueryWithDeadline(
        "SELECT ?s WHERE { ?s <http://ex/p> ?o }",
        Deadline::AfterMillis(10000));
    ASSERT_TRUE(response.ok()) << response.status().ToString();
  }
  const double wall_ms = wall.ElapsedMillis();
  tracer->EndSpan(request_span);

  // One value of each, on the request span itself; no span is added.
  obs::Trace trace = tracer->Snapshot();
  std::map<std::string, std::vector<double>> times;
  for (const obs::Span& span : trace.spans) {
    for (const auto& annotation : span.annotations) {
      if (annotation.key.rfind("net.", 0) != 0) continue;
      EXPECT_EQ(span.id, request_span) << annotation.key;
      times[annotation.key].push_back(std::stod(annotation.value));
    }
  }
  for (const char* key : {"net.send_ms", "net.wait_ms", "net.parse_ms"}) {
    ASSERT_EQ(times[key].size(), 1u) << key;
    EXPECT_GE(times[key][0], 0.0) << key;
  }
  // The backend answers 20 ms late, and the wait holds that time.
  EXPECT_GE(times["net.wait_ms"][0], 15.0);
  EXPECT_LE(times["net.send_ms"][0] + times["net.wait_ms"][0] +
                times["net.parse_ms"][0],
            wall_ms);
  server.Stop();
}

TEST(TracePropagationTest, OversizedSubtreeIsTruncatedNotDropped) {
  HttpServerOptions options;
  options.max_trace_header_bytes = 220;  // Too small for serve + evaluate.
  HttpServer server(TinyEndpoint("EP"), options);
  ASSERT_TRUE(server.Start().ok());
  HttpSparqlEndpoint client("EP", "127.0.0.1", server.port());

  auto tracer = std::make_shared<obs::Tracer>();
  tracer->set_trace_id(obs::GenerateTraceId());
  obs::SpanId request_span = tracer->StartSpan("request", "request");
  {
    obs::TraceContext context;
    context.tracer = tracer;
    context.trace_id = tracer->trace_id();
    context.parent = request_span;
    obs::TraceContextScope scope(context);
    auto response = client.QueryWithDeadline(
        "SELECT ?s WHERE { ?s <http://ex/p> ?o }",
        Deadline::AfterMillis(10000));
    ASSERT_TRUE(response.ok()) << response.status().ToString();
  }
  tracer->EndSpan(request_span);

  // The grafted root survived and is flagged as a cut subtree.
  obs::Trace merged = tracer->Snapshot();
  const obs::Span* serve = nullptr;
  for (const obs::Span& span : merged.spans) {
    if (span.parent == request_span && span.category == "server") {
      serve = &span;
    }
  }
  ASSERT_NE(serve, nullptr) << "truncation dropped the whole subtree";
  bool marked = false;
  for (const auto& annotation : serve->annotations) {
    if (annotation.key == "trace.truncated" && annotation.value == "true") {
      marked = true;
    }
  }
  EXPECT_TRUE(marked);
  server.Stop();
}

TEST_F(LoopbackFederationTest, FederatedTraceMergesServerSubtrees) {
  core::LusailOptions options;
  options.trace = true;
  core::LusailEngine engine(&remote_, options);
  Result<fed::FederatedResult> result =
      engine.Execute(workload::LubmGenerator::QueryQa());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_NE(result->profile.trace, nullptr);
  const obs::Trace& trace = *result->profile.trace;

  // The query got a wire-grade trace id, and the grafted server
  // subtrees brought their endpointd process identities with them. (In
  // this loopback test both sides share one pid, so the endpointd entry
  // shadows the federator's; the CI e2e asserts >= 2 distinct pids with
  // real processes.)
  EXPECT_TRUE(obs::IsValidTraceId(trace.trace_id)) << trace.trace_id;
  bool endpointd_process = false;
  for (const auto& [pid, name] : trace.processes) {
    if (name.find("endpointd/") != std::string::npos) {
      endpointd_process = true;
    }
  }
  EXPECT_TRUE(endpointd_process);

  // Server-side spans were grafted, and every one of them reaches a
  // local span through its parent chain — no orphans in the merged tree.
  std::vector<const obs::Span*> servers = trace.ByCategory("server");
  ASSERT_GT(servers.size(), 0u);
  for (const obs::Span* span : servers) {
    const obs::Span* cursor = span;
    int hops = 0;
    while (cursor->parent != 0 && hops++ < 32) {
      cursor = trace.Find(cursor->parent);
      ASSERT_NE(cursor, nullptr) << "orphaned server span " << span->name;
    }
    EXPECT_EQ(cursor->parent, 0u);
    EXPECT_EQ(cursor->category, "query")
        << "server span " << span->name << " does not reach the query root";
  }

  // The merged trace exports to Chrome JSON without losing the server
  // spans (one complete event per span).
  std::string chrome = trace.ToChromeJsonString();
  EXPECT_NE(chrome.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(chrome.find("serve "), std::string::npos);
}

TEST(HedgedTraceTest, HedgedRequestGraftsWinnerAndCancelledLoser) {
  // Slow primary (multi-second token-checking evaluation) + fast
  // runner-up; a 10 ms hedge delay guarantees the hedge launches and
  // wins while the primary is still evaluating, and the loser's
  // half-closed cancellation response still carries its server subtree.
  HttpServer slow_server(CrossProductEndpoint("EP#0"));
  HttpServer fast_server(TinyEndpoint("EP#1"));
  ASSERT_TRUE(slow_server.Start().ok());
  ASSERT_TRUE(fast_server.Start().ok());

  std::vector<std::shared_ptr<net::Endpoint>> replicas = {
      std::make_shared<HttpSparqlEndpoint>("EP#0", "127.0.0.1",
                                           slow_server.port()),
      std::make_shared<HttpSparqlEndpoint>("EP#1", "127.0.0.1",
                                           fast_server.port()),
  };
  net::ReplicaGroupOptions group_options;
  group_options.lazy_probe = false;  // Keep ranking = insertion order.
  group_options.hedging_enabled = true;
  group_options.hedge_delay_ms = 10.0;
  auto group = std::make_unique<net::ReplicaGroup>("EP", std::move(replicas),
                                                   group_options);

  auto tracer = std::make_shared<obs::Tracer>();
  tracer->set_trace_id(obs::GenerateTraceId());
  obs::SpanId request_span = tracer->StartSpan("request", "request");
  Result<net::QueryResponse> response = Status::Internal("not run");
  {
    obs::TraceContext context;
    context.tracer = tracer;
    context.trace_id = tracer->trace_id();
    context.parent = request_span;
    obs::TraceContextScope scope(context);
    response = group->QueryCancellable(
        kSlowQuery, CancelToken::Cancellable(Deadline::AfterMillis(20000)));
  }
  // Destroying the group drains the detached loser, so its cancelled
  // subtree is grafted before we snapshot.
  group.reset();
  tracer->EndSpan(request_span);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->served_by, "EP#1");
  EXPECT_TRUE(response->hedged);

  // Both arms made it into the trace: exactly one serve span finished
  // "ok" (the winner, labelled with its replica id) and exactly one was
  // cancelled (the half-closed loser).
  obs::Trace merged = tracer->Snapshot();
  int winners = 0;
  int cancelled = 0;
  for (const obs::Span& span : merged.spans) {
    if (span.category != "server" || span.name.rfind("serve ", 0) != 0) {
      continue;
    }
    EXPECT_EQ(span.parent, request_span);
    std::string status;
    std::string served_by;
    bool was_cancelled = false;
    for (const auto& annotation : span.annotations) {
      if (annotation.key == "status") status = annotation.value;
      if (annotation.key == "served_by") served_by = annotation.value;
      if (annotation.key == "cancelled" && annotation.value == "true") {
        was_cancelled = true;
      }
    }
    if (status == "ok") {
      ++winners;
      EXPECT_EQ(served_by, "EP#1");
    }
    if (was_cancelled) {
      ++cancelled;
      EXPECT_EQ(served_by, "EP#0");
    }
  }
  EXPECT_EQ(winners, 1);
  EXPECT_EQ(cancelled, 1);

  slow_server.Stop();
  fast_server.Stop();
}

// ---------------------------------------------------------------------
// /metrics, /debug/queries, /health
// ---------------------------------------------------------------------

/// Parses the first sample value of `name{...}` from Prometheus text.
double SampleValue(const std::string& text, const std::string& prefix) {
  size_t pos = text.find(prefix);
  if (pos == std::string::npos) return -1.0;
  size_t space = text.find("} ", pos);
  if (space == std::string::npos) return -1.0;
  return std::strtod(text.c_str() + space + 2, nullptr);
}

TEST(MetricsEndpointTest, ExposesMonotonicCountersAcrossScrapes) {
  obs::MetricsRegistry registry;
  HttpServerOptions options;
  options.metrics = &registry;
  HttpServer server(TinyEndpoint("EP"), options);
  ASSERT_TRUE(server.Start().ok());
  HttpSparqlEndpoint client("EP", "127.0.0.1", server.port());
  const std::string query = "SELECT ?s WHERE { ?s <http://ex/p> ?o }";
  ASSERT_TRUE(client.Query(query).ok());

  auto scrape = [&] {
    return RawExchange(server.port(),
                       "GET /metrics HTTP/1.1\r\nHost: x\r\n"
                       "Connection: close\r\n\r\n");
  };
  std::string first = scrape();
  EXPECT_NE(first.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos)
      << first;
  EXPECT_NE(first.find("# TYPE lusail_rpc_requests_total counter"),
            std::string::npos);
  double before =
      SampleValue(first, "lusail_rpc_requests_total{server=\"EP\"}");
  ASSERT_GE(before, 1.0) << first;

  ASSERT_TRUE(client.Query(query).ok());
  double after = SampleValue(
      scrape(), "lusail_rpc_requests_total{server=\"EP\"}");
  EXPECT_GT(after, before);
  server.Stop();
}

TEST(MetricsEndpointTest, RegistryCollectorsJoinTheExposition) {
  obs::MetricsRegistry registry;
  obs::ScopedCollector collector(
      &registry, [](obs::MetricsSnapshot* snapshot) {
        snapshot->AddCounter("lusail_custom_total", "A custom counter.",
                             {{"tier", "verdicts"}}, 7);
      });
  HttpServerOptions options;
  options.metrics = &registry;
  HttpServer server(TinyEndpoint("EP"), options);
  ASSERT_TRUE(server.Start().ok());
  std::string response = RawExchange(
      server.port(),
      "GET /metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n");
  EXPECT_NE(response.find("lusail_custom_total{tier=\"verdicts\"} 7"),
            std::string::npos)
      << response;
  server.Stop();
}

TEST(MetricsEndpointTest, ScrapeBodyEscapesHelpAndLabelValues) {
  // Wire-level check of the exposition escapes: a collector whose HELP
  // text and label values carry newlines, quotes, and backslashes must
  // still produce a body where every line is a comment or a sample.
  obs::MetricsRegistry registry;
  obs::ScopedCollector collector(
      &registry, [](obs::MetricsSnapshot* snapshot) {
        snapshot->AddCounter("lusail_hostile_total",
                             "line one\nline two \\ \"quoted\"",
                             {{"path", "C:\\data\n\"x\""}}, 1);
      });
  HttpServerOptions options;
  options.metrics = &registry;
  HttpServer server(TinyEndpoint("EP"), options);
  ASSERT_TRUE(server.Start().ok());
  std::string response = RawExchange(
      server.port(),
      "GET /metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n");
  server.Stop();

  size_t body_start = response.find("\r\n\r\n");
  ASSERT_NE(body_start, std::string::npos) << response;
  std::string body = response.substr(body_start + 4);
  EXPECT_NE(
      body.find("# HELP lusail_hostile_total line one\\nline two \\\\ "
                "\"quoted\"\n"),
      std::string::npos)
      << body;
  EXPECT_NE(
      body.find("lusail_hostile_total{path=\"C:\\\\data\\n\\\"x\\\"\"} 1"),
      std::string::npos)
      << body;
  size_t pos = 0;
  while (pos < body.size()) {
    size_t eol = body.find('\n', pos);
    if (eol == std::string::npos) break;
    std::string line = body.substr(pos, eol - pos);
    EXPECT_TRUE(line.empty() || line.rfind("# ", 0) == 0 ||
                line.rfind("lusail_", 0) == 0)
        << "stray exposition line: " << line;
    pos = eol + 1;
  }
}

TEST(FlightRecorderEndpointTest, DebugQueriesServesTheRing) {
  obs::FlightRecorder recorder;
  HttpServerOptions options;
  options.flight_recorder = &recorder;
  HttpServer server(TinyEndpoint("EP"), options);
  ASSERT_TRUE(server.Start().ok());
  HttpSparqlEndpoint client("EP", "127.0.0.1", server.port());
  ASSERT_TRUE(client.Query("SELECT ?s WHERE { ?s <http://ex/p> ?o }").ok());
  ASSERT_TRUE(client.Query("ASK { ?s <http://ex/p> ?o }").ok());

  std::string response = RawExchange(
      server.port(),
      "GET /debug/queries?n=1 HTTP/1.1\r\nHost: x\r\n"
      "Connection: close\r\n\r\n");
  ASSERT_NE(response.find("200"), std::string::npos) << response;
  size_t body_start = response.find("\r\n\r\n");
  ASSERT_NE(body_start, std::string::npos);
  auto parsed = obs::JsonValue::Parse(response.substr(body_start + 4));
  ASSERT_TRUE(parsed.ok()) << response;
  EXPECT_EQ(parsed->Get("total").AsDouble(), 2.0);
  // n=1 limits the returned records to the newest one (the ASK).
  std::string body = response.substr(body_start + 4);
  EXPECT_EQ(body.find("\"query_hash\""), body.rfind("\"query_hash\""))
      << body;
  server.Stop();
}

TEST(FlightRecorderEndpointTest, NoRecorderMeans404) {
  HttpServer server(TinyEndpoint("EP"));
  ASSERT_TRUE(server.Start().ok());
  std::string response = RawExchange(
      server.port(),
      "GET /debug/queries HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n");
  EXPECT_NE(response.find("404"), std::string::npos) << response;
  server.Stop();
}

TEST(HealthProbeTest, DegradedProbeAnswers503WithDetail) {
  HttpServerOptions options;
  options.health_probe = [](obs::JsonValue* body) {
    body->Set("degraded", std::string("cache snapshot load failed"));
    return false;
  };
  HttpServer server(TinyEndpoint("EP"), options);
  ASSERT_TRUE(server.Start().ok());
  std::string response = RawExchange(
      server.port(),
      "GET /health HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n");
  EXPECT_NE(response.find("HTTP/1.1 503"), std::string::npos) << response;
  EXPECT_NE(response.find("\"ok\":false"), std::string::npos) << response;
  EXPECT_NE(response.find("cache snapshot load failed"), std::string::npos);
  server.Stop();
}

TEST(StatsListenerTest, NullEndpointServesMetricsButNotSparql) {
  obs::MetricsRegistry registry;
  obs::ScopedCollector collector(
      &registry, [](obs::MetricsSnapshot* snapshot) {
        snapshot->AddCounter("lusail_federator_up", "Up.", {}, 1);
      });
  HttpServerOptions options;
  options.server_name = "federator";
  options.metrics = &registry;
  HttpServer server(nullptr, options);
  ASSERT_TRUE(server.Start().ok());

  std::string metrics = RawExchange(
      server.port(),
      "GET /metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n");
  EXPECT_NE(metrics.find("HTTP/1.1 200"), std::string::npos) << metrics;
  EXPECT_NE(metrics.find("lusail_federator_up 1"), std::string::npos);
  EXPECT_NE(metrics.find("server=\"federator\""), std::string::npos);

  std::string body = "SELECT * WHERE { ?s ?p ?o }";
  std::string sparql = RawExchange(
      server.port(),
      "POST /sparql HTTP/1.1\r\nHost: x\r\nConnection: close\r\n"
      "Content-Type: application/sparql-query\r\nContent-Length: " +
          std::to_string(body.size()) + "\r\n\r\n" + body);
  EXPECT_NE(sparql.find("HTTP/1.1 503"), std::string::npos) << sparql;
  server.Stop();
}

/// The JSON body of a raw HTTP response.
obs::JsonValue JsonBody(const std::string& response) {
  size_t body_start = response.find("\r\n\r\n");
  if (body_start == std::string::npos) return obs::JsonValue();
  auto parsed = obs::JsonValue::Parse(response.substr(body_start + 4));
  return parsed.ok() ? *parsed : obs::JsonValue();
}

TEST(MetricsEndpointTest, StatsAndMetricsReadOneSnapshot) {
  obs::MetricsRegistry registry;
  obs::ScopedCollector collector(
      &registry, [](obs::MetricsSnapshot* snapshot) {
        snapshot->AddCounter("lusail_custom_total", "A custom counter.", {},
                             7);
      });
  HttpServerOptions options;
  options.metrics = &registry;
  HttpServer server(TinyEndpoint("EP"), options);
  ASSERT_TRUE(server.Start().ok());
  HttpSparqlEndpoint client("EP", "127.0.0.1", server.port());
  const std::string query = "SELECT ?s WHERE { ?s <http://ex/p> ?o }";
  ASSERT_TRUE(client.Query(query).ok());
  ASSERT_TRUE(client.Query(query).ok());

  std::string metrics = RawExchange(
      server.port(),
      "GET /metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n");
  obs::JsonValue stats = JsonBody(RawExchange(
      server.port(),
      "GET /stats HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"));
  server.Stop();

  EXPECT_EQ(stats.Get("endpoint").AsString(), "EP");
  const obs::JsonValue& snapshot = stats.Get("metrics");
  const obs::JsonValue& requests =
      snapshot.Get("lusail_rpc_requests_total").Get("samples");
  ASSERT_EQ(requests.size(), 1u) << stats.Serialize();
  EXPECT_EQ(requests[0].Get("labels").Get("server").AsString(), "EP");
  EXPECT_EQ(requests[0].Get("value").AsDouble(), 2.0);
  EXPECT_EQ(requests[0].Get("value").AsDouble(),
            SampleValue(metrics, "lusail_rpc_requests_total{server=\"EP\"}"))
      << metrics;
  // Registry collectors reach both renderings too.
  EXPECT_EQ(snapshot.Get("lusail_custom_total").Get("samples")[0]
                .Get("value")
                .AsDouble(),
            7.0);
  EXPECT_NE(metrics.find("lusail_custom_total 7"), std::string::npos);
}

TEST(MetricsEndpointTest, FrontedEndpointExportsWithoutACollector) {
  cache::FederationCache cache;
  HttpServer server(
      std::make_shared<cache::CachedAskEndpoint>(TinyEndpoint("EP"), &cache));
  ASSERT_TRUE(server.Start().ok());
  HttpSparqlEndpoint client("EP", "127.0.0.1", server.port());
  const std::string ask = "ASK { ?s <http://ex/p> ?o }";
  ASSERT_TRUE(client.Query(ask).ok());  // Miss, then cached.
  ASSERT_TRUE(client.Query(ask).ok());  // Hit.

  std::string metrics = RawExchange(
      server.port(),
      "GET /metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n");
  obs::JsonValue stats = JsonBody(RawExchange(
      server.port(),
      "GET /stats HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"));
  server.Stop();

  EXPECT_EQ(SampleValue(metrics,
                        "lusail_ask_cache_hits_total{endpoint=\"EP\"}"),
            1.0)
      << metrics;
  const obs::JsonValue& hits =
      stats.Get("metrics").Get("lusail_ask_cache_hits_total").Get("samples");
  ASSERT_EQ(hits.size(), 1u) << stats.Serialize();
  EXPECT_EQ(hits[0].Get("labels").Get("endpoint").AsString(), "EP");
  EXPECT_EQ(hits[0].Get("value").AsDouble(), 1.0);
}

// ---------------------------------------------------------------------
// Federation telemetry: one export walks every endpoint kind
// ---------------------------------------------------------------------

/// A federation over loopback HTTP with one endpoint of each shape: a
/// bare client ("plain"), a replica group of two clients
/// ("group": group#0, group#1), and a 2-shard endpoint whose members are
/// clients ("sharded": sharded#0, sharded#1). A fault injector that
/// injects nothing wraps "extra", and sharded#1 sits behind an ASK cache,
/// so every decorator kind has to forward the export to its client.
class FederationTelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    federation_.Add(Serve("plain", TinyStore()));
    federation_.Add(std::make_shared<net::FaultInjectingEndpoint>(
        Serve("extra", TinyStore()), net::FaultProfile::None()));
    federation_.Add(std::make_shared<net::ReplicaGroup>(
        "group", std::vector<std::shared_ptr<net::Endpoint>>{
                     Serve("group#0", TinyStore()),
                     Serve("group#1", TinyStore())}));
    shard::ShardMap map = shard::ShardMap::HashRing(2);
    std::vector<std::unique_ptr<store::TripleStore>> slices;
    for (int k = 0; k < 2; ++k) {
      slices.push_back(std::make_unique<store::TripleStore>());
    }
    for (int i = 0; i < 5; ++i) {
      rdf::TermTriple triple{rdf::Term::Iri("http://ex/s" + std::to_string(i)),
                             rdf::Term::Iri("http://ex/p"),
                             rdf::Term::Integer(i)};
      slices[map.ShardOfSubject(triple.subject)]->Add(triple);
    }
    std::vector<std::shared_ptr<net::Endpoint>> members;
    for (int k = 0; k < 2; ++k) {
      slices[k]->Freeze();
      members.push_back(
          Serve("sharded#" + std::to_string(k), std::move(slices[k])));
    }
    members[1] = std::make_shared<cache::CachedAskEndpoint>(members[1],
                                                            &ask_cache_);
    federation_.Add(std::make_shared<shard::ShardedEndpoint>(
        "sharded", map, std::move(members)));
  }

  void TearDown() override {
    for (auto& server : servers_) server->Stop();
  }

  /// Serves `store` on a loopback HttpServer; returns a client for it.
  std::shared_ptr<net::Endpoint> Serve(
      const std::string& id, std::unique_ptr<store::TripleStore> store) {
    auto server = std::make_unique<HttpServer>(
        std::make_shared<net::SparqlEndpoint>(id, std::move(store),
                                              net::LatencyModel::None()));
    EXPECT_TRUE(server->Start().ok());
    auto client =
        std::make_shared<HttpSparqlEndpoint>(id, "127.0.0.1", server->port());
    servers_.push_back(std::move(server));
    return client;
  }

  std::vector<std::unique_ptr<HttpServer>> servers_;
  cache::FederationCache ask_cache_;
  fed::Federation federation_;
};

TEST_F(FederationTelemetryTest, EveryEndpointExportsOnce) {
  cache::QueryService service(&federation_);
  // Scrapes race the live queries, as /metrics scrapes do in a server.
  std::atomic<bool> done{false};
  std::thread scraper([&] {
    while (!done.load()) {
      obs::MetricsSnapshot snapshot;
      service.ExportMetrics(&snapshot);
    }
  });
  std::vector<std::future<Result<fed::FederatedResult>>> futures;
  for (int i = 0; i < 4; ++i) {
    auto submitted =
        service.Submit("SELECT ?s ?o WHERE { ?s <http://ex/p> ?o . }");
    ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
    futures.push_back(std::move(submitted).value());
  }
  for (auto& future : futures) {
    Result<fed::FederatedResult> result = future.get();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->table.NumRows(), 20u);  // 5 rows from each endpoint.
  }
  service.Drain();
  done.store(true);
  scraper.join();

  obs::MetricsSnapshot snapshot;
  service.ExportMetrics(&snapshot);
  for (const char* client :
       {"plain", "extra", "group#0", "group#1", "sharded#0", "sharded#1"}) {
    EXPECT_NE(snapshot.Find("lusail_http_client_requests_total",
                            {{"endpoint", client}}),
              nullptr)
        << client;
  }
  const obs::MetricSample* plain = snapshot.Find(
      "lusail_http_client_requests_total", {{"endpoint", "plain"}});
  ASSERT_NE(plain, nullptr);
  EXPECT_GT(plain->value, 0.0);
  const obs::MetricLabels group{{"endpoint", "group"}};
  const obs::MetricLabels sharded{{"endpoint", "sharded"}};
  EXPECT_NE(snapshot.Find("lusail_federation_breaker_state",
                          {{"endpoint", "group"}, {"state", "closed"}}),
            nullptr);
  EXPECT_NE(snapshot.Find("lusail_replica_requests_total", group), nullptr);
  EXPECT_NE(snapshot.Find("lusail_shard_queries_total", sharded), nullptr);
  EXPECT_NE(snapshot.Find("lusail_shard_fanout_total", sharded), nullptr);
  EXPECT_NE(snapshot.Find("lusail_fault_requests_total",
                          {{"endpoint", "extra"}}),
            nullptr);
  EXPECT_NE(snapshot.Find("lusail_ask_cache_hits_total",
                          {{"endpoint", "sharded#1"}}),
            nullptr);

  std::set<std::pair<std::string, obs::MetricLabels>> seen;
  for (const obs::MetricFamily& family : snapshot.families()) {
    for (const obs::MetricSample& sample : family.samples) {
      EXPECT_TRUE(seen.emplace(family.name, sample.labels).second)
          << family.name << " repeats a label set";
    }
  }
}

}  // namespace
}  // namespace lusail

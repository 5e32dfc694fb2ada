// Tests for the streaming result plane: SRJ stream framing and the
// incremental chunk decoder (split-safe across every byte boundary),
// the server's chunked-transfer path with end-of-stream trailers, the
// truncation-cap vs explicit LIMIT/OFFSET regression, the streaming
// client (row identity with the buffered path across query shapes,
// budgets, ID-space decode), the one-payload contract (every endpoint
// kind answers buffered and streamed requests in ID space, equal to the
// evaluator), decorator semantics (failover only before the first
// delivered batch, no hedging for streams), slow-
// consumer back-pressure and mid-stream disconnects, and the engine's
// LIMIT pushdown into generated subqueries.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cache/cached_endpoint.h"
#include "cache/federation_cache.h"
#include "core/dictionary.h"
#include "core/id_table.h"
#include "core/lusail_engine.h"
#include "federation/federation.h"
#include "net/endpoint.h"
#include "net/fault_injection.h"
#include "net/replica.h"
#include "net/sparql_endpoint.h"
#include "rpc/http_server.h"
#include "rpc/http_sparql_endpoint.h"
#include "rpc/results_json.h"
#include "shard/sharded_endpoint.h"
#include "sparql/evaluator.h"
#include "sparql/parser.h"
#include "store/triple_store.h"
#include "workload/federation_builder.h"
#include "workload/lubm_generator.h"
#include "test_payload.h"

namespace lusail {
namespace {

using rpc::HttpServer;
using rpc::HttpServerOptions;
using rpc::HttpSparqlEndpoint;
using rpc::ParseSrj;
using rpc::ResultTableToSrj;
using rpc::SrjChunkDecoder;
using rpc::SrjStreamBindings;
using rpc::SrjStreamPrefix;
using rpc::SrjStreamSuffix;

// ---------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------

/// Ordered row fingerprints: streaming must preserve the buffered row
/// order, so most comparisons here are order-sensitive.
std::vector<std::string> OrderedRows(const sparql::ResultTable& table) {
  std::vector<std::string> rows;
  for (const auto& row : table.rows) {
    std::string s;
    for (const auto& cell : row) {
      s += cell.has_value() ? cell->ToString() : "UNDEF";
      s += "\x1f";
    }
    rows.push_back(std::move(s));
  }
  return rows;
}

std::vector<std::string> CanonicalRows(const sparql::ResultTable& table) {
  std::vector<std::string> rows = OrderedRows(table);
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// The term zoo from the codec tests: every term kind plus the string
/// boundary cases (empty literal stays bound, quotes/newlines escaped,
/// multi-byte UTF-8) that a chunk boundary can land inside.
sparql::ResultTable ZooTable() {
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
  return table;
}

void ExpectTablesEqual(const sparql::ResultTable& want,
                       const sparql::ResultTable& got) {
  EXPECT_EQ(want.vars, got.vars);
  ASSERT_EQ(want.rows.size(), got.rows.size());
  EXPECT_EQ(OrderedRows(want), OrderedRows(got));
}

/// Store with two predicates so OPTIONAL / UNION / ORDER BY shapes all
/// have interesting answers: <sN> <p> N for N in [0,n), <sN> <q> catN%3
/// for even N only.
std::vector<rdf::TermTriple> ShapeTriples(int n = 10) {
  std::vector<rdf::TermTriple> triples;
  for (int i = 0; i < n; ++i) {
    rdf::Term subject = rdf::Term::Iri("http://ex/s" + std::to_string(i));
    triples.push_back(rdf::TermTriple{subject, rdf::Term::Iri("http://ex/p"),
                                      rdf::Term::Integer(i)});
    if (i % 2 == 0) {
      triples.push_back(rdf::TermTriple{
          subject, rdf::Term::Iri("http://ex/q"),
          rdf::Term::Iri("http://ex/cat" + std::to_string(i % 3))});
    }
  }
  return triples;
}

std::unique_ptr<store::TripleStore> StoreOf(
    const std::vector<rdf::TermTriple>& triples) {
  auto store = std::make_unique<store::TripleStore>();
  for (const rdf::TermTriple& triple : triples) store->Add(triple);
  store->Freeze();
  return store;
}

std::unique_ptr<store::TripleStore> ShapeStore(int n = 10) {
  return StoreOf(ShapeTriples(n));
}

/// Store whose full scan serializes well past the kernel's socket
/// buffers, so a reader that stalls genuinely blocks the server's writes.
std::unique_ptr<store::TripleStore> WideStore(int n = 20000) {
  auto store = std::make_unique<store::TripleStore>();
  std::string pad(180, 'x');
  for (int i = 0; i < n; ++i) {
    store->Add(rdf::TermTriple{
        rdf::Term::Iri("http://ex/s" + std::to_string(i)),
        rdf::Term::Iri("http://ex/p"), rdf::Term::Literal(pad)});
  }
  store->Freeze();
  return store;
}

const char kScan[] = "SELECT ?s ?o WHERE { ?s <http://ex/p> ?o . }";

/// A raw streaming SPARQL request (Connection: close so the reader can
/// drain to EOF).
std::string StreamRequest(const std::string& body) {
  return "POST /sparql HTTP/1.1\r\nHost: x\r\nConnection: close\r\n"
         "X-Lusail-Stream: true\r\n"
         "Content-Type: application/sparql-query\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

std::string BufferedRequest(const std::string& body) {
  return "POST /sparql HTTP/1.1\r\nHost: x\r\nConnection: close\r\n"
         "Content-Type: application/sparql-query\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

/// Sends `request` as raw bytes and returns the full response text.
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

/// A de-chunked HTTP response: headers, reassembled body, and the
/// trailer section after the terminal chunk.
struct DechunkedResponse {
  std::string head;      ///< Status line + headers.
  std::string body;      ///< Concatenated chunk payloads.
  std::string trailers;  ///< Raw trailer lines after the 0-chunk.
  bool complete = false;  ///< Terminal chunk seen.
  size_t chunks = 0;      ///< Data chunks (terminal excluded).
};

DechunkedResponse Dechunk(const std::string& raw) {
  DechunkedResponse out;
  size_t head_end = raw.find("\r\n\r\n");
  if (head_end == std::string::npos) return out;
  out.head = raw.substr(0, head_end);
  size_t pos = head_end + 4;
  while (pos < raw.size()) {
    size_t line_end = raw.find("\r\n", pos);
    if (line_end == std::string::npos) return out;
    size_t size = std::strtoul(raw.substr(pos, line_end - pos).c_str(),
                               nullptr, 16);
    pos = line_end + 2;
    if (size == 0) {
      size_t trailer_end = raw.find("\r\n\r\n", pos - 2);
      out.trailers = trailer_end == std::string::npos
                         ? raw.substr(pos)
                         : raw.substr(pos, trailer_end + 2 - pos);
      out.complete = true;
      return out;
    }
    if (pos + size + 2 > raw.size()) return out;
    out.body += raw.substr(pos, size);
    ++out.chunks;
    pos += size + 2;  // Skip the chunk's trailing CRLF.
  }
  return out;
}

// ---------------------------------------------------------------------
// SRJ stream framing
// ---------------------------------------------------------------------

TEST(SrjStreamTest, ConcatenatedPiecesEqualBufferedDocument) {
  sparql::ResultTable table = ZooTable();
  bool first = true;
  std::string doc = SrjStreamPrefix(table.vars);
  // Emit in two uneven batches to exercise the cross-batch comma.
  sparql::ResultTable batch1;
  batch1.vars = table.vars;
  batch1.rows.assign(table.rows.begin(), table.rows.begin() + 1);
  sparql::ResultTable batch2;
  batch2.vars = table.vars;
  batch2.rows.assign(table.rows.begin() + 1, table.rows.end());
  doc += SrjStreamBindings(batch1, &first);
  doc += SrjStreamBindings(batch2, &first);
  doc += SrjStreamSuffix();

  EXPECT_EQ(doc, ResultTableToSrj(table));
  Result<sparql::ResultTable> back = ParseSrj(doc);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ExpectTablesEqual(table, *back);
}

TEST(SrjStreamTest, EmptyTableStreamsAsEmptyBindings) {
  sparql::ResultTable table;
  table.vars = {"x"};
  bool first = true;
  std::string doc = SrjStreamPrefix(table.vars) +
                    SrjStreamBindings(table, &first) + SrjStreamSuffix();
  Result<sparql::ResultTable> back = ParseSrj(doc);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->vars, table.vars);
  EXPECT_TRUE(back->rows.empty());
}

// ---------------------------------------------------------------------
// SrjChunkDecoder: split-safety at every byte boundary
// ---------------------------------------------------------------------

TEST(SrjChunkDecoderTest, OneByteFeedRoundTripsTermZoo) {
  // Feeding one byte at a time puts a "chunk boundary" at every position
  // of the document — inside escapes, inside multi-byte UTF-8 sequences,
  // between a key and its colon. The decode must be byte-exact anyway.
  sparql::ResultTable table = ZooTable();
  std::string doc = ResultTableToSrj(table);
  auto dict = std::make_shared<core::TermDictionary>();
  SrjChunkDecoder decoder(dict);
  sparql::ResultTable got;
  for (char byte : doc) {
    ASSERT_TRUE(decoder.Feed(std::string_view(&byte, 1)).ok());
    if (decoder.PendingRows() > 0) {
      sparql::ResultTable batch = core::DecodeIdTable(decoder.TakeIds(), *dict);
      if (got.vars.empty()) got.vars = batch.vars;
      for (auto& row : batch.rows) got.rows.push_back(std::move(row));
    }
  }
  ASSERT_TRUE(decoder.Finish().ok());
  sparql::ResultTable tail = core::DecodeIdTable(decoder.TakeIds(), *dict);
  if (got.vars.empty()) got.vars = tail.vars;
  for (auto& row : tail.rows) got.rows.push_back(std::move(row));
  ExpectTablesEqual(table, got);
  EXPECT_EQ(decoder.TotalRows(), table.rows.size());
}

TEST(SrjChunkDecoderTest, EmptyStringBindingStaysBoundAtEverySplit) {
  // "" is a real literal; an unbound cell is an omitted key. The decoder
  // must keep that distinction no matter where the chunk boundary lands.
  sparql::ResultTable table;
  table.vars = {"x", "y"};
  table.rows.push_back({rdf::Term::Literal(""), std::nullopt});
  std::string doc = ResultTableToSrj(table);
  for (size_t split = 0; split <= doc.size(); ++split) {
    auto dict = std::make_shared<core::TermDictionary>();
    SrjChunkDecoder decoder(dict);
    ASSERT_TRUE(decoder.Feed(std::string_view(doc).substr(0, split)).ok());
    ASSERT_TRUE(decoder.Feed(std::string_view(doc).substr(split)).ok());
    ASSERT_TRUE(decoder.Finish().ok()) << "split at " << split;
    sparql::ResultTable got = core::DecodeIdTable(decoder.TakeIds(), *dict);
    ASSERT_EQ(got.rows.size(), 1u) << "split at " << split;
    ASSERT_TRUE(got.rows[0][0].has_value()) << "split at " << split;
    EXPECT_TRUE(got.rows[0][0]->is_literal());
    EXPECT_EQ(got.rows[0][0]->lexical(), "");
    EXPECT_FALSE(got.rows[0][1].has_value()) << "split at " << split;
  }
}

TEST(SrjChunkDecoderTest, LanguageTagBeatsDatatypeAtEverySplit) {
  // Lax producers emit both xml:lang and datatype; the non-empty tag
  // wins — including when the boundary lands mid-way through either key.
  const std::string doc =
      "{\"head\":{\"vars\":[\"x\"]},\"results\":{\"bindings\":"
      "[{\"x\":{\"type\":\"literal\",\"value\":\"bonjour\","
      "\"xml:lang\":\"fr\","
      "\"datatype\":\"http://www.w3.org/2001/XMLSchema#string\"}}]}}";
  for (size_t split = 0; split <= doc.size(); ++split) {
    auto dict = std::make_shared<core::TermDictionary>();
    SrjChunkDecoder decoder(dict);
    ASSERT_TRUE(decoder.Feed(std::string_view(doc).substr(0, split)).ok());
    ASSERT_TRUE(decoder.Feed(std::string_view(doc).substr(split)).ok());
    ASSERT_TRUE(decoder.Finish().ok()) << "split at " << split;
    sparql::ResultTable got = core::DecodeIdTable(decoder.TakeIds(), *dict);
    ASSERT_EQ(got.rows.size(), 1u);
    ASSERT_TRUE(got.rows[0][0].has_value());
    EXPECT_EQ(got.rows[0][0]->lang(), "fr") << "split at " << split;
    EXPECT_TRUE(got.rows[0][0]->datatype().empty());
  }
}

TEST(SrjChunkDecoderTest, EmptyLanguageTagHonorsDatatype) {
  const std::string doc =
      "{\"head\":{\"vars\":[\"x\"]},\"results\":{\"bindings\":"
      "[{\"x\":{\"type\":\"literal\",\"value\":\"42\",\"xml:lang\":\"\","
      "\"datatype\":\"http://www.w3.org/2001/XMLSchema#integer\"}}]}}";
  auto dict = std::make_shared<core::TermDictionary>();
  SrjChunkDecoder decoder(dict);
  for (char byte : doc) {
    ASSERT_TRUE(decoder.Feed(std::string_view(&byte, 1)).ok());
  }
  ASSERT_TRUE(decoder.Finish().ok());
  sparql::ResultTable got = core::DecodeIdTable(decoder.TakeIds(), *dict);
  ASSERT_EQ(got.rows.size(), 1u);
  ASSERT_TRUE(got.rows[0][0].has_value());
  EXPECT_TRUE(got.rows[0][0]->lang().empty());
  EXPECT_EQ(got.rows[0][0]->datatype(),
            "http://www.w3.org/2001/XMLSchema#integer");
}

TEST(SrjChunkDecoderTest, IdModeMatchesStringModeThroughDictionary) {
  sparql::ResultTable table = ZooTable();
  std::string doc = ResultTableToSrj(table);
  auto dict = std::make_shared<core::TermDictionary>();
  SrjChunkDecoder decoder(dict);
  // Uneven slices rather than single bytes: exercises multi-row drains.
  for (size_t pos = 0; pos < doc.size();) {
    size_t len = std::min<size_t>(7, doc.size() - pos);
    ASSERT_TRUE(decoder.Feed(std::string_view(doc).substr(pos, len)).ok());
    pos += len;
  }
  ASSERT_TRUE(decoder.Finish().ok());
  core::IdTable ids = decoder.TakeIds();
  ASSERT_EQ(ids.NumRows(), table.rows.size());
  sparql::ResultTable decoded = core::DecodeIdTable(ids, *dict);
  ExpectTablesEqual(table, decoded);
}

TEST(SrjChunkDecoderTest, AskFormsDecodeByteWise) {
  // ASK responses have no bindings array; the decoder recognizes the
  // complete document at root-close.
  sparql::ResultTable yes;
  yes.rows.push_back({});
  for (const sparql::ResultTable& table :
       {yes, sparql::ResultTable{}}) {
    std::string doc = ResultTableToSrj(table);
    auto dict = std::make_shared<core::TermDictionary>();
    SrjChunkDecoder decoder(dict);
    for (char byte : doc) {
      ASSERT_TRUE(decoder.Feed(std::string_view(&byte, 1)).ok()) << doc;
    }
    ASSERT_TRUE(decoder.Finish().ok()) << doc;
    sparql::ResultTable got = core::DecodeIdTable(decoder.TakeIds(), *dict);
    EXPECT_TRUE(got.vars.empty());
    EXPECT_EQ(got.rows.size(), table.rows.size()) << doc;
  }
}

TEST(SrjChunkDecoderTest, TruncatedStreamFailsOnFinish) {
  // A stream cut mid-document (server died before the terminal chunk)
  // must fail loudly at Finish, never pass as a short-but-valid answer.
  sparql::ResultTable table = ZooTable();
  std::string doc = ResultTableToSrj(table);
  auto dict = std::make_shared<core::TermDictionary>();
  SrjChunkDecoder decoder(dict);
  ASSERT_TRUE(
      decoder.Feed(std::string_view(doc).substr(0, doc.size() - 3)).ok());
  EXPECT_FALSE(decoder.Finish().ok());
}

TEST(SrjChunkDecoderTest, MalformedBindingIsAStickyError) {
  const std::string doc =
      "{\"head\":{\"vars\":[\"x\"]},\"results\":{\"bindings\":"
      "[{\"x\":{\"type\":\"warp\",\"value\":\"v\"}}]}}";
  auto dict = std::make_shared<core::TermDictionary>();
  SrjChunkDecoder decoder(dict);
  Status status = Status::OK();
  for (char byte : doc) {
    status = decoder.Feed(std::string_view(&byte, 1));
    if (!status.ok()) break;
  }
  if (status.ok()) status = decoder.Finish();
  EXPECT_FALSE(status.ok());
  EXPECT_FALSE(decoder.Finish().ok());  // Sticky.
}

// ---------------------------------------------------------------------
// Server: chunked transfer with trailers (raw socket)
// ---------------------------------------------------------------------

class StreamWireTest : public ::testing::Test {
 protected:
  void Start(HttpServerOptions options) {
    auto endpoint = std::make_shared<net::SparqlEndpoint>(
        "EP", ShapeStore(), net::LatencyModel::None());
    server_ = std::make_unique<HttpServer>(endpoint, options);
    ASSERT_TRUE(server_->Start().ok());
  }
  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
  }
  std::unique_ptr<HttpServer> server_;
};

TEST_F(StreamWireTest, StreamedResponseIsChunkedWithTrailers) {
  HttpServerOptions options;
  options.stream_batch_rows = 3;  // 10 rows -> several data chunks.
  Start(options);
  std::string raw = RawExchange(server_->port(), StreamRequest(kScan));
  DechunkedResponse response = Dechunk(raw);
  ASSERT_TRUE(response.complete) << raw;
  EXPECT_NE(response.head.find("Transfer-Encoding: chunked"),
            std::string::npos);
  EXPECT_NE(response.head.find("Trailer:"), std::string::npos);
  EXPECT_GE(response.chunks, 3u);  // Prefix + >=2 binding batches + suffix.
  EXPECT_NE(response.trailers.find("X-Lusail-Server-Ms"), std::string::npos);

  // Reassembled chunks are exactly a buffered SRJ document.
  Result<sparql::ResultTable> parsed = ParseSrj(response.body);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->rows.size(), 10u);
  EXPECT_EQ(server_->stats().streamed_requests, 1u);
  EXPECT_EQ(server_->stats().stream_aborts, 0u);
}

TEST_F(StreamWireTest, StreamedAnswerMatchesBufferedAnswer) {
  Start(HttpServerOptions{});
  std::string streamed_raw = RawExchange(server_->port(),
                                         StreamRequest(kScan));
  DechunkedResponse streamed = Dechunk(streamed_raw);
  ASSERT_TRUE(streamed.complete);
  std::string buffered_raw = RawExchange(server_->port(),
                                         BufferedRequest(kScan));
  size_t body_at = buffered_raw.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  Result<sparql::ResultTable> streamed_table = ParseSrj(streamed.body);
  Result<sparql::ResultTable> buffered_table =
      ParseSrj(buffered_raw.substr(body_at + 4));
  ASSERT_TRUE(streamed_table.ok());
  ASSERT_TRUE(buffered_table.ok());
  ExpectTablesEqual(*buffered_table, *streamed_table);
}

// The truncation-cap regression (both response paths): an explicit
// LIMIT at or under the cap is the client asking for less — it must
// never be reported as a truncated answer — and OFFSET is applied
// before the cap measures anything.
TEST_F(StreamWireTest, ExplicitLimitUnderCapIsNotTruncated) {
  HttpServerOptions options;
  options.max_result_rows = 3;
  Start(options);

  const std::string limited = std::string(kScan) + " LIMIT 2";
  const std::string windowed = std::string(kScan) + " LIMIT 3 OFFSET 8";

  // Buffered: LIMIT 2 <= cap 3 -> 2 rows, no truncation marker.
  std::string raw = RawExchange(server_->port(), BufferedRequest(limited));
  EXPECT_EQ(raw.find("X-Lusail-Truncated"), std::string::npos) << raw;
  Result<sparql::ResultTable> parsed = ParseSrj(raw.substr(raw.find("\r\n\r\n") + 4));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->rows.size(), 2u);

  // Buffered: OFFSET applied before the cap measures — 10 rows, skip 8,
  // only 2 remain under LIMIT 3; still not truncation.
  raw = RawExchange(server_->port(), BufferedRequest(windowed));
  EXPECT_EQ(raw.find("X-Lusail-Truncated"), std::string::npos) << raw;
  parsed = ParseSrj(raw.substr(raw.find("\r\n\r\n") + 4));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->rows.size(), 2u);

  // Streamed: same two queries, truncation trailer must stay absent.
  for (const std::string& query : {limited, windowed}) {
    DechunkedResponse response =
        Dechunk(RawExchange(server_->port(), StreamRequest(query)));
    ASSERT_TRUE(response.complete) << query;
    EXPECT_EQ(response.trailers.find("X-Lusail-Truncated"),
              std::string::npos)
        << query;
    Result<sparql::ResultTable> rows = ParseSrj(response.body);
    ASSERT_TRUE(rows.ok());
    EXPECT_EQ(rows->rows.size(), 2u) << query;
  }
  EXPECT_EQ(server_->stats().truncated_results, 0u);

  // Control: an uncapped scan genuinely overflows the cap — marker set
  // on the buffered path and in the streamed trailers.
  raw = RawExchange(server_->port(), BufferedRequest(kScan));
  EXPECT_NE(raw.find("X-Lusail-Truncated: true"), std::string::npos);
  DechunkedResponse overflowed =
      Dechunk(RawExchange(server_->port(), StreamRequest(kScan)));
  ASSERT_TRUE(overflowed.complete);
  EXPECT_NE(overflowed.trailers.find("X-Lusail-Truncated"),
            std::string::npos);
  Result<sparql::ResultTable> capped = ParseSrj(overflowed.body);
  ASSERT_TRUE(capped.ok());
  EXPECT_EQ(capped->rows.size(), 3u);
  EXPECT_EQ(server_->stats().truncated_results, 2u);
}

// ---------------------------------------------------------------------
// Client: incremental decode, budgets, ID mode
// ---------------------------------------------------------------------

class StreamClientTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto endpoint = std::make_shared<net::SparqlEndpoint>(
        "EP", ShapeStore(), net::LatencyModel::None());
    HttpServerOptions options;
    options.stream_batch_rows = 3;
    server_ = std::make_unique<HttpServer>(endpoint, options);
    ASSERT_TRUE(server_->Start().ok());
    client_ = std::make_shared<HttpSparqlEndpoint>("EP", "127.0.0.1",
                                                   server_->port());
  }
  void TearDown() override { server_->Stop(); }

  /// Collects a full stream into one table, counting batches.
  sparql::ResultTable Collect(const std::string& query, size_t* batches,
                              net::StreamSummary* summary_out = nullptr,
                              net::StreamOptions options = {}) {
    sparql::ResultTable all;
    *batches = 0;
    auto summary = client_->QueryStreaming(
        query, CancelToken(), options, [&](net::StreamBatch&& batch) {
          ++*batches;
          sparql::ResultTable rows =
              core::DecodeIdTable(*batch.ids, *batch.ids_dict);
          if (all.vars.empty()) all.vars = rows.vars;
          for (auto& row : rows.rows) all.rows.push_back(std::move(row));
          return Status::OK();
        });
    EXPECT_TRUE(summary.ok()) << summary.status().ToString();
    if (summary.ok() && summary_out != nullptr) *summary_out = *summary;
    return all;
  }

  std::unique_ptr<HttpServer> server_;
  std::shared_ptr<HttpSparqlEndpoint> client_;
};

TEST_F(StreamClientTest, StreamingIsRowIdenticalToBufferedAcrossShapes) {
  const std::string shapes[] = {
      kScan,
      // OPTIONAL: unbound cells must survive the trip.
      "SELECT ?s ?o ?c WHERE { ?s <http://ex/p> ?o . "
      "OPTIONAL { ?s <http://ex/q> ?c . } }",
      // UNION.
      "SELECT ?s WHERE { { ?s <http://ex/q> <http://ex/cat0> . } UNION "
      "{ ?s <http://ex/q> <http://ex/cat2> . } }",
      // ORDER BY + LIMIT + OFFSET: the evaluator windows, the wire only
      // carries the window — order is part of the contract.
      std::string(kScan) + " ORDER BY DESC(?o) LIMIT 4 OFFSET 2",
      // LIMIT/OFFSET without ORDER BY.
      std::string(kScan) + " LIMIT 3 OFFSET 5",
  };
  for (const std::string& query : shapes) {
    Result<net::QueryResponse> buffered = client_->Query(query);
    ASSERT_TRUE(buffered.ok()) << query;
    size_t batches = 0;
    net::StreamSummary summary;
    sparql::ResultTable streamed = Collect(query, &batches, &summary);
    sparql::ResultTable buffered_table = *fed::Federation::ToTable(buffered);
    ExpectTablesEqual(buffered_table, streamed);
    EXPECT_EQ(summary.rows_delivered, buffered_table.rows.size()) << query;
    EXPECT_FALSE(summary.truncated) << query;
  }
}

TEST_F(StreamClientTest, LargeAnswerArrivesInMultipleBatches) {
  size_t batches = 0;
  net::StreamSummary summary;
  sparql::ResultTable all = Collect(kScan, &batches, &summary);
  EXPECT_EQ(all.rows.size(), 10u);
  EXPECT_GE(batches, 3u);  // 10 rows at stream_batch_rows = 3.
  EXPECT_GT(summary.response.first_row_ms, 0.0);
}

TEST_F(StreamClientTest, EmptyResultStillDeliversTheVariableSet) {
  size_t batches = 0;
  sparql::ResultTable all = Collect(
      "SELECT ?s ?o WHERE { ?s <http://ex/none> ?o . }", &batches);
  EXPECT_GE(batches, 1u);
  EXPECT_TRUE(all.rows.empty());
  EXPECT_EQ(all.vars, (std::vector<std::string>{"s", "o"}));
}

TEST_F(StreamClientTest, RowBudgetHalfClosesAndMarksTruncated) {
  net::StreamOptions options;
  options.max_rows = 4;
  size_t batches = 0;
  net::StreamSummary summary;
  sparql::ResultTable got = Collect(kScan, &batches, &summary, options);
  EXPECT_EQ(got.rows.size(), 4u);
  EXPECT_EQ(summary.rows_delivered, 4u);
  EXPECT_TRUE(summary.truncated);
  // The budget half-close dropped that connection; a fresh buffered
  // query must still work.
  Result<net::QueryResponse> after = client_->Query(kScan);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(fed::Federation::ToTable(after)->rows.size(), 10u);
}

TEST_F(StreamClientTest, ParseDictionaryDecodesBatchesIntoIdSpace) {
  auto dict = std::make_shared<core::TermDictionary>();
  client_->set_parse_dictionary(dict);
  Result<net::QueryResponse> buffered = client_->Query(kScan);
  ASSERT_TRUE(buffered.ok());

  sparql::ResultTable all;
  size_t id_batches = 0;
  auto summary = client_->QueryStreaming(
      kScan, CancelToken(), net::StreamOptions{},
      [&](net::StreamBatch&& batch) {
        EXPECT_NE(batch.ids, nullptr);
        EXPECT_EQ(batch.ids_dict, dict);
        ++id_batches;
        sparql::ResultTable rows = core::DecodeIdTable(*batch.ids, *dict);
        if (all.vars.empty()) all.vars = rows.vars;
        for (auto& row : rows.rows) all.rows.push_back(std::move(row));
        return Status::OK();
      });
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_GE(id_batches, 3u);
  sparql::ResultTable reference = *fed::Federation::ToTable(buffered);
  ExpectTablesEqual(reference, all);
}

TEST_F(StreamClientTest, SinkErrorAbortsTheStream) {
  size_t delivered = 0;
  auto summary = client_->QueryStreaming(
      kScan, CancelToken(), net::StreamOptions{},
      [&](net::StreamBatch&& batch) -> Status {
        delivered += batch.NumRows();
        return Status::Internal("consumer exploded");
      });
  EXPECT_FALSE(summary.ok());
  EXPECT_GT(delivered, 0u);  // Exactly one batch reached the sink.
  // The client must recover on a fresh connection.
  Result<net::QueryResponse> after = client_->Query(kScan);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
}

// ---------------------------------------------------------------------
// Default (buffered-then-slice) QueryStreaming contract
// ---------------------------------------------------------------------

TEST(DefaultStreamingTest, SlicesTheBufferedAnswerIntoBatches) {
  net::SparqlEndpoint endpoint("EP", ShapeStore(), net::LatencyModel::None());
  net::StreamOptions options;
  options.batch_rows = 4;
  std::vector<size_t> batch_sizes;
  auto summary = endpoint.QueryStreaming(
      kScan, CancelToken(), options, [&](net::StreamBatch&& batch) {
        batch_sizes.push_back(batch.NumRows());
        return Status::OK();
      });
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_EQ(summary->rows_delivered, 10u);
  EXPECT_FALSE(summary->truncated);
  EXPECT_EQ(batch_sizes, (std::vector<size_t>{4, 4, 2}));
}

TEST(DefaultStreamingTest, BudgetStopsDeliveryAndMarksTruncated) {
  net::SparqlEndpoint endpoint("EP", ShapeStore(), net::LatencyModel::None());
  net::StreamOptions options;
  options.batch_rows = 4;
  options.max_rows = 5;
  uint64_t delivered = 0;
  auto summary = endpoint.QueryStreaming(
      kScan, CancelToken(), options, [&](net::StreamBatch&& batch) {
        delivered += batch.NumRows();
        return Status::OK();
      });
  ASSERT_TRUE(summary.ok());
  EXPECT_EQ(delivered, 5u);
  EXPECT_EQ(summary->rows_delivered, 5u);
  EXPECT_TRUE(summary->truncated);
}

TEST(DefaultStreamingTest, EmptyResultDeliversOneAnnouncingBatch) {
  net::SparqlEndpoint endpoint("EP", ShapeStore(), net::LatencyModel::None());
  size_t batches = 0;
  std::vector<std::string> vars;
  auto summary = endpoint.QueryStreaming(
      "SELECT ?s WHERE { ?s <http://ex/none> ?s . }", CancelToken(),
      net::StreamOptions{}, [&](net::StreamBatch&& batch) {
        ++batches;
        vars = batch.ids->vars;
        EXPECT_EQ(batch.NumRows(), 0u);
        return Status::OK();
      });
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_EQ(batches, 1u);
  EXPECT_EQ(vars, (std::vector<std::string>{"s"}));
}

// ---------------------------------------------------------------------
// One payload contract: every endpoint kind answers in ID space
// ---------------------------------------------------------------------

/// Each endpoint kind of the library, built over ShapeTriples().
enum class EndpointKind {
  kSparql,
  kHttp,
  kHttpParseDictionary,
  kCachedAsk,
  kSharded,
  kReplicaGroup,
  kFaultInjecting,
};

std::string KindName(const ::testing::TestParamInfo<EndpointKind>& info) {
  switch (info.param) {
    case EndpointKind::kSparql: return "Sparql";
    case EndpointKind::kHttp: return "Http";
    case EndpointKind::kHttpParseDictionary: return "HttpParseDictionary";
    case EndpointKind::kCachedAsk: return "CachedAsk";
    case EndpointKind::kSharded: return "Sharded";
    case EndpointKind::kReplicaGroup: return "ReplicaGroup";
    case EndpointKind::kFaultInjecting: return "FaultInjecting";
  }
  return "Unknown";
}

/// SELECT, ASK and empty answers. The correlated filter inside OPTIONAL
/// cannot be star-decomposed, so a ShardedEndpoint broadcasts those two
/// queries; it plans the others.
const char* const kContractQueries[] = {
    kScan,
    "SELECT ?s ?o ?c WHERE { ?s <http://ex/p> ?o . "
    "OPTIONAL { ?s <http://ex/q> ?c . } }",
    "SELECT ?s ?o ?c WHERE { ?s <http://ex/p> ?o . "
    "OPTIONAL { ?s <http://ex/q> ?c . FILTER (?o > 3) } }",
    "SELECT ?s WHERE { ?s <http://ex/none> ?o . }",
    "ASK { ?s <http://ex/q> <http://ex/cat0> . }",
    "ASK { ?s <http://ex/q> <http://ex/none> . }",
    "ASK { ?s <http://ex/p> ?o . "
    "OPTIONAL { ?s <http://ex/q> ?c . FILTER (?o > 3) } }",
};

class EndpointContractTest : public ::testing::TestWithParam<EndpointKind> {
 protected:
  void SetUp() override {
    const std::vector<rdf::TermTriple> triples = ShapeTriples();
    oracle_store_ = StoreOf(triples);
    auto local = [&](const std::string& id) {
      return std::make_shared<net::SparqlEndpoint>(id, StoreOf(triples),
                                                   net::LatencyModel::None());
    };
    switch (GetParam()) {
      case EndpointKind::kSparql:
        endpoint_ = local("EP");
        break;
      case EndpointKind::kHttp:
      case EndpointKind::kHttpParseDictionary: {
        server_ = std::make_unique<HttpServer>(local("EP"));
        ASSERT_TRUE(server_->Start().ok());
        auto client = std::make_shared<HttpSparqlEndpoint>(
            "EP", "127.0.0.1", server_->port());
        if (GetParam() == EndpointKind::kHttpParseDictionary) {
          client->set_parse_dictionary(
              std::make_shared<core::TermDictionary>());
        }
        endpoint_ = client;
        break;
      }
      case EndpointKind::kCachedAsk:
        cached_ = std::make_shared<cache::CachedAskEndpoint>(local("EP"),
                                                             &verdicts_);
        endpoint_ = cached_;
        break;
      case EndpointKind::kSharded: {
        shard::ShardMap map = shard::ShardMap::HashRing(3);
        std::vector<std::vector<rdf::TermTriple>> slices(map.NumShards());
        for (const rdf::TermTriple& triple : triples) {
          slices[map.ShardOfSubject(triple.subject)].push_back(triple);
        }
        std::vector<std::shared_ptr<net::Endpoint>> members;
        for (size_t i = 0; i < slices.size(); ++i) {
          members.push_back(std::make_shared<net::SparqlEndpoint>(
              "EP#" + std::to_string(i), StoreOf(slices[i]),
              net::LatencyModel::None()));
        }
        shard::ShardedEndpointOptions options;
        options.own_pool_threads = 2;
        sharded_ = std::make_shared<shard::ShardedEndpoint>(
            "EP", std::move(map), std::move(members), options);
        endpoint_ = sharded_;
        break;
      }
      case EndpointKind::kReplicaGroup:
        endpoint_ = std::make_shared<net::ReplicaGroup>(
            "EP", std::vector<std::shared_ptr<net::Endpoint>>{
                      local("EP@a"), local("EP@b")});
        break;
      case EndpointKind::kFaultInjecting:
        endpoint_ = std::make_shared<net::FaultInjectingEndpoint>(
            local("EP"), net::FaultProfile());
        break;
    }
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
  }

  /// The answer of sparql::Evaluator over the union of the endpoint's data.
  sparql::ResultTable Expected(const std::string& text) {
    Result<sparql::Query> query = sparql::ParseQuery(text);
    EXPECT_TRUE(query.ok()) << text;
    Result<sparql::ResultTable> table =
        sparql::Evaluator(oracle_store_.get()).Execute(*query);
    EXPECT_TRUE(table.ok()) << text << ": " << table.status().ToString();
    return table.ok() ? *table : sparql::ResultTable();
  }

  /// Checks the kind-specific paths the queries were meant to reach.
  void ExpectPathsCovered() {
    if (cached_ != nullptr) {
      EXPECT_GT(cached_->hits(), 0u);
      EXPECT_GT(cached_->misses(), 0u);
    }
    if (sharded_ != nullptr) {
      EXPECT_GT(sharded_->stats().broadcast_fallbacks, 0u);
      EXPECT_GT(sharded_->stats().fanout_requests, 0u);
    }
  }

  std::unique_ptr<store::TripleStore> oracle_store_;
  std::unique_ptr<HttpServer> server_;
  cache::FederationCache verdicts_;
  std::shared_ptr<cache::CachedAskEndpoint> cached_;
  std::shared_ptr<shard::ShardedEndpoint> sharded_;
  std::shared_ptr<net::Endpoint> endpoint_;
};

TEST_P(EndpointContractTest, BufferedAnswersAreIdsMatchingTheEvaluator) {
  // Twice each, so a CachedAskEndpoint answers a repeated ASK from its
  // verdict tier.
  for (int round = 0; round < 2; ++round) {
    for (const char* text : kContractQueries) {
      Result<net::QueryResponse> response = endpoint_->Query(text);
      ASSERT_TRUE(response.ok()) << text << ": "
                                 << response.status().ToString();
      ASSERT_NE(response->ids, nullptr) << text;
      ASSERT_NE(response->ids_dict, nullptr) << text;
      sparql::ResultTable want = Expected(text);
      sparql::ResultTable got =
          core::DecodeIdTable(*response->ids, *response->ids_dict);
      EXPECT_EQ(got.vars, want.vars) << text;
      EXPECT_EQ(CanonicalRows(got), CanonicalRows(want)) << text;
    }
  }
  ExpectPathsCovered();
}

TEST_P(EndpointContractTest, StreamedBatchesAreIdsMatchingTheEvaluator) {
  net::StreamOptions options;
  options.batch_rows = 3;
  for (int round = 0; round < 2; ++round) {
    for (const char* text : kContractQueries) {
      sparql::ResultTable got;
      size_t batches = 0;
      auto summary = endpoint_->QueryStreaming(
          text, CancelToken(), options, [&](net::StreamBatch&& batch) {
            EXPECT_NE(batch.ids, nullptr) << text;
            EXPECT_NE(batch.ids_dict, nullptr) << text;
            if (batch.ids == nullptr || batch.ids_dict == nullptr) {
              return Status::Internal("batch without an id payload");
            }
            sparql::ResultTable rows =
                core::DecodeIdTable(*batch.ids, *batch.ids_dict);
            if (batches++ == 0) got.vars = rows.vars;
            for (auto& row : rows.rows) got.rows.push_back(std::move(row));
            return Status::OK();
          });
      ASSERT_TRUE(summary.ok()) << text << ": "
                                << summary.status().ToString();
      EXPECT_GE(batches, 1u) << text;
      ASSERT_NE(summary->response.ids, nullptr) << text;
      ASSERT_NE(summary->response.ids_dict, nullptr) << text;
      EXPECT_EQ(summary->response.RowCount(), 0u) << text;
      sparql::ResultTable want = Expected(text);
      EXPECT_EQ(summary->response.ids->vars, want.vars) << text;
      EXPECT_EQ(summary->rows_delivered, want.rows.size()) << text;
      EXPECT_EQ(got.vars, want.vars) << text;
      EXPECT_EQ(CanonicalRows(got), CanonicalRows(want)) << text;
    }
  }
  ExpectPathsCovered();
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, EndpointContractTest,
    ::testing::Values(EndpointKind::kSparql, EndpointKind::kHttp,
                      EndpointKind::kHttpParseDictionary,
                      EndpointKind::kCachedAsk, EndpointKind::kSharded,
                      EndpointKind::kReplicaGroup,
                      EndpointKind::kFaultInjecting),
    KindName);

// ---------------------------------------------------------------------
// Decorator semantics: failover only before the first batch
// ---------------------------------------------------------------------

/// Streams a fixed table; fails with kUnavailable either before any
/// delivery (first `fail_before` calls) or right after the first batch
/// (`fail_mid_stream`).
class FlakyStreamEndpoint : public net::Endpoint {
 public:
  FlakyStreamEndpoint(std::string id, sparql::ResultTable table,
                      int fail_before, bool fail_mid_stream)
      : id_(std::move(id)),
        table_(std::move(table)),
        fail_before_(fail_before),
        fail_mid_stream_(fail_mid_stream) {}

  const std::string& id() const override { return id_; }

  Result<net::QueryResponse> QueryCancellable(const std::string&,
                                              const CancelToken&) override {
    net::QueryResponse response;
    SetPayload(&response, table_);
    return response;
  }

  Result<net::StreamSummary> QueryStreaming(
      const std::string&, const CancelToken&,
      const net::StreamOptions& options,
      const net::StreamSink& sink) override {
    int call = ++stream_calls_;
    if (call <= fail_before_) {
      return Status::Unavailable("injected pre-stream failure");
    }
    size_t batch_rows = options.batch_rows == 0 ? 256 : options.batch_rows;
    net::QueryResponse all;
    SetPayload(&all, table_);
    net::StreamSummary summary;
    summary.response.ids = std::make_shared<core::IdTable>(table_.vars);
    summary.response.ids_dict = all.ids_dict;
    for (size_t begin = 0; begin < table_.rows.size(); begin += batch_rows) {
      net::StreamBatch batch;
      size_t end = std::min(begin + batch_rows, table_.rows.size());
      batch.ids = std::make_shared<core::IdTable>(all.ids->Slice(begin, end));
      batch.ids_dict = all.ids_dict;
      summary.rows_delivered += batch.NumRows();
      Status delivered = sink(std::move(batch));
      if (!delivered.ok()) return delivered;
      if (fail_mid_stream_) {
        return Status::Unavailable("injected mid-stream failure");
      }
    }
    return summary;
  }

  int stream_calls() const { return stream_calls_.load(); }

 private:
  std::string id_;
  sparql::ResultTable table_;
  int fail_before_;
  bool fail_mid_stream_;
  std::atomic<int> stream_calls_{0};
};

sparql::ResultTable SmallTable(int rows = 6) {
  sparql::ResultTable table;
  table.vars = {"s"};
  for (int i = 0; i < rows; ++i) {
    table.rows.push_back({rdf::Term::Integer(i)});
  }
  return table;
}

TEST(ReplicaStreamingTest, FailsOverOnlyBeforeTheFirstBatch) {
  // Replica 0 fails pre-delivery, replica 1 streams fine: sequential
  // failover is sound and the consumer sees each row exactly once.
  auto down = std::make_shared<FlakyStreamEndpoint>(
      "ep#0", SmallTable(), /*fail_before=*/1000, false);
  auto up = std::make_shared<FlakyStreamEndpoint>("ep#1", SmallTable(),
                                                  0, false);
  net::ReplicaGroupOptions options;
  options.lazy_probe = false;
  options.hedging_enabled = true;  // Must be ignored for streams.
  options.hedge_delay_ms = 1.0;
  net::ReplicaGroup group("ep", {down, up}, options);
  uint64_t delivered = 0;
  auto summary = group.QueryStreaming(
      kScan, CancelToken(), net::StreamOptions{},
      [&](net::StreamBatch&& batch) {
        delivered += batch.NumRows();
        return Status::OK();
      });
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_EQ(delivered, 6u);
  EXPECT_EQ(summary->response.served_by, "ep#1");
  EXPECT_GE(group.stats().failovers, 1u);
  // Hedging duplicates rows, so streams never hedge.
  EXPECT_EQ(group.stats().hedges_launched, 0u);
}

TEST(ReplicaStreamingTest, MidStreamFailureIsFinal) {
  auto leaky = std::make_shared<FlakyStreamEndpoint>(
      "ep#0", SmallTable(), 0, /*fail_mid_stream=*/true);
  auto up = std::make_shared<FlakyStreamEndpoint>("ep#1", SmallTable(),
                                                  0, false);
  net::ReplicaGroupOptions options;
  options.lazy_probe = false;
  options.hedging_enabled = false;
  net::ReplicaGroup group("ep", {leaky, up}, options);
  uint64_t delivered = 0;
  auto summary = group.QueryStreaming(
      kScan, CancelToken(), net::StreamOptions{},
      [&](net::StreamBatch&& batch) {
        delivered += batch.NumRows();
        return Status::OK();
      });
  ASSERT_FALSE(summary.ok());
  EXPECT_EQ(delivered, 6u);  // Replica 1 never replayed them.
}

// ---------------------------------------------------------------------
// Slow consumers and mid-stream disconnects (back-pressure plumbing)
// ---------------------------------------------------------------------

class SlowConsumerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto endpoint = std::make_shared<net::SparqlEndpoint>(
        "WIDE", WideStore(), net::LatencyModel::None());
    HttpServerOptions options;
    options.request_timeout_ms = 300;  // Write deadline per chunk.
    options.stream_batch_rows = 512;
    server_ = std::make_unique<HttpServer>(endpoint, options);
    ASSERT_TRUE(server_->Start().ok());
  }
  void TearDown() override { server_->Stop(); }

  /// Opens a connection with a tiny receive buffer (so the server's
  /// writes hit TCP back-pressure quickly) and sends a streaming scan.
  int OpenStalledStream() {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    int rcvbuf = 4096;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
    struct sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server_->port());
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    std::string request = StreamRequest(kScan);
    EXPECT_EQ(::send(fd, request.data(), request.size(), 0),
              static_cast<ssize_t>(request.size()));
    return fd;
  }

  bool WaitForAbort(double timeout_ms = 10000.0) {
    Stopwatch timer;
    while (timer.ElapsedMillis() < timeout_ms) {
      if (server_->stats().stream_aborts >= 1) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return false;
  }

  std::unique_ptr<HttpServer> server_;
};

TEST_F(SlowConsumerTest, StalledReaderTripsTheWriteDeadline) {
  // A consumer that never reads blocks the server's chunk writes; the
  // per-write deadline fires, the sink fails, and the stream is aborted
  // instead of buffering the multi-megabyte answer in memory.
  int fd = OpenStalledStream();
  EXPECT_TRUE(WaitForAbort()) << "stalled reader never aborted the stream";
  ::close(fd);

  // The worker is free again: a normal request still gets served.
  auto client = std::make_shared<HttpSparqlEndpoint>("WIDE", "127.0.0.1",
                                                     server_->port());
  Result<net::QueryResponse> after =
      client->Query("SELECT ?s WHERE { ?s <http://ex/p> \"nope\" . }");
  ASSERT_TRUE(after.ok()) << after.status().ToString();
}

TEST_F(SlowConsumerTest, DisconnectMidStreamAbortsTheStream) {
  int fd = OpenStalledStream();
  // Let the head and first chunks reach the socket, then vanish.
  char buf[2048];
  ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
  EXPECT_GT(n, 0);
  ::close(fd);  // Unread data pending -> RST; further writes fail fast.
  EXPECT_TRUE(WaitForAbort()) << "disconnect did not abort the stream";
}

// ---------------------------------------------------------------------
// Engine LIMIT pushdown into generated subqueries
// ---------------------------------------------------------------------

/// Records every query text shipped to the inner endpoint.
class RecordingEndpoint : public net::Endpoint {
 public:
  explicit RecordingEndpoint(std::shared_ptr<net::Endpoint> inner)
      : inner_(std::move(inner)) {}

  const std::string& id() const override { return inner_->id(); }

  Result<net::QueryResponse> QueryCancellable(
      const std::string& text, const CancelToken& cancel) override {
    Record(text);
    return inner_->QueryCancellable(text, cancel);
  }

  std::vector<std::string> recorded() const {
    std::lock_guard<std::mutex> lock(mu_);
    return texts_;
  }

 private:
  void Record(const std::string& text) {
    std::lock_guard<std::mutex> lock(mu_);
    texts_.push_back(text);
  }
  std::shared_ptr<net::Endpoint> inner_;
  mutable std::mutex mu_;
  std::vector<std::string> texts_;
};

class LimitPushdownTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Two endpoints, disjoint subjects: s0..s4 on EP0, s5..s9 on EP1.
    for (int e = 0; e < 2; ++e) {
      auto store = std::make_unique<store::TripleStore>();
      for (int i = e * 5; i < e * 5 + 5; ++i) {
        store->Add(rdf::TermTriple{
            rdf::Term::Iri("http://ex/s" + std::to_string(i)),
            rdf::Term::Iri("http://ex/p"), rdf::Term::Integer(i)});
      }
      store->Freeze();
      auto recorder = std::make_shared<RecordingEndpoint>(
          std::make_shared<net::SparqlEndpoint>("EP" + std::to_string(e),
                                                std::move(store),
                                                net::LatencyModel::None()));
      recorders_.push_back(recorder);
      federation_.Add(recorder);
    }
  }

  /// True when any shipped subquery text carries a pushed LIMIT (the
  /// pushdown appends "\nLIMIT n"; GJV probes use inline " LIMIT 1", so
  /// the newline distinguishes them).
  bool SawPushedLimit(const std::string& expected) {
    for (const auto& recorder : recorders_) {
      for (const std::string& text : recorder->recorded()) {
        if (text.find("\nLIMIT " + expected) != std::string::npos) {
          return true;
        }
      }
    }
    return false;
  }

  bool SawAnyPushedLimit() {
    for (const auto& recorder : recorders_) {
      for (const std::string& text : recorder->recorded()) {
        if (text.find("\nLIMIT") != std::string::npos) return true;
      }
    }
    return false;
  }

  fed::Federation federation_;
  std::vector<std::shared_ptr<RecordingEndpoint>> recorders_;
};

TEST_F(LimitPushdownTest, WholeQueryModePushesLimitToEndpoints) {
  core::LusailEngine engine(&federation_);
  Result<fed::FederatedResult> full = engine.Execute(kScan);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  ASSERT_EQ(full->table.rows.size(), 10u);
  std::vector<std::string> full_rows = CanonicalRows(full->table);

  Result<fed::FederatedResult> limited =
      engine.Execute(std::string(kScan) + " LIMIT 3");
  ASSERT_TRUE(limited.ok()) << limited.status().ToString();
  EXPECT_EQ(limited->table.rows.size(), 3u);
  EXPECT_TRUE(SawPushedLimit("3"));
  // A capped gather must still be a subset of the exact answer.
  for (const std::string& row : CanonicalRows(limited->table)) {
    EXPECT_TRUE(
        std::binary_search(full_rows.begin(), full_rows.end(), row))
        << "pushdown invented row " << row;
  }
}

TEST_F(LimitPushdownTest, OffsetStaysAtTheGather) {
  // LIMIT 2 OFFSET 1 ships as LIMIT 3 (offset+limit): each endpoint may
  // serve the whole window, OFFSET is applied exactly once federator-side.
  core::LusailEngine engine(&federation_);
  Result<fed::FederatedResult> result =
      engine.Execute(std::string(kScan) + " LIMIT 2 OFFSET 1");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->table.rows.size(), 2u);
  EXPECT_TRUE(SawPushedLimit("3"));
  for (const auto& recorder : recorders_) {
    for (const std::string& text : recorder->recorded()) {
      EXPECT_EQ(text.find("OFFSET"), std::string::npos)
          << "OFFSET must never ship to an endpoint: " << text;
    }
  }
}

TEST_F(LimitPushdownTest, DistinctSuppressesThePushdown) {
  // DISTINCT dedups across endpoints: a capped fetch could starve the
  // dedup of rows it needed. No LIMIT may ship.
  core::LusailEngine engine(&federation_);
  Result<fed::FederatedResult> result = engine.Execute(
      "SELECT DISTINCT ?o WHERE { ?s <http://ex/p> ?o . } LIMIT 3");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->table.rows.size(), 3u);
  EXPECT_FALSE(SawAnyPushedLimit());
}

TEST_F(LimitPushdownTest, OrderBySuppressesThePushdownAndSortsGlobally) {
  core::LusailEngine engine(&federation_);
  Result<fed::FederatedResult> result = engine.Execute(
      std::string(kScan) + " ORDER BY ?o LIMIT 3");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(SawAnyPushedLimit());
  ASSERT_EQ(result->table.rows.size(), 3u);
  // The global sort's first three: o = 0, 1, 2.
  for (size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(result->table.rows[i][1].has_value());
    EXPECT_EQ(result->table.rows[i][1]->lexical(), std::to_string(i));
  }
}

TEST_F(LimitPushdownTest, FirstRowLatencyLandsInTheProfile) {
  core::LusailEngine engine(&federation_);
  Result<fed::FederatedResult> result = engine.Execute(kScan);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->profile.first_row_ms, 0.0);
  obs::JsonValue json = fed::ProfileToJson(result->profile);
  EXPECT_NE(json.Pretty().find("first_row_ms"), std::string::npos);
}

// ---------------------------------------------------------------------
// Loopback federation: pushdown end-to-end over real sockets
// ---------------------------------------------------------------------

TEST(LoopbackPushdownTest, LimitedFederatedQueryStaysExactOverTheWire) {
  workload::LubmConfig config = workload::LubmConfig::Small();
  config.num_universities = 3;
  std::vector<workload::EndpointSpec> specs =
      workload::LubmGenerator(config).GenerateAll();

  fed::Federation remote;
  std::vector<std::unique_ptr<HttpServer>> servers;
  for (const auto& spec : specs) {
    auto store = std::make_unique<store::TripleStore>();
    for (const auto& triple : spec.triples) store->Add(triple);
    store->Freeze();
    auto endpoint = std::make_shared<net::SparqlEndpoint>(
        spec.id, std::move(store), net::LatencyModel::None());
    auto server = std::make_unique<HttpServer>(endpoint);
    ASSERT_TRUE(server->Start().ok());
    remote.Add(std::make_shared<HttpSparqlEndpoint>(spec.id, "127.0.0.1",
                                                    server->port()));
    servers.push_back(std::move(server));
  }

  core::LusailEngine engine(&remote);
  const std::string query = workload::LubmGenerator::QueryQa();
  Result<fed::FederatedResult> full = engine.Execute(query);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  ASSERT_GT(full->table.rows.size(), 3u);
  std::vector<std::string> full_rows = CanonicalRows(full->table);

  Result<fed::FederatedResult> limited = engine.Execute(query + " LIMIT 3");
  ASSERT_TRUE(limited.ok()) << limited.status().ToString();
  EXPECT_EQ(limited->table.rows.size(), 3u);
  for (const std::string& row : CanonicalRows(limited->table)) {
    EXPECT_TRUE(
        std::binary_search(full_rows.begin(), full_rows.end(), row))
        << "limited run invented row " << row;
  }
  for (auto& server : servers) server->Stop();
}

}  // namespace
}  // namespace lusail

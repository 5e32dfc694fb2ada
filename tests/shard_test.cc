// Tests for the sharded data plane: ShardMap determinism and --shards
// parsing, loader/router agreement on N-Triples splits, scatter-gather
// row identity against an unsharded oracle, subject-constant routing,
// ASK/COUNT pruning through the federation cache, partial-results
// degradation when a shard dies, and the 4-shard loopback end-to-end
// with a mid-query shard kill.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cache/federation_cache.h"
#include "core/id_table.h"
#include "core/lusail_engine.h"
#include "net/fault_injection.h"
#include "net/replica.h"
#include "net/sparql_endpoint.h"
#include "rpc/http_server.h"
#include "rpc/http_sparql_endpoint.h"
#include "shard/shard_map.h"
#include "shard/sharded_endpoint.h"
#include "store/triple_store.h"
#include "workload/federation_builder.h"
#include "workload/lubm_generator.h"

namespace lusail {
namespace {

// ---------------------------------------------------------------------
// Shared fixtures
// ---------------------------------------------------------------------

/// 20 subjects, two triples each: <sN> <p> N and <sN> <q> <cat(N%3)>.
std::vector<rdf::TermTriple> TestTriples() {
  std::vector<rdf::TermTriple> triples;
  for (int i = 0; i < 20; ++i) {
    rdf::Term subject = rdf::Term::Iri("http://ex/s" + std::to_string(i));
    triples.push_back(rdf::TermTriple{subject, rdf::Term::Iri("http://ex/p"),
                                      rdf::Term::Integer(i)});
    triples.push_back(rdf::TermTriple{
        subject, rdf::Term::Iri("http://ex/q"),
        rdf::Term::Iri("http://ex/cat" + std::to_string(i % 3))});
  }
  return triples;
}

std::unique_ptr<store::TripleStore> StoreOf(
    const std::vector<rdf::TermTriple>& triples) {
  auto store = std::make_unique<store::TripleStore>();
  for (const auto& triple : triples) store->Add(triple);
  store->Freeze();
  return store;
}

/// Splits `triples` into `map.NumShards()` in-process SparqlEndpoints by
/// subject ownership — the loader side of the shard contract.
std::vector<std::shared_ptr<net::Endpoint>> ShardMembers(
    const std::vector<rdf::TermTriple>& triples, const shard::ShardMap& map,
    const std::string& logical_id) {
  std::vector<std::vector<rdf::TermTriple>> slices(map.NumShards());
  for (const auto& triple : triples) {
    slices[map.ShardOfSubject(triple.subject)].push_back(triple);
  }
  std::vector<std::shared_ptr<net::Endpoint>> members;
  for (size_t i = 0; i < slices.size(); ++i) {
    members.push_back(std::make_shared<net::SparqlEndpoint>(
        logical_id + "#" + std::to_string(i), StoreOf(slices[i]),
        net::LatencyModel::None()));
  }
  return members;
}

/// The response rows, decoded through the response's own id space.
sparql::ResultTable ResponseTable(const net::QueryResponse& response) {
  return core::DecodeIdTable(*response.ids, *response.ids_dict);
}

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

// ---------------------------------------------------------------------
// ShardMap: determinism, parsing, loader/router agreement
// ---------------------------------------------------------------------

TEST(ShardMapTest, SameHostListInAnyOrderYieldsIdenticalAssignment) {
  auto a = shard::ParseShardsArg("h1:9001,h2:9002,h3:9003,h4:9004=lubm");
  auto b = shard::ParseShardsArg("h4:9004,h2:9002,h1:9001,h3:9003=lubm");
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ASSERT_EQ(a->members.size(), 4u);
  ASSERT_EQ(b->members.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(a->members[i].addresses, b->members[i].addresses);
    EXPECT_EQ(a->members[i].id, b->members[i].id);
  }
  shard::ShardMap map_a = a->Map();
  shard::ShardMap map_b = b->Map();
  for (int i = 0; i < 200; ++i) {
    rdf::Term subject = rdf::Term::Iri("http://ex/s" + std::to_string(i));
    EXPECT_EQ(map_a.ShardOfSubject(subject), map_b.ShardOfSubject(subject));
  }
}

TEST(ShardMapTest, AssignmentMatchesIndexOnlyHashRing) {
  // The ring is keyed by shard index alone, so a parsed 4-member spec and
  // a bare HashRing(4) — the loader's map — agree on every subject.
  auto spec = shard::ParseShardsArg("h1:9001,h2:9002,h3:9003,h4:9004=lubm");
  ASSERT_TRUE(spec.ok());
  shard::ShardMap parsed = spec->Map();
  shard::ShardMap loader = shard::ShardMap::HashRing(4);
  for (int i = 0; i < 200; ++i) {
    rdf::Term subject = rdf::Term::Iri("http://ex/u" + std::to_string(i));
    EXPECT_EQ(parsed.ShardOfSubject(subject), loader.ShardOfSubject(subject));
  }
}

TEST(ShardMapTest, HashRingSpreadsSubjectsAcrossAllShards) {
  shard::ShardMap map = shard::ShardMap::HashRing(4);
  std::set<size_t> seen;
  for (int i = 0; i < 200; ++i) {
    size_t shard = map.ShardOfSubject(
        rdf::Term::Iri("http://ex/s" + std::to_string(i)));
    ASSERT_LT(shard, 4u);
    seen.insert(shard);
  }
  EXPECT_EQ(seen.size(), 4u);
}

TEST(ShardMapTest, MalformedSpecsNameTheOffendingToken) {
  struct Case {
    const char* arg;
    const char* offender;  ///< Must appear in the error message.
  };
  const Case cases[] = {
      {"h1:9001,h2:9002", "h1:9001,h2:9002"},       // Missing =id.
      {"h1:9001,,h2:9002=x", ""},                   // Empty member.
      {"h1:9001,bogus=x", "bogus"},                 // No host:port shape.
      {"h1:9001,h2:=x", "h2:"},                     // Empty port.
      {"h1:9001,h1:9001=x", "h1:9001"},             // Duplicate address.
      {"h1:9001^u0,h2:9002=x", "h2:9002"},          // Mixed token-ness.
      {"h1:9001^=x", "h1:9001^"},                   // Empty token.
      {"=x", "=x"},                                 // No members.
      {"h1:9001=", "h1:9001="},                     // Empty logical id.
  };
  for (const Case& c : cases) {
    auto spec = shard::ParseShardsArg(c.arg);
    ASSERT_FALSE(spec.ok()) << "accepted: " << c.arg;
    EXPECT_EQ(spec.status().code(), StatusCode::kInvalidArgument) << c.arg;
    if (c.offender[0] != '\0') {
      EXPECT_NE(spec.status().message().find(c.offender), std::string::npos)
          << c.arg << " -> " << spec.status().ToString();
    }
  }
}

TEST(ShardMapTest, ReplicaAddressesAndTokenModeParse) {
  auto spec = shard::ParseShardsArg(
      "h1:9001|h1:9002^.University0.,h2:9001^.University1.=lubm");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  ASSERT_EQ(spec->members.size(), 2u);
  EXPECT_EQ(spec->logical_id, "lubm");
  // Members sort by primary address: h1:9001|h1:9002 before h2:9001.
  EXPECT_EQ(spec->members[0].addresses,
            (std::vector<std::string>{"h1:9001", "h1:9002"}));
  EXPECT_EQ(spec->members[0].token, ".University0.");
  EXPECT_EQ(spec->members[1].token, ".University1.");

  shard::ShardMap map = spec->Map();
  EXPECT_EQ(map.mode(), shard::ShardMode::kTokens);
  EXPECT_EQ(map.ShardOfSubject(rdf::Term::Iri(
                "http://www.Department3.University0.edu/Student42")),
            0u);
  EXPECT_EQ(map.ShardOfSubject(rdf::Term::Iri(
                "http://www.Department1.University1.edu/Professor7")),
            1u);
  // Strays fall back to the ring deterministically.
  rdf::Term stray = rdf::Term::Iri("http://ex/other");
  EXPECT_EQ(map.ShardOfSubject(stray), map.ShardOfSubject(stray));
  EXPECT_LT(map.ShardOfSubject(stray), 2u);
}

TEST(ShardMapTest, SplitNTriplesAgreesWithSubjectRouting) {
  std::string text = "# comment line\n\n";
  for (int i = 0; i < 50; ++i) {
    text += "<http://ex/s" + std::to_string(i) +
            "> <http://ex/p> <http://ex/o" + std::to_string(i) + "> .\n";
  }
  shard::ShardMap map = shard::ShardMap::HashRing(4);
  auto chunks = shard::SplitNTriples(text, map);
  ASSERT_TRUE(chunks.ok()) << chunks.status().ToString();
  ASSERT_EQ(chunks->size(), 4u);

  size_t total = 0;
  for (size_t shard = 0; shard < chunks->size(); ++shard) {
    std::istringstream lines((*chunks)[shard]);
    std::string line;
    while (std::getline(lines, line)) {
      if (line.empty()) continue;
      ++total;
      std::string subject = line.substr(0, line.find("> ") + 1);
      EXPECT_EQ(map.ShardOfSubjectText(subject), shard) << line;
      rdf::TermTriple triple;
      bool has_triple = false;
      ASSERT_TRUE(rdf::ParseNTriplesLine(line, &triple, &has_triple).ok());
      ASSERT_TRUE(has_triple);
      EXPECT_EQ(map.ShardOfSubject(triple.subject), shard) << line;
    }
  }
  EXPECT_EQ(total, 50u);  // Comments/blank lines dropped, no triple lost.
}

TEST(ShardMapTest, SplitNTriplesRejectsMalformedLines) {
  shard::ShardMap map = shard::ShardMap::HashRing(2);
  auto chunks = shard::SplitNTriples("this is not an n-triples line\n", map);
  ASSERT_FALSE(chunks.ok());
}

// ---------------------------------------------------------------------
// ShardedEndpoint: scatter-gather row identity against the oracle
// ---------------------------------------------------------------------

/// 4-shard in-process endpoint plus the unsharded oracle over identical
/// data; every SELECT must be row-identical between the two.
class ShardedEndpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    triples_ = TestTriples();
    oracle_ = std::make_shared<net::SparqlEndpoint>(
        "oracle", StoreOf(triples_), net::LatencyModel::None());
    map_ = shard::ShardMap::HashRing(4);
    Rebuild(shard::ShardedEndpointOptions{});
  }

  void Rebuild(shard::ShardedEndpointOptions options) {
    sharded_ = std::make_unique<shard::ShardedEndpoint>(
        "ex", map_, ShardMembers(triples_, map_, "ex"), options);
  }

  /// Runs `text` on both and expects identical canonical rows.
  void ExpectRowIdentical(const std::string& text) {
    auto expected = oracle_->Query(text);
    auto actual = sharded_->Query(text);
    ASSERT_TRUE(expected.ok()) << text << ": " << expected.status().ToString();
    ASSERT_TRUE(actual.ok()) << text << ": " << actual.status().ToString();
    EXPECT_EQ(CanonicalRows(ResponseTable(*actual)),
              CanonicalRows(ResponseTable(*expected)))
        << text;
  }

  std::vector<rdf::TermTriple> triples_;
  std::shared_ptr<net::SparqlEndpoint> oracle_;
  shard::ShardMap map_ = shard::ShardMap::HashRing(4);
  std::unique_ptr<shard::ShardedEndpoint> sharded_;
};

TEST_F(ShardedEndpointTest, SingleStarScanIsRowIdentical) {
  ExpectRowIdentical("SELECT ?s ?o WHERE { ?s <http://ex/p> ?o . }");
}

TEST_F(ShardedEndpointTest, SubjectStarJoinIsRowIdentical) {
  ExpectRowIdentical(
      "SELECT ?s ?o ?c WHERE { ?s <http://ex/p> ?o . "
      "?s <http://ex/q> ?c . }");
}

TEST_F(ShardedEndpointTest, FilterIsRowIdentical) {
  ExpectRowIdentical(
      "SELECT ?s ?o WHERE { ?s <http://ex/p> ?o . FILTER(?o > 12) }");
}

TEST_F(ShardedEndpointTest, DistinctProjectionIsRowIdentical) {
  ExpectRowIdentical("SELECT DISTINCT ?c WHERE { ?s <http://ex/q> ?c . }");
}

TEST_F(ShardedEndpointTest, DistinctIgnoresSortKeyOutsideProjection) {
  // DISTINCT dedups on the selected ?c alone: the sort key ?o must not
  // widen the rows into 20 distinct (?c, ?o) pairs.
  ExpectRowIdentical(
      "SELECT DISTINCT ?c WHERE { ?s <http://ex/q> ?c . "
      "?s <http://ex/p> ?o . } ORDER BY ?o");
}

TEST_F(ShardedEndpointTest, OptionalIsRowIdentical) {
  ExpectRowIdentical(
      "SELECT ?s ?o ?c WHERE { ?s <http://ex/p> ?o . "
      "OPTIONAL { ?s <http://ex/q> ?c . } }");
}

TEST_F(ShardedEndpointTest, UnionIsRowIdentical) {
  ExpectRowIdentical(
      "SELECT ?s WHERE { { ?s <http://ex/q> <http://ex/cat0> . } UNION "
      "{ ?s <http://ex/q> <http://ex/cat1> . } }");
}

TEST_F(ShardedEndpointTest, ValuesIsRowIdentical) {
  ExpectRowIdentical(
      "SELECT ?s ?o WHERE { VALUES ?s { <http://ex/s1> <http://ex/s7> "
      "<http://ex/s13> } ?s <http://ex/p> ?o . }");
}

TEST_F(ShardedEndpointTest, OrderByLimitIsRowIdentical) {
  const char kText[] =
      "SELECT ?s ?o WHERE { ?s <http://ex/p> ?o . } ORDER BY ?o LIMIT 5";
  auto expected = oracle_->Query(kText);
  auto actual = sharded_->Query(kText);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  ASSERT_TRUE(actual.ok()) << actual.status().ToString();
  sparql::ResultTable expected_table = ResponseTable(*expected);
  sparql::ResultTable actual_table = ResponseTable(*actual);
  ASSERT_EQ(actual_table.rows.size(), 5u);
  // ORDER BY makes the row order part of the contract: compare in order.
  EXPECT_EQ(CanonicalRows(actual_table), CanonicalRows(expected_table));
  for (size_t r = 0; r < actual_table.rows.size(); ++r) {
    ASSERT_TRUE(actual_table.rows[r][1].has_value());
    ASSERT_TRUE(expected_table.rows[r][1].has_value());
    EXPECT_EQ(actual_table.rows[r][1]->ToString(),
              expected_table.rows[r][1]->ToString());
  }
}

TEST_F(ShardedEndpointTest, OrderByLimitOffsetWindowMatchesOracle) {
  // The gather's bounded top-k must produce the same window as the
  // oracle's full sort — ascending, descending, and with OFFSET shifting
  // the window past the heap's worst rows.
  const char* windows[] = {
      "SELECT ?s ?o WHERE { ?s <http://ex/p> ?o . } "
      "ORDER BY ?o LIMIT 5 OFFSET 3",
      "SELECT ?s ?o WHERE { ?s <http://ex/p> ?o . } "
      "ORDER BY DESC(?o) LIMIT 4",
      "SELECT ?s ?o WHERE { ?s <http://ex/p> ?o . } "
      "ORDER BY DESC(?o) LIMIT 6 OFFSET 16",  // Window past the tail.
      "SELECT ?s ?o WHERE { ?s <http://ex/p> ?o . } ORDER BY ?o OFFSET 18",
  };
  for (const char* text : windows) {
    auto expected = oracle_->Query(text);
    auto actual = sharded_->Query(text);
    ASSERT_TRUE(expected.ok()) << text << ": " << expected.status().ToString();
    ASSERT_TRUE(actual.ok()) << text << ": " << actual.status().ToString();
    sparql::ResultTable expected_table = ResponseTable(*expected);
    sparql::ResultTable actual_table = ResponseTable(*actual);
    ASSERT_EQ(actual_table.rows.size(), expected_table.rows.size()) << text;
    // ?o is unique per row, so the ordered comparison is deterministic.
    for (size_t r = 0; r < actual_table.rows.size(); ++r) {
      ASSERT_TRUE(actual_table.rows[r][1].has_value()) << text;
      EXPECT_EQ(actual_table.rows[r][1]->ToString(),
                expected_table.rows[r][1]->ToString())
          << text << " row " << r;
    }
  }
}

TEST_F(ShardedEndpointTest, OrderByKeyOutsideProjectionStillSorts) {
  // The sort key is not in the SELECT list: members must ship it anyway
  // (the scatter extends their projection) and the gather must drop the
  // extra column after windowing.
  const char kText[] =
      "SELECT ?s WHERE { ?s <http://ex/p> ?o . } ORDER BY DESC(?o) LIMIT 5";
  auto expected = oracle_->Query(kText);
  auto actual = sharded_->Query(kText);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  ASSERT_TRUE(actual.ok()) << actual.status().ToString();
  sparql::ResultTable expected_table = ResponseTable(*expected);
  sparql::ResultTable actual_table = ResponseTable(*actual);
  ASSERT_EQ(actual_table.vars, (std::vector<std::string>{"s"}));
  ASSERT_EQ(actual_table.rows.size(), 5u);
  // ?o = N for subject sN, so DESC(?o) LIMIT 5 is s19..s15 exactly.
  for (size_t r = 0; r < 5; ++r) {
    ASSERT_TRUE(actual_table.rows[r][0].has_value());
    EXPECT_EQ(actual_table.rows[r][0]->ToString(),
              expected_table.rows[r][0]->ToString())
        << "row " << r;
  }
}

/// Member decorator recording every shipped query text.
class RecordingMember : public net::Endpoint {
 public:
  explicit RecordingMember(std::shared_ptr<net::Endpoint> inner)
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

TEST_F(ShardedEndpointTest, OffsetIsNeverPushedToMembers) {
  // OFFSET pushed to a member would skip that member's first rows and
  // lose them from the union for good; LIMIT may ship only widened to
  // offset+limit, and only when no global sort reorders the union.
  std::vector<std::shared_ptr<RecordingMember>> recorders;
  std::vector<std::shared_ptr<net::Endpoint>> members;
  for (auto& member : ShardMembers(triples_, map_, "ex")) {
    auto recorder = std::make_shared<RecordingMember>(member);
    recorders.push_back(recorder);
    members.push_back(recorder);
  }
  shard::ShardedEndpoint sharded("ex", map_, members,
                                 shard::ShardedEndpointOptions{});

  auto windowed = sharded.Query(
      "SELECT ?s ?o WHERE { ?s <http://ex/p> ?o . } LIMIT 5 OFFSET 3");
  ASSERT_TRUE(windowed.ok()) << windowed.status().ToString();
  EXPECT_EQ(ResponseTable(*windowed).rows.size(), 5u);
  std::vector<size_t> seen;
  bool saw_widened_limit = false;
  for (const auto& recorder : recorders) {
    std::vector<std::string> texts = recorder->recorded();
    seen.push_back(texts.size());
    for (const std::string& text : texts) {
      EXPECT_EQ(text.find("OFFSET"), std::string::npos)
          << "OFFSET shipped to a member: " << text;
      // The unsorted window ships LIMIT offset+limit = 8 to members.
      if (text.find("LIMIT 8") != std::string::npos) {
        saw_widened_limit = true;
      }
    }
  }
  EXPECT_TRUE(saw_widened_limit);

  auto sorted = sharded.Query(
      "SELECT ?s ?o WHERE { ?s <http://ex/p> ?o . } "
      "ORDER BY ?o LIMIT 5 OFFSET 3");
  ASSERT_TRUE(sorted.ok()) << sorted.status().ToString();
  EXPECT_EQ(ResponseTable(*sorted).rows.size(), 5u);
  for (size_t i = 0; i < recorders.size(); ++i) {
    std::vector<std::string> texts = recorders[i]->recorded();
    for (size_t t = seen[i]; t < texts.size(); ++t) {
      // Under a global sort the gather needs every member row that could
      // fall in the window, so neither OFFSET nor LIMIT may ship.
      EXPECT_EQ(texts[t].find("OFFSET"), std::string::npos) << texts[t];
      EXPECT_EQ(texts[t].find("LIMIT"), std::string::npos) << texts[t];
    }
  }
}

TEST_F(ShardedEndpointTest, CountAggregateSumsAcrossShards) {
  const char kText[] = "SELECT (COUNT(*) AS ?n) WHERE { ?s <http://ex/p> ?o . }";
  auto expected = oracle_->Query(kText);
  auto actual = sharded_->Query(kText);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  ASSERT_TRUE(actual.ok()) << actual.status().ToString();
  EXPECT_EQ(CanonicalRows(ResponseTable(*actual)),
            CanonicalRows(ResponseTable(*expected)));
  sparql::ResultTable table = ResponseTable(*actual);
  ASSERT_EQ(table.rows.size(), 1u);
  ASSERT_TRUE(table.rows[0][0].has_value());
  EXPECT_EQ(table.rows[0][0]->lexical(), "20");
}

TEST_F(ShardedEndpointTest, SubjectConstantRoutesToExactlyOneShard) {
  uint64_t fanout_before = sharded_->stats().fanout_requests;
  ExpectRowIdentical("SELECT ?o WHERE { <http://ex/s3> <http://ex/p> ?o . }");
  shard::ShardedEndpointStats stats = sharded_->stats();
  EXPECT_EQ(stats.fanout_requests - fanout_before, 1u);
  EXPECT_EQ(stats.single_shard_queries, 1u);
  EXPECT_GE(stats.pruned_shards, 3u);
}

TEST_F(ShardedEndpointTest, AskTrueAndFalseMatchOracle) {
  for (const char* text :
       {"ASK { <http://ex/s3> <http://ex/p> ?o . }",
        "ASK { <http://ex/s3> <http://ex/missing> ?o . }",
        "ASK { ?s <http://ex/q> <http://ex/cat2> . }"}) {
    auto expected = oracle_->Query(text);
    auto actual = sharded_->Query(text);
    ASSERT_TRUE(expected.ok()) << text << ": " << expected.status().ToString();
    ASSERT_TRUE(actual.ok()) << text << ": " << actual.status().ToString();
    EXPECT_EQ(actual->RowCount() > 0, expected->RowCount() > 0) << text;
  }
}

TEST_F(ShardedEndpointTest, AskShortCircuitsOnCachedVerdicts) {
  cache::FederationCache cache;
  shard::ShardedEndpointOptions options;
  options.cache = &cache;
  Rebuild(options);

  const char kAsk[] = "ASK { ?s <http://ex/p> ?o . }";
  auto first = sharded_->Query(kAsk);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_GT(first->RowCount(), 0u);
  uint64_t fanout_after_first = sharded_->stats().fanout_requests;
  EXPECT_GT(fanout_after_first, 0u);

  // The scattered verdicts were stored per member; the identical ASK is
  // now answerable with zero member requests.
  auto second = sharded_->Query(kAsk);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_GT(second->RowCount(), 0u);
  EXPECT_EQ(sharded_->stats().fanout_requests, fanout_after_first);
  EXPECT_GE(sharded_->stats().ask_short_circuits, 1u);
}

TEST_F(ShardedEndpointTest, CachedFalseVerdictsPruneSelectScatter) {
  cache::FederationCache cache;
  // Seed a false verdict for the probe pattern on every member but #0:
  // the scatter must skip them.
  shard::ShardedEndpointOptions options;
  options.cache = &cache;
  Rebuild(options);
  const sparql::TriplePattern probe{sparql::Variable{"s"},
                                    rdf::Term::Iri("http://ex/p"),
                                    sparql::Variable{"o"}};
  for (size_t i = 1; i < sharded_->NumShards(); ++i) {
    cache.PutVerdict(
        cache::FederationCache::PatternKey(sharded_->member_id(i), probe),
        sharded_->member_id(i), false);
  }
  uint64_t pruned_before = sharded_->stats().pruned_shards;
  auto response =
      sharded_->Query("SELECT ?s ?o WHERE { ?s <http://ex/p> ?o . }");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(sharded_->stats().fanout_requests, 1u);
  EXPECT_GE(sharded_->stats().pruned_shards - pruned_before, 3u);
}

TEST_F(ShardedEndpointTest, FalseVerdictPrunesThePatternUnderOtherNames) {
  cache::FederationCache cache;
  shard::ShardedEndpointOptions options;
  options.cache = &cache;
  Rebuild(options);
  // Only s3 has <p> 3, so the other three members answer false, and their
  // verdicts are keyed by the pattern's shape, not its variable names.
  auto ask = sharded_->Query("ASK { ?s <http://ex/p> 3 . }");
  ASSERT_TRUE(ask.ok()) << ask.status().ToString();
  EXPECT_GT(ask->RowCount(), 0u);
  const uint64_t pruned_before = sharded_->stats().pruned_shards;
  const uint64_t fanout_before = sharded_->stats().fanout_requests;
  ExpectRowIdentical("SELECT ?x WHERE { ?x <http://ex/p> 3 . }");
  EXPECT_EQ(sharded_->stats().pruned_shards - pruned_before, 3u);
  EXPECT_EQ(sharded_->stats().fanout_requests - fanout_before, 1u);
}

TEST_F(ShardedEndpointTest, CountProbesReuseTheCountTier) {
  cache::FederationCache cache;
  shard::ShardedEndpointOptions options;
  options.cache = &cache;
  Rebuild(options);

  const char kCount[] =
      "SELECT (COUNT(*) AS ?n) WHERE { ?s <http://ex/p> ?o . }";
  auto first = sharded_->Query(kCount);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  uint64_t fanout_after_first = sharded_->stats().fanout_requests;

  auto second = sharded_->Query(kCount);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(sharded_->stats().fanout_requests, fanout_after_first)
      << "second COUNT must be served from the count tier";
  EXPECT_EQ(CanonicalRows(ResponseTable(*second)),
            CanonicalRows(ResponseTable(*first)));
}

TEST_F(ShardedEndpointTest, InvalidatingTheLogicalEndpointReachesMembers) {
  cache::FederationCache cache;
  shard::ShardedEndpointOptions options;
  options.cache = &cache;
  Rebuild(options);  // Ctor registers member ids with the cache.

  const char kAsk[] = "ASK { ?s <http://ex/p> ?o . }";
  ASSERT_TRUE(sharded_->Query(kAsk).ok());
  uint64_t fanout_warm = sharded_->stats().fanout_requests;
  ASSERT_TRUE(sharded_->Query(kAsk).ok());
  ASSERT_EQ(sharded_->stats().fanout_requests, fanout_warm);  // Cached.

  // Invalidate by the *logical* id: member-keyed verdicts must die too,
  // so the next ASK scatters again instead of serving stale truth.
  cache.Invalidate("ex");
  ASSERT_TRUE(sharded_->Query(kAsk).ok());
  EXPECT_GT(sharded_->stats().fanout_requests, fanout_warm);
}

TEST_F(ShardedEndpointTest, AvailableTrueForPlainMembers) {
  EXPECT_TRUE(sharded_->Available());
  EXPECT_EQ(sharded_->NumShards(), 4u);
  EXPECT_EQ(sharded_->MemberIds().size(), 4u);
}

TEST_F(ShardedEndpointTest, DeadShardFailsTheQueryByDefault) {
  auto members = ShardMembers(triples_, map_, "ex");
  net::FaultProfile down;
  down.permanently_down = true;
  members[2] = std::make_shared<net::FaultInjectingEndpoint>(
      std::make_shared<net::SparqlEndpoint>("ex#2", StoreOf({}),
                                            net::LatencyModel::None()),
      down);
  shard::ShardedEndpoint sharded("ex", map_, members);
  auto response =
      sharded.Query("SELECT ?s ?o WHERE { ?s <http://ex/p> ?o . }");
  ASSERT_FALSE(response.ok());
  EXPECT_GE(sharded.stats().shard_failures, 1u);
}

TEST_F(ShardedEndpointTest, PartialResultsReturnsLowerBoundWithDegradedIds) {
  auto members = ShardMembers(triples_, map_, "ex");
  net::FaultProfile down;
  down.permanently_down = true;
  members[2] = std::make_shared<net::FaultInjectingEndpoint>(
      std::make_shared<net::SparqlEndpoint>("ex#2", StoreOf({}),
                                            net::LatencyModel::None()),
      down);
  shard::ShardedEndpointOptions options;
  options.partial_results = true;
  shard::ShardedEndpoint sharded("ex", map_, members, options);

  const char kText[] = "SELECT ?s ?o WHERE { ?s <http://ex/p> ?o . }";
  auto full = oracle_->Query(kText);
  ASSERT_TRUE(full.ok());
  auto partial = sharded.Query(kText);
  ASSERT_TRUE(partial.ok()) << partial.status().ToString();
  EXPECT_EQ(partial->degraded_members,
            std::vector<std::string>{sharded.member_id(2)});
  EXPECT_GE(sharded.stats().partial_queries, 1u);

  // Lower bound: every returned row exists in the full answer, and only
  // shard 2's rows are missing.
  std::vector<std::string> full_rows = CanonicalRows(ResponseTable(*full));
  std::vector<std::string> partial_rows =
      CanonicalRows(ResponseTable(*partial));
  EXPECT_LT(partial_rows.size(), full_rows.size());
  EXPECT_GT(partial_rows.size(), 0u);
  for (const std::string& row : partial_rows) {
    EXPECT_NE(std::find(full_rows.begin(), full_rows.end(), row),
              full_rows.end());
  }
}

TEST_F(ShardedEndpointTest, ConcurrentQueriesAreThreadSafe) {
  const char* queries[] = {
      "SELECT ?s ?o WHERE { ?s <http://ex/p> ?o . }",
      "SELECT ?s ?o ?c WHERE { ?s <http://ex/p> ?o . "
      "?s <http://ex/q> ?c . }",
      "SELECT ?o WHERE { <http://ex/s3> <http://ex/p> ?o . }",
      "ASK { ?s <http://ex/q> <http://ex/cat1> . }",
  };
  std::vector<std::thread> workers;
  std::atomic<int> failures{0};
  for (int t = 0; t < 8; ++t) {
    workers.emplace_back([&, t] {
      for (int round = 0; round < 5; ++round) {
        auto response = sharded_->Query(queries[(t + round) % 4]);
        if (!response.ok()) ++failures;
      }
    });
  }
  for (auto& worker : workers) worker.join();
  EXPECT_EQ(failures.load(), 0);
}

// ---------------------------------------------------------------------
// Engine integration: a federation whose only endpoint is sharded
// ---------------------------------------------------------------------

TEST(ShardedFederationTest, LubmEngineRowsMatchUnshardedFederation) {
  workload::LubmConfig config = workload::LubmConfig::Small();
  config.num_universities = 2;
  std::vector<workload::EndpointSpec> specs =
      workload::LubmGenerator(config).GenerateAll();

  // Oracle: the stock in-process federation.
  std::unique_ptr<fed::Federation> plain =
      workload::BuildFederation(specs, net::LatencyModel::None());
  core::LusailEngine plain_engine(plain.get());
  auto expected = plain_engine.Execute(workload::LubmGenerator::QueryQa());
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  // Sharded: each LUBM endpoint becomes a 4-shard ShardedEndpoint over
  // the identical triples, split by subject hash.
  fed::Federation sharded_fed;
  shard::ShardMap map = shard::ShardMap::HashRing(4);
  std::vector<std::shared_ptr<shard::ShardedEndpoint>> keep_alive;
  for (const auto& spec : specs) {
    auto endpoint = std::make_shared<shard::ShardedEndpoint>(
        spec.id, map, ShardMembers(spec.triples, map, spec.id));
    keep_alive.push_back(endpoint);
    sharded_fed.Add(endpoint);
  }
  core::LusailEngine sharded_engine(&sharded_fed);
  auto actual = sharded_engine.Execute(workload::LubmGenerator::QueryQa());
  ASSERT_TRUE(actual.ok()) << actual.status().ToString();
  EXPECT_GT(actual->table.rows.size(), 0u);
  EXPECT_EQ(CanonicalRows(actual->table), CanonicalRows(expected->table));
}

// ---------------------------------------------------------------------
// 4-shard loopback end-to-end: real sockets, mid-query shard kill
// ---------------------------------------------------------------------

/// One logical endpoint split into 4 HttpServer shards on loopback
/// ports, plus the unsharded in-process oracle for row identity.
class ShardLoopbackTest : public ::testing::Test {
 protected:
  void SetUp() override {
    triples_ = TestTriples();
    oracle_ = std::make_shared<net::SparqlEndpoint>(
        "oracle", StoreOf(triples_), net::LatencyModel::None());
    map_ = shard::ShardMap::HashRing(4);

    std::vector<std::vector<rdf::TermTriple>> slices(4);
    for (const auto& triple : triples_) {
      slices[map_.ShardOfSubject(triple.subject)].push_back(triple);
    }
    std::vector<std::shared_ptr<net::Endpoint>> members;
    for (size_t i = 0; i < slices.size(); ++i) {
      std::string member_id = "ex#" + std::to_string(i);
      auto endpoint = std::make_shared<net::SparqlEndpoint>(
          member_id, StoreOf(slices[i]), net::LatencyModel::None());
      auto server = std::make_unique<rpc::HttpServer>(endpoint);
      ASSERT_TRUE(server->Start().ok());
      members.push_back(std::make_shared<rpc::HttpSparqlEndpoint>(
          member_id, "127.0.0.1", server->port()));
      servers_.push_back(std::move(server));
    }
    shard::ShardedEndpointOptions options;
    options.partial_results = true;
    sharded_ = std::make_unique<shard::ShardedEndpoint>(
        "ex", map_, std::move(members), options);
  }
  void TearDown() override {
    for (auto& server : servers_) server->Stop();
  }

  std::vector<rdf::TermTriple> triples_;
  std::shared_ptr<net::SparqlEndpoint> oracle_;
  shard::ShardMap map_ = shard::ShardMap::HashRing(4);
  std::vector<std::unique_ptr<rpc::HttpServer>> servers_;
  std::unique_ptr<shard::ShardedEndpoint> sharded_;
};

TEST_F(ShardLoopbackTest, ShardedLoopbackIsRowIdentical) {
  for (const char* text :
       {"SELECT ?s ?o WHERE { ?s <http://ex/p> ?o . }",
        "SELECT ?s ?o ?c WHERE { ?s <http://ex/p> ?o . "
        "?s <http://ex/q> ?c . }",
        "SELECT ?o WHERE { <http://ex/s3> <http://ex/p> ?o . }"}) {
    auto expected = oracle_->Query(text);
    auto actual = sharded_->QueryWithDeadline(text,
                                              Deadline::AfterMillis(20000));
    ASSERT_TRUE(expected.ok()) << text << ": " << expected.status().ToString();
    ASSERT_TRUE(actual.ok()) << text << ": " << actual.status().ToString();
    EXPECT_EQ(CanonicalRows(ResponseTable(*actual)),
              CanonicalRows(ResponseTable(*expected)))
        << text;
    EXPECT_TRUE(actual->degraded_members.empty());
  }
}

TEST_F(ShardLoopbackTest, KilledShardDegradesToLowerBound) {
  const char kText[] = "SELECT ?s ?o WHERE { ?s <http://ex/p> ?o . }";
  auto full = oracle_->Query(kText);
  ASSERT_TRUE(full.ok());

  servers_[1]->Stop();
  auto partial =
      sharded_->QueryWithDeadline(kText, Deadline::AfterMillis(20000));
  ASSERT_TRUE(partial.ok()) << partial.status().ToString();
  EXPECT_EQ(partial->degraded_members,
            std::vector<std::string>{sharded_->member_id(1)});

  std::vector<std::string> full_rows = CanonicalRows(ResponseTable(*full));
  std::vector<std::string> partial_rows =
      CanonicalRows(ResponseTable(*partial));
  EXPECT_LT(partial_rows.size(), full_rows.size());
  for (const std::string& row : partial_rows) {
    EXPECT_NE(std::find(full_rows.begin(), full_rows.end(), row),
              full_rows.end());
  }
}

TEST_F(ShardLoopbackTest, MidQueryShardKillStaysALowerBound) {
  const char kText[] =
      "SELECT ?s ?o ?c WHERE { ?s <http://ex/p> ?o . "
      "?s <http://ex/q> ?c . }";
  auto full = oracle_->Query(kText);
  ASSERT_TRUE(full.ok());
  std::vector<std::string> full_rows = CanonicalRows(ResponseTable(*full));

  // The kill can land before, during, or after the scatter touches shard
  // 2; in every case partial-results mode must return ok() with a subset
  // of the full answer.
  std::thread killer([this] {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    servers_[2]->Stop();
  });
  auto response =
      sharded_->QueryWithDeadline(kText, Deadline::AfterMillis(20000));
  killer.join();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  std::vector<std::string> rows = CanonicalRows(ResponseTable(*response));
  EXPECT_LE(rows.size(), full_rows.size());
  for (const std::string& row : rows) {
    EXPECT_NE(std::find(full_rows.begin(), full_rows.end(), row),
              full_rows.end());
  }
  if (!response->degraded_members.empty()) {
    EXPECT_EQ(response->degraded_members,
              std::vector<std::string>{sharded_->member_id(2)});
  }
}

}  // namespace
}  // namespace lusail

// Unit tests for the LADE analysis machinery: the query graph, GJV
// detection (Algorithm 1), and query decomposition (Algorithm 2).

#include <gtest/gtest.h>

#include "core/decomposer.h"
#include "core/gjv_detector.h"
#include "core/query_graph.h"
#include "sparql/parser.h"
#include "workload/federation_builder.h"

namespace lusail::core {
namespace {

using sparql::TriplePattern;
using workload::BuildFederation;
using workload::Figure1Federation;

std::vector<TriplePattern> ParseBgp(const std::string& text) {
  auto q = sparql::ParseQuery(text);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  return q->where.triples;
}

// ---------------------------------------------------------------------
// QueryGraph
// ---------------------------------------------------------------------

TEST(QueryGraphTest, JoinVariablesWithRoles) {
  auto triples = ParseBgp(
      "SELECT * WHERE { ?s <http://p> ?x . ?x <http://q> ?o . "
      "?s <http://r> ?y . }");
  auto jvs = QueryGraph::JoinVariables(triples);
  ASSERT_EQ(jvs.size(), 2u);  // ?s and ?x (each in 2 patterns); ?o, ?y once.
  const JoinVariable* s = nullptr;
  const JoinVariable* x = nullptr;
  for (const auto& jv : jvs) {
    if (jv.name == "s") s = &jv;
    if (jv.name == "x") x = &jv;
  }
  ASSERT_NE(s, nullptr);
  ASSERT_NE(x, nullptr);
  EXPECT_TRUE(s->SubjectOnly());
  EXPECT_FALSE(x->SubjectOnly());
  EXPECT_FALSE(x->ObjectOnly());
}

TEST(QueryGraphTest, TypePatternsAreRestrictionsNotOccurrences) {
  auto triples = ParseBgp(
      "SELECT * WHERE { ?x a <http://T> . ?x <http://p> ?y . "
      "?x <http://q> ?z . }");
  auto jvs = QueryGraph::JoinVariables(triples);
  ASSERT_EQ(jvs.size(), 1u);
  EXPECT_EQ(jvs[0].name, "x");
  EXPECT_EQ(jvs[0].occurrences.size(), 2u);
  EXPECT_EQ(jvs[0].type_patterns.size(), 1u);
}

TEST(QueryGraphTest, PredicateVariableIsFlagged) {
  auto triples = ParseBgp(
      "SELECT * WHERE { ?s ?p ?o . ?x <http://q> ?p . }");
  auto jvs = QueryGraph::JoinVariables(triples);
  ASSERT_EQ(jvs.size(), 1u);
  EXPECT_TRUE(jvs[0].HasPredicateRole());
}

TEST(QueryGraphTest, ConnectedComponents) {
  auto triples = ParseBgp(
      "SELECT * WHERE { ?a <http://p> ?b . ?b <http://q> ?c . "
      "?x <http://r> ?y . }");
  QueryGraph graph(triples);
  auto components = graph.ConnectedComponents();
  ASSERT_EQ(components.size(), 2u);
  EXPECT_EQ(components[0].size() + components[1].size(), 3u);
}

TEST(QueryGraphTest, ConstantsDoNotConnectPatterns) {
  auto triples = ParseBgp(
      "SELECT * WHERE { ?a <http://p> <http://k> . "
      "<http://k> <http://q> ?b . }");
  QueryGraph graph(triples);
  EXPECT_EQ(graph.ConnectedComponents().size(), 2u);
}

TEST(QueryGraphTest, EdgesAndDestinations) {
  auto triples = ParseBgp("SELECT * WHERE { ?a <http://p> ?b . }");
  QueryGraph graph(triples);
  EXPECT_EQ(graph.Edges("?a").size(), 1u);
  EXPECT_EQ(graph.Destination("?a", 0), "?b");
  EXPECT_EQ(graph.Destination("?b", 0), "?a");
  EXPECT_TRUE(graph.Edges("?zzz").empty());
}

// ---------------------------------------------------------------------
// GJV detection against the Figure 1 federation
// ---------------------------------------------------------------------

class GjvDetectorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    federation_ = BuildFederation(Figure1Federation(),
                                  net::LatencyModel::None());
  }

  GjvResult Detect(const std::string& query_text, bool use_cache = true) {
    auto q = sparql::ParseQuery(query_text);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    fed::SourceSelector selector(federation_.get(), &ask_cache_, &pool_);
    fed::MetricsCollector metrics;
    auto sources = selector.SelectSources(q->where.triples, &metrics,
                                          CancelToken(), true);
    EXPECT_TRUE(sources.ok());
    GjvDetector detector(federation_.get(), &check_cache_, &pool_);
    auto result = detector.Detect(q->where.triples, *sources, &metrics,
                                  CancelToken(), use_cache);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return *result;
  }

  std::unique_ptr<fed::Federation> federation_;
  fed::AskCache ask_cache_;
  fed::AskCache check_cache_;
  ThreadPool pool_{4};
};

TEST_F(GjvDetectorTest, SubjectObjectCaseDetectsInterlink) {
  // ?U: object of PhDDegreeFrom, subject of address. Tim's remote degree
  // makes it global.
  GjvResult r = Detect(workload::Figure2QueryQa());
  EXPECT_TRUE(r.IsGjv("U"));
  EXPECT_TRUE(r.IsGjv("P"));
  EXPECT_FALSE(r.IsGjv("S"));
  EXPECT_FALSE(r.IsGjv("C"));
}

TEST_F(GjvDetectorTest, CausingPairsAreRecorded) {
  GjvResult r = Detect(workload::Figure2QueryQa());
  ASSERT_TRUE(r.causes.count("U"));
  // Exactly one pair causes ?U: (PhDDegreeFrom, address).
  EXPECT_EQ(r.causes.at("U").size(), 1u);
  auto [a, b] = *r.causes.at("U").begin();
  EXPECT_TRUE(r.IsCausingPair(a, b));
  EXPECT_TRUE(r.IsCausingPair(b, a));
  EXPECT_FALSE(r.IsCausingPair(a, a));
}

TEST_F(GjvDetectorTest, LocalJoinVariableHasNoChecksRecorded) {
  GjvResult r = Detect(
      "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n"
      "SELECT ?S WHERE { ?S ub:advisor ?P . ?S ub:takesCourse ?C . }");
  EXPECT_TRUE(r.causes.empty());
  EXPECT_GT(r.check_queries, 0u);
}

TEST_F(GjvDetectorTest, CheckQueriesAreCached) {
  GjvResult first = Detect(workload::Figure2QueryQa());
  EXPECT_GT(first.check_queries, 0u);
  GjvResult second = Detect(workload::Figure2QueryQa());
  EXPECT_EQ(second.check_queries, 0u) << "cache hit must avoid re-probing";
  EXPECT_EQ(second.GjvNames(), first.GjvNames());
}

TEST_F(GjvDetectorTest, CacheBypassReprobes) {
  Detect(workload::Figure2QueryQa());
  GjvResult uncached = Detect(workload::Figure2QueryQa(), /*use_cache=*/false);
  EXPECT_GT(uncached.check_queries, 0u);
}

TEST_F(GjvDetectorTest, CheckQueryTextMatchesFigure5Shape) {
  auto triples = ParseBgp(
      "SELECT * WHERE { ?S <http://pi> ?P . ?P <http://pj> ?C . "
      "?P a <http://T> . }");
  std::string text = GjvDetector::CheckQueryText(
      "P", triples[0], triples[1], {triples[2]});
  EXPECT_NE(text.find("SELECT ?P WHERE"), std::string::npos);
  EXPECT_NE(text.find("FILTER NOT EXISTS { SELECT ?P WHERE"),
            std::string::npos);
  EXPECT_NE(text.find("LIMIT 1"), std::string::npos);
  EXPECT_NE(text.find("<http://T>"), std::string::npos);
  // The check query must itself be parseable by our engine.
  EXPECT_TRUE(sparql::ParseQuery(text).ok());
}

// ---------------------------------------------------------------------
// Decomposer
// ---------------------------------------------------------------------

class DecomposerTest : public ::testing::Test {
 protected:
  Decomposition Decompose(const std::vector<TriplePattern>& triples,
                          const std::vector<std::vector<int>>& sources,
                          const GjvResult& gjvs,
                          const std::set<std::string>& needed) {
    // Cost model with no statistics: all cardinalities are zero, which is
    // fine for structural assertions.
    fed::Federation empty_fed;
    ThreadPool pool(2);
    CostModel cost_model(&empty_fed, &pool);
    Decomposer decomposer(&cost_model);
    return decomposer.Decompose(triples, sources, gjvs, {}, needed);
  }
};

TEST_F(DecomposerTest, NoGjvsYieldsOneSubqueryPerComponent) {
  auto triples = ParseBgp(
      "SELECT * WHERE { ?a <http://p> ?b . ?b <http://q> ?c . }");
  std::vector<std::vector<int>> sources = {{0, 1}, {0, 1}};
  Decomposition d = Decompose(triples, sources, GjvResult(), {"a", "c"});
  ASSERT_EQ(d.subqueries.size(), 1u);
  EXPECT_EQ(d.subqueries[0].triple_indices.size(), 2u);
  EXPECT_EQ(d.subqueries[0].sources, (std::vector<int>{0, 1}));
}

TEST_F(DecomposerTest, CausingPairIsSeparated) {
  auto triples = ParseBgp(
      "SELECT * WHERE { ?a <http://p> ?x . ?x <http://q> ?c . }");
  std::vector<std::vector<int>> sources = {{0, 1}, {0, 1}};
  GjvResult gjvs;
  gjvs.causes["x"].insert({0, 1});
  Decomposition d = Decompose(triples, sources, gjvs, {"a", "c"});
  ASSERT_EQ(d.subqueries.size(), 2u);
  // ?x must be projected from both (it is the global join key).
  for (const Subquery& sq : d.subqueries) {
    EXPECT_NE(std::find(sq.projection.begin(), sq.projection.end(), "x"),
              sq.projection.end());
  }
}

TEST_F(DecomposerTest, NonCausingPairsWithGjvStayTogether) {
  // ?x is a GJV via (0,1) but patterns 1 and 2 may still share a subquery.
  auto triples = ParseBgp(
      "SELECT * WHERE { ?a <http://p> ?x . ?x <http://q> ?c . "
      "?x <http://r> ?d . }");
  std::vector<std::vector<int>> sources = {{0, 1}, {0, 1}, {0, 1}};
  GjvResult gjvs;
  gjvs.causes["x"].insert({0, 1});
  gjvs.causes["x"].insert({0, 2});
  Decomposition d = Decompose(triples, sources, gjvs, {"a", "c", "d"});
  ASSERT_EQ(d.subqueries.size(), 2u);
  // One subquery holds pattern 0; the other holds patterns 1 and 2.
  bool found_pair = false;
  for (const Subquery& sq : d.subqueries) {
    if (sq.triple_indices == std::vector<int>{1, 2}) found_pair = true;
  }
  EXPECT_TRUE(found_pair);
}

TEST_F(DecomposerTest, DifferentSourcesSplit) {
  auto triples = ParseBgp(
      "SELECT * WHERE { ?a <http://p> ?x . ?x <http://q> ?c . }");
  std::vector<std::vector<int>> sources = {{0}, {1}};
  GjvResult gjvs;
  gjvs.causes["x"].insert({0, 1});
  Decomposition d = Decompose(triples, sources, gjvs, {"a", "c"});
  ASSERT_EQ(d.subqueries.size(), 2u);
  EXPECT_NE(d.subqueries[0].sources, d.subqueries[1].sources);
}

TEST_F(DecomposerTest, EveryTripleAssignedExactlyOnce) {
  auto triples = ParseBgp(
      "SELECT * WHERE { ?s <http://a> ?x . ?x <http://b> ?y . "
      "?y <http://c> ?z . ?z <http://d> ?w . ?s <http://e> ?w . }");
  std::vector<std::vector<int>> sources(5, std::vector<int>{0, 1});
  GjvResult gjvs;
  gjvs.causes["y"].insert({1, 2});
  Decomposition d = Decompose(triples, sources, gjvs, {"s", "w"});
  std::multiset<int> assigned;
  for (const Subquery& sq : d.subqueries) {
    assigned.insert(sq.triple_indices.begin(), sq.triple_indices.end());
  }
  EXPECT_EQ(assigned, (std::multiset<int>{0, 1, 2, 3, 4}));
}

TEST_F(DecomposerTest, DisconnectedComponentsDecomposeIndependently) {
  auto triples = ParseBgp(
      "SELECT * WHERE { ?a <http://p> ?n1 . ?b <http://q> ?n2 . }");
  std::vector<std::vector<int>> sources = {{0}, {1}};
  Decomposition d = Decompose(triples, sources, GjvResult(), {"n1", "n2"});
  EXPECT_EQ(d.subqueries.size(), 2u);
}

TEST_F(DecomposerTest, FiltersPushedIntoCoveringSubquery) {
  auto triples = ParseBgp(
      "SELECT * WHERE { ?a <http://p> ?x . ?x <http://q> ?c . }");
  std::vector<std::vector<int>> sources = {{0}, {1}};
  GjvResult gjvs;
  gjvs.causes["x"].insert({0, 1});
  sparql::Expr local = sparql::Expr::Binary(
      sparql::ExprOp::kGt, sparql::Expr::Var("c"),
      sparql::Expr::Const(rdf::Term::Integer(5)));
  sparql::Expr global = sparql::Expr::Binary(
      sparql::ExprOp::kNe, sparql::Expr::Var("a"), sparql::Expr::Var("c"));
  fed::Federation empty_fed;
  ThreadPool pool(2);
  CostModel cost_model(&empty_fed, &pool);
  Decomposer decomposer(&cost_model);
  Decomposition d = decomposer.Decompose(triples, sources, gjvs,
                                         {local, global}, {"a", "c"});
  ASSERT_EQ(d.subqueries.size(), 2u);
  EXPECT_EQ(d.global_filters.size(), 1u);
  size_t pushed = d.subqueries[0].filters.size() +
                  d.subqueries[1].filters.size();
  EXPECT_EQ(pushed, 1u);
}

}  // namespace
}  // namespace lusail::core

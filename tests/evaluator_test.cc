#include "sparql/evaluator.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <string>
#include <thread>

#include "common/cancel.h"
#include "common/stopwatch.h"
#include "sparql/expr_eval.h"
#include "sparql/parser.h"
#include "store/triple_store.h"

namespace lusail::sparql {
namespace {

using rdf::Term;
using rdf::TermTriple;

class EvaluatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto add = [this](const Term& s, const std::string& p, const Term& o) {
      store_.Add(TermTriple{s, Term::Iri("http://ex/" + p), o});
    };
    Term alice = Term::Iri("http://ex/alice");
    Term bob = Term::Iri("http://ex/bob");
    Term carol = Term::Iri("http://ex/carol");
    Term person = Term::Iri("http://ex/Person");
    add(alice, "type", person);
    add(bob, "type", person);
    add(carol, "type", person);
    add(alice, "knows", bob);
    add(bob, "knows", carol);
    add(alice, "knows", carol);
    add(alice, "age", Term::Integer(30));
    add(bob, "age", Term::Integer(25));
    add(carol, "age", Term::Integer(35));
    add(alice, "email", Term::Literal("alice@example.org"));
    add(alice, "name", Term::LangLiteral("Alice", "en"));
    add(bob, "name", Term::Literal("Bob"));
    store_.Freeze();
  }

  ResultTable Run(const std::string& text) {
    auto query = ParseQuery("PREFIX ex: <http://ex/>\n" + text);
    EXPECT_TRUE(query.ok()) << query.status().ToString();
    Evaluator evaluator(&store_);
    auto result = evaluator.Execute(*query);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? *result : ResultTable{};
  }

  store::TripleStore store_;
};

TEST_F(EvaluatorTest, SingleTriplePattern) {
  ResultTable t = Run("SELECT ?x WHERE { ?x ex:type ex:Person . }");
  EXPECT_EQ(t.NumRows(), 3u);
}

TEST_F(EvaluatorTest, TwoPatternJoin) {
  ResultTable t =
      Run("SELECT ?x ?y WHERE { ?x ex:knows ?y . ?y ex:age ?a . }");
  EXPECT_EQ(t.NumRows(), 3u);
}

TEST_F(EvaluatorTest, TriangleJoin) {
  // alice knows bob, bob knows carol, alice knows carol.
  ResultTable t = Run(
      "SELECT ?a ?b ?c WHERE { ?a ex:knows ?b . ?b ex:knows ?c . "
      "?a ex:knows ?c . }");
  ASSERT_EQ(t.NumRows(), 1u);
  EXPECT_EQ(t.rows[0][0]->lexical(), "http://ex/alice");
}

TEST_F(EvaluatorTest, RepeatedVariableInPattern) {
  // Nobody knows themselves.
  ResultTable t = Run("SELECT ?x WHERE { ?x ex:knows ?x . }");
  EXPECT_EQ(t.NumRows(), 0u);
}

TEST_F(EvaluatorTest, ConstantNotInStoreGivesEmpty) {
  ResultTable t = Run("SELECT ?x WHERE { ?x ex:knows ex:nonexistent . }");
  EXPECT_EQ(t.NumRows(), 0u);
}

TEST_F(EvaluatorTest, NumericFilter) {
  ResultTable t =
      Run("SELECT ?x WHERE { ?x ex:age ?a . FILTER (?a > 28) }");
  EXPECT_EQ(t.NumRows(), 2u);  // alice 30, carol 35.
}

TEST_F(EvaluatorTest, StringFunctions) {
  ResultTable t = Run(
      "SELECT ?x WHERE { ?x ex:email ?e . FILTER (CONTAINS(?e, \"@\") && "
      "STRSTARTS(?e, \"alice\")) }");
  EXPECT_EQ(t.NumRows(), 1u);
}

TEST_F(EvaluatorTest, LangAndDatatype) {
  ResultTable t = Run(
      "SELECT ?x WHERE { ?x ex:name ?n . FILTER (LANG(?n) = \"en\") }");
  EXPECT_EQ(t.NumRows(), 1u);
}

TEST_F(EvaluatorTest, OptionalKeepsUnmatchedRows) {
  ResultTable t = Run(
      "SELECT ?x ?e WHERE { ?x ex:type ex:Person . "
      "OPTIONAL { ?x ex:email ?e . } }");
  ASSERT_EQ(t.NumRows(), 3u);
  int unbound = 0;
  for (const auto& row : t.rows) {
    if (!row[1].has_value()) ++unbound;
  }
  EXPECT_EQ(unbound, 2);  // bob and carol have no email.
}

TEST_F(EvaluatorTest, BoundFilterAfterOptional) {
  ResultTable t = Run(
      "SELECT ?x WHERE { ?x ex:type ex:Person . "
      "OPTIONAL { ?x ex:email ?e . } FILTER (!BOUND(?e)) }");
  EXPECT_EQ(t.NumRows(), 2u);
}

TEST_F(EvaluatorTest, Union) {
  ResultTable t = Run(
      "SELECT ?x WHERE { { ?x ex:email ?v . } UNION { ?x ex:age ?v . } }");
  EXPECT_EQ(t.NumRows(), 4u);  // 1 email + 3 ages.
}

TEST_F(EvaluatorTest, ValuesJoin) {
  ResultTable t = Run(
      "SELECT ?x ?a WHERE { ?x ex:age ?a . "
      "VALUES ?x { ex:alice ex:carol ex:ghost } }");
  EXPECT_EQ(t.NumRows(), 2u);
}

TEST_F(EvaluatorTest, ValuesWithForeignTermsIsSafe) {
  // VALUES terms absent from the store must not crash or match.
  ResultTable t = Run(
      "SELECT ?x WHERE { ?x ex:knows ?y . "
      "VALUES ?y { <http://other/unknown> } }");
  EXPECT_EQ(t.NumRows(), 0u);
}

TEST_F(EvaluatorTest, FilterExists) {
  ResultTable t = Run(
      "SELECT ?x WHERE { ?x ex:type ex:Person . "
      "FILTER EXISTS { ?x ex:email ?e . } }");
  EXPECT_EQ(t.NumRows(), 1u);
}

TEST_F(EvaluatorTest, FilterNotExists) {
  ResultTable t = Run(
      "SELECT ?x WHERE { ?x ex:type ex:Person . "
      "FILTER NOT EXISTS { ?x ex:email ?e . } }");
  EXPECT_EQ(t.NumRows(), 2u);
}

TEST_F(EvaluatorTest, Distinct) {
  ResultTable t = Run("SELECT DISTINCT ?x WHERE { ?x ex:knows ?y . }");
  EXPECT_EQ(t.NumRows(), 2u);  // alice, bob.
}

TEST_F(EvaluatorTest, LimitAndOffset) {
  ResultTable all = Run("SELECT ?x ?a WHERE { ?x ex:age ?a . }");
  ResultTable limited =
      Run("SELECT ?x ?a WHERE { ?x ex:age ?a . } LIMIT 2");
  ResultTable offset =
      Run("SELECT ?x ?a WHERE { ?x ex:age ?a . } LIMIT 2 OFFSET 2");
  EXPECT_EQ(all.NumRows(), 3u);
  EXPECT_EQ(limited.NumRows(), 2u);
  EXPECT_EQ(offset.NumRows(), 1u);
}

TEST_F(EvaluatorTest, CountStar) {
  ResultTable t = Run("SELECT (COUNT(*) AS ?c) WHERE { ?s ?p ?o . }");
  ASSERT_EQ(t.NumRows(), 1u);
  EXPECT_EQ(t.rows[0][0]->lexical(), std::to_string(store_.size()));
}

TEST_F(EvaluatorTest, CountDistinct) {
  ResultTable t = Run(
      "SELECT (COUNT(DISTINCT ?x) AS ?c) WHERE { ?x ex:knows ?y . }");
  EXPECT_EQ(t.rows[0][0]->lexical(), "2");
}

TEST_F(EvaluatorTest, Ask) {
  Evaluator evaluator(&store_);
  auto yes = ParseQuery("ASK { <http://ex/alice> <http://ex/knows> ?x . }");
  auto no = ParseQuery("ASK { <http://ex/carol> <http://ex/knows> ?x . }");
  EXPECT_EQ(evaluator.Execute(*yes)->NumRows(), 1u);
  EXPECT_EQ(evaluator.Execute(*no)->NumRows(), 0u);
}

TEST_F(EvaluatorTest, ProjectionOfNeverBoundVariable) {
  ResultTable t = Run("SELECT ?x ?nothere WHERE { ?x ex:age ?a . }");
  ASSERT_EQ(t.NumRows(), 3u);
  EXPECT_FALSE(t.rows[0][1].has_value());
}

TEST_F(EvaluatorTest, SelectStarCoversAllVariables) {
  ResultTable t = Run("SELECT * WHERE { ?x ex:knows ?y . }");
  EXPECT_EQ(t.vars.size(), 2u);
}

// Rows as "a|b|c" strings of lexical forms, "http://ex/" dropped and "-"
// for unbound cells.
std::multiset<std::string> Rows(const ResultTable& table) {
  std::multiset<std::string> out;
  for (const auto& row : table.rows) {
    std::string line;
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) line += "|";
      if (!row[i].has_value()) {
        line += "-";
        continue;
      }
      std::string lexical(row[i]->lexical());
      if (lexical.rfind("http://ex/", 0) == 0) lexical.erase(0, 10);
      line += lexical;
    }
    out.insert(line);
  }
  return out;
}

TEST_F(EvaluatorTest, CorrelatedGroupsPlanPerBoundSet) {
  // The second OPTIONAL runs first for alice, whose ?v the first OPTIONAL
  // bound, then for bob and carol, where ?v is unbound. With ?v bound the
  // filter on ?v can run right after (?x knows ?y); with ?v unbound it
  // must wait for (?y age ?v), so the two rows need different plans.
  EXPECT_EQ(Rows(Run("SELECT ?x ?v ?y WHERE { ?x ex:type ex:Person . "
                     "OPTIONAL { ?x ex:email ?v . } "
                     "OPTIONAL { ?x ex:knows ?y . ?y ex:age ?v . "
                     "FILTER (?v > 20) } }")),
            (std::multiset<std::string>{"alice|alice@example.org|-",
                                        "bob|35|carol", "carol|-|-"}));

  // A constant the store never saw makes the inner group empty, so the
  // NOT EXISTS keeps every row.
  EXPECT_EQ(Rows(Run("SELECT ?x WHERE { ?x ex:type ex:Person . "
                     "FILTER NOT EXISTS { ?x ex:knows ex:ghost . } }")),
            (std::multiset<std::string>{"alice", "bob", "carol"}));

  // An inline filter inside the correlated group: only alice knows
  // someone younger than 30 (bob, 25).
  EXPECT_EQ(Rows(Run("SELECT ?x WHERE { ?x ex:type ex:Person . "
                     "FILTER EXISTS { ?x ex:knows ?y . ?y ex:age ?a . "
                     "FILTER (?a < 30) } }")),
            (std::multiset<std::string>{"alice"}));

  // The GJV check shape: is some ?Z known by someone yet knowing nobody?
  // carol is (twice, via alice and bob); bob knows carol, so he is not.
  EXPECT_EQ(Rows(Run("SELECT ?Z WHERE { ?Z ex:type ex:Person . "
                     "?W ex:knows ?Z . FILTER NOT EXISTS { SELECT ?Z WHERE "
                     "{ ?Z ex:knows ?Q . } } } LIMIT 1")),
            (std::multiset<std::string>{"carol"}));
  EXPECT_EQ(Rows(Run("SELECT ?Z WHERE { ?Z ex:type ex:Person . "
                     "?W ex:knows ?Z . FILTER NOT EXISTS { SELECT ?Z WHERE "
                     "{ ?Z ex:type ?T . } } } LIMIT 1")),
            (std::multiset<std::string>{}));
}

// ---------------------------------------------------------------------
// Expression evaluation unit tests.
// ---------------------------------------------------------------------

TEST(ExprEvalTest, ArithmeticAndComparison) {
  auto lookup = [](const std::string&) -> const Term* { return nullptr; };
  Expr five = Expr::Const(Term::Integer(5));
  Expr three = Expr::Const(Term::Integer(3));
  auto sum = EvalExpr(Expr::Binary(ExprOp::kAdd, five, three), lookup);
  ASSERT_TRUE(sum.has_value());
  EXPECT_EQ(sum->lexical(), "8");
  auto prod = EvalExpr(Expr::Binary(ExprOp::kMul, five, three), lookup);
  EXPECT_EQ(prod->lexical(), "15");
  EXPECT_TRUE(EvalFilter(Expr::Binary(ExprOp::kGt, five, three), lookup));
  EXPECT_FALSE(EvalFilter(Expr::Binary(ExprOp::kLt, five, three), lookup));
}

TEST(ExprEvalTest, DivisionByZeroIsError) {
  auto lookup = [](const std::string&) -> const Term* { return nullptr; };
  Expr e = Expr::Binary(ExprOp::kDiv, Expr::Const(Term::Integer(1)),
                        Expr::Const(Term::Integer(0)));
  EXPECT_FALSE(EvalExpr(e, lookup).has_value());
  EXPECT_FALSE(EvalFilter(e, lookup));  // Errors coerce to false.
}

TEST(ExprEvalTest, UnboundVariableIsErrorExceptBound) {
  auto lookup = [](const std::string&) -> const Term* { return nullptr; };
  EXPECT_FALSE(EvalFilter(Expr::Var("x"), lookup));
  Expr bound = Expr::Unary(ExprOp::kBound, Expr::Var("x"));
  auto v = EvalExpr(bound, lookup);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->lexical(), "false");
}

TEST(ExprEvalTest, LogicalErrorPropagation) {
  auto lookup = [](const std::string&) -> const Term* { return nullptr; };
  Expr err = Expr::Var("unbound");
  Expr t = Expr::Const(Term::TypedLiteral("true", std::string(rdf::kXsdBoolean)));
  Expr f = Expr::Const(Term::TypedLiteral("false", std::string(rdf::kXsdBoolean)));
  // false && error = false; true || error = true; true && error = error.
  EXPECT_FALSE(EvalFilter(Expr::Binary(ExprOp::kAnd, f, err), lookup));
  EXPECT_TRUE(EvalFilter(Expr::Binary(ExprOp::kOr, t, err), lookup));
  EXPECT_FALSE(EvalExpr(Expr::Binary(ExprOp::kAnd, t, err), lookup)
                   .has_value());
}

TEST(ExprEvalTest, NumericEqualityAcrossTypes) {
  auto lookup = [](const std::string&) -> const Term* { return nullptr; };
  Expr i = Expr::Const(Term::Integer(5));
  Expr d = Expr::Const(Term::Double(5.0));
  EXPECT_TRUE(EvalFilter(Expr::Binary(ExprOp::kEq, i, d), lookup));
}

TEST(ExprEvalTest, SameTermIsStricterThanEquals) {
  auto lookup = [](const std::string&) -> const Term* { return nullptr; };
  Expr i = Expr::Const(Term::Integer(5));
  Expr d = Expr::Const(Term::Double(5.0));
  EXPECT_FALSE(EvalFilter(Expr::Binary(ExprOp::kSameTerm, i, d), lookup));
}

}  // namespace
}  // namespace lusail::sparql

namespace lusail::sparql {
namespace {

class OrderByEvalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int i = 0; i < 5; ++i) {
      store_.Add(rdf::TermTriple{
          rdf::Term::Iri("http://ex/item" + std::to_string(i)),
          rdf::Term::Iri("http://ex/rank"),
          rdf::Term::Integer((i * 7) % 5)});  // 0,2,4,1,3.
    }
    store_.Freeze();
  }
  store::TripleStore store_;
};

TEST_F(OrderByEvalTest, AscendingNumericOrder) {
  Evaluator evaluator(&store_);
  auto q = ParseQuery(
      "SELECT ?x ?r WHERE { ?x <http://ex/rank> ?r . } ORDER BY ?r");
  auto result = evaluator.Execute(*q);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->NumRows(), 5u);
  for (size_t i = 0; i + 1 < result->rows.size(); ++i) {
    EXPECT_LE(result->rows[i][1]->AsDouble(),
              result->rows[i + 1][1]->AsDouble());
  }
}

TEST_F(OrderByEvalTest, DescendingWithLimitTakesTop) {
  Evaluator evaluator(&store_);
  auto q = ParseQuery(
      "SELECT ?x ?r WHERE { ?x <http://ex/rank> ?r . } ORDER BY DESC(?r) "
      "LIMIT 2");
  auto result = evaluator.Execute(*q);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->NumRows(), 2u);
  EXPECT_DOUBLE_EQ(result->rows[0][1]->AsDouble(), 4.0);
  EXPECT_DOUBLE_EQ(result->rows[1][1]->AsDouble(), 3.0);
}

TEST_F(OrderByEvalTest, OffsetAppliesAfterSort) {
  Evaluator evaluator(&store_);
  auto q = ParseQuery(
      "SELECT ?r WHERE { ?x <http://ex/rank> ?r . } ORDER BY ?r "
      "LIMIT 2 OFFSET 1");
  auto result = evaluator.Execute(*q);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->NumRows(), 2u);
  EXPECT_DOUBLE_EQ(result->rows[0][0]->AsDouble(), 1.0);
  EXPECT_DOUBLE_EQ(result->rows[1][0]->AsDouble(), 2.0);
}

/// Three predicates of 500 triples each (a disconnected 3-pattern BGP
/// over them has 500^3 = 1.25e8 solutions) plus 100 <q> triples.
class EarlyExitEvaluatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int i = 0; i < 500; ++i) {
      for (const char* p : {"p1", "p2", "p3"}) {
        store_.Add(TermTriple{Term::Iri("http://ex/s" + std::to_string(i)),
                              Term::Iri(std::string("http://ex/") + p),
                              Term::Integer(i)});
      }
    }
    for (int i = 0; i < 100; ++i) {
      store_.Add(TermTriple{Term::Iri("http://ex/x" + std::to_string(i)),
                            Term::Iri("http://ex/q"), Term::Integer(i)});
    }
    store_.Freeze();
  }

  static constexpr const char* kHuge =
      "?a <http://ex/p1> ?b . ?c <http://ex/p2> ?d . ?e <http://ex/p3> ?f .";

  store::TripleStore store_;
};

// Each of these would enumerate 1.25e8 rows (minutes) without early exit.
TEST_F(EarlyExitEvaluatorTest, LimitOneStopsAtTheFirstRow) {
  Evaluator evaluator(&store_);
  auto query = ParseQuery(std::string("SELECT * WHERE { ") + kHuge +
                          " } LIMIT 1");
  Stopwatch watch;
  auto result = evaluator.Execute(*query);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->NumRows(), 1u);
  EXPECT_LT(watch.ElapsedMillis(), 5000.0);
}

TEST_F(EarlyExitEvaluatorTest, AskStopsAtTheFirstRow) {
  Evaluator evaluator(&store_);
  auto query = ParseQuery(std::string("ASK { ") + kHuge + " }");
  Stopwatch watch;
  auto result = evaluator.Execute(*query);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->NumRows(), 1u);
  EXPECT_LT(watch.ElapsedMillis(), 5000.0);
}

TEST_F(EarlyExitEvaluatorTest, ExistsStopsAtTheFirstRowPerOuterRow) {
  Evaluator evaluator(&store_);
  auto query = ParseQuery(
      std::string("SELECT ?x WHERE { ?x <http://ex/q> ?y . FILTER EXISTS { ") +
      kHuge + " } }");
  Stopwatch watch;
  auto result = evaluator.Execute(*query);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->NumRows(), 100u);
  EXPECT_LT(watch.ElapsedMillis(), 5000.0);
}

TEST_F(EarlyExitEvaluatorTest, CancelEndsALongEvaluation) {
  Evaluator evaluator(&store_);
  // COUNT(*) has to enumerate every solution: no early exit applies.
  auto query = ParseQuery(std::string("SELECT (COUNT(*) AS ?n) WHERE { ") +
                          kHuge + " }");
  CancelToken token = CancelToken::Cancellable();
  Stopwatch watch;
  std::atomic<double> cancelled_at{0.0};
  std::thread canceller([token, &watch, &cancelled_at]() mutable {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    cancelled_at = watch.ElapsedMillis();
    token.Cancel();
  });
  auto result = evaluator.Execute(*query, token);
  const double returned_at = watch.ElapsedMillis();
  canceller.join();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kTimeout)
      << result.status().ToString();
  EXPECT_LT(returned_at - cancelled_at.load(), 50.0);
}

TEST(CompareForOrderTest, TotalOrderSemantics) {
  using rdf::Term;
  std::optional<Term> unbound;
  std::optional<Term> blank = Term::BlankNode("b");
  std::optional<Term> iri = Term::Iri("http://a");
  std::optional<Term> lit = Term::Literal("a");
  EXPECT_LT(CompareForOrder(unbound, blank), 0);
  EXPECT_LT(CompareForOrder(blank, iri), 0);
  EXPECT_LT(CompareForOrder(iri, lit), 0);
  EXPECT_EQ(CompareForOrder(lit, lit), 0);
  // Numeric literals compare by value, not lexically.
  EXPECT_LT(CompareForOrder(Term::Integer(9), Term::Integer(10)), 0);
}

}  // namespace
}  // namespace lusail::sparql

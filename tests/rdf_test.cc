#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "rdf/dictionary.h"
#include "rdf/ntriples.h"
#include "rdf/term.h"

namespace lusail::rdf {
namespace {

// ---------------------------------------------------------------------
// Term
// ---------------------------------------------------------------------

TEST(TermTest, Constructors) {
  Term iri = Term::Iri("http://example.org/a");
  EXPECT_TRUE(iri.is_iri());
  EXPECT_EQ(iri.lexical(), "http://example.org/a");

  Term lit = Term::Literal("hello");
  EXPECT_TRUE(lit.is_literal());
  EXPECT_TRUE(lit.datatype().empty());

  Term typed = Term::TypedLiteral("5", std::string(kXsdInteger));
  EXPECT_TRUE(typed.IsNumeric());
  EXPECT_DOUBLE_EQ(typed.AsDouble(), 5.0);

  Term lang = Term::LangLiteral("bonjour", "fr");
  EXPECT_EQ(lang.lang(), "fr");

  Term blank = Term::BlankNode("b0");
  EXPECT_TRUE(blank.is_blank());
}

TEST(TermTest, IntegerAndDoubleHelpers) {
  EXPECT_EQ(Term::Integer(-7).lexical(), "-7");
  EXPECT_EQ(Term::Integer(-7).datatype(), kXsdInteger);
  EXPECT_TRUE(Term::Double(2.5).IsNumeric());
  EXPECT_DOUBLE_EQ(Term::Double(2.5).AsDouble(), 2.5);
}

TEST(TermTest, ToStringForms) {
  EXPECT_EQ(Term::Iri("http://x/a").ToString(), "<http://x/a>");
  EXPECT_EQ(Term::Literal("hi").ToString(), "\"hi\"");
  EXPECT_EQ(Term::LangLiteral("hi", "en").ToString(), "\"hi\"@en");
  EXPECT_EQ(Term::TypedLiteral("5", "http://dt").ToString(),
            "\"5\"^^<http://dt>");
  EXPECT_EQ(Term::BlankNode("b1").ToString(), "_:b1");
}

TEST(TermTest, EscapingInToString) {
  Term t = Term::Literal("a \"b\"\nc\\d");
  std::string s = t.ToString();
  auto parsed = Term::Parse(s);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(*parsed, t);
}

struct RoundTripCase {
  const char* label;
  Term term;
};

// Without this, gtest prints the raw bytes of the case, which include
// heap and string-literal addresses, so the listed test names change
// from one build to the next.
void PrintTo(const RoundTripCase& c, std::ostream* os) { *os << c.label; }

class TermRoundTripTest : public ::testing::TestWithParam<RoundTripCase> {};

TEST_P(TermRoundTripTest, ParseToStringRoundTrips) {
  const Term& term = GetParam().term;
  auto parsed = Term::Parse(term.ToString());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(*parsed, term);
  EXPECT_EQ(parsed->Hash(), term.Hash());
}

INSTANTIATE_TEST_SUITE_P(
    Forms, TermRoundTripTest,
    ::testing::Values(
        RoundTripCase{"iri", Term::Iri("http://example.org/x?q=1#f")},
        RoundTripCase{"plain", Term::Literal("plain text")},
        RoundTripCase{"empty", Term::Literal("")},
        RoundTripCase{"lang", Term::LangLiteral("hallo", "de-DE")},
        RoundTripCase{"typed", Term::Integer(123456789)},
        RoundTripCase{"negative", Term::Integer(-5)},
        RoundTripCase{"double", Term::Double(3.25)},
        RoundTripCase{"blank", Term::BlankNode("node42")},
        RoundTripCase{"escapes", Term::Literal("tab\t nl\n q\" bs\\")}),
    [](const ::testing::TestParamInfo<RoundTripCase>& info) {
      return info.param.label;
    });

TEST(TermTest, ParseErrors) {
  EXPECT_FALSE(Term::Parse("").ok());
  EXPECT_FALSE(Term::Parse("<unterminated").ok());
  EXPECT_FALSE(Term::Parse("\"unterminated").ok());
  EXPECT_FALSE(Term::Parse("plainword").ok());
  EXPECT_FALSE(Term::Parse("\"x\"^^notiri").ok());
}

TEST(TermTest, OrderingIsTotal) {
  Term a = Term::Iri("http://a");
  Term b = Term::Iri("http://b");
  Term lit = Term::Literal("http://a");
  EXPECT_TRUE(a < b);
  EXPECT_FALSE(b < a);
  EXPECT_TRUE(a < lit || lit < a);  // Different kinds are ordered.
  EXPECT_FALSE(a < a);
}

TEST(TermTest, EqualityDistinguishesKindAndSuffixes) {
  EXPECT_NE(Term::Iri("x"), Term::Literal("x"));
  EXPECT_NE(Term::Literal("x"), Term::LangLiteral("x", "en"));
  EXPECT_NE(Term::LangLiteral("x", "en"), Term::LangLiteral("x", "fr"));
  EXPECT_NE(Term::TypedLiteral("x", "dt1"), Term::TypedLiteral("x", "dt2"));
}

TEST(TermTest, HashSeparatesKindAndFieldBoundaries) {
  // The hash folds in each field's length, so moving bytes across a field
  // boundary, or changing only the kind, changes it.
  EXPECT_NE(Term::TypedLiteral("ab", "c").Hash(),
            Term::TypedLiteral("a", "bc").Hash());
  EXPECT_NE(Term::LangLiteral("ab", "c").Hash(),
            Term::LangLiteral("a", "bc").Hash());
  EXPECT_NE(Term::Literal("xen").Hash(), Term::LangLiteral("x", "en").Hash());
  EXPECT_NE(Term::Iri("x").Hash(), Term::Literal("x").Hash());
  EXPECT_NE(Term::Iri("x").Hash(), Term::BlankNode("x").Hash());
  // A trailing zero byte inside the last 8-byte word still counts.
  EXPECT_NE(Term::Literal("a").Hash(),
            Term::Literal(std::string("a\0", 2)).Hash());
}

TEST(TermTest, SerializedSizeMatchesToString) {
  const std::vector<Term> terms = {
      Term::Iri("http://example.org/x?q=1#f"),
      Term::Iri(""),
      Term::BlankNode("node42"),
      Term::Literal("plain text"),
      Term::Literal(""),
      Term::TypedLiteral("", "http://example.org/dt"),
      Term::LangLiteral("", "en"),
      Term::Integer(-5),
      Term::Double(3.25),
      Term::LangLiteral("hallo", "de-DE"),
      Term::Literal("back\\slash"),
      Term::Literal("a \"quote\""),
      Term::Literal("new\nline"),
      Term::Literal("carriage\rreturn"),
      Term::Literal("tab\there"),
      Term::TypedLiteral("\\\"\n\r\t", "http://example.org/dt"),
      Term::LangLiteral("\\\"\n\r\t", "en"),
  };
  for (const Term& term : terms) {
    EXPECT_EQ(term.SerializedSize(), term.ToString().size())
        << term.ToString();
  }
}

// ---------------------------------------------------------------------
// Dictionary
// ---------------------------------------------------------------------

TEST(DictionaryTest, InternIsIdempotent) {
  Dictionary dict;
  TermId a = dict.Intern(Term::Iri("http://a"));
  TermId b = dict.Intern(Term::Iri("http://b"));
  EXPECT_NE(a, b);
  EXPECT_EQ(dict.Intern(Term::Iri("http://a")), a);
  EXPECT_EQ(dict.size(), 2u);
}

TEST(DictionaryTest, LookupAndDecode) {
  Dictionary dict;
  Term t = Term::LangLiteral("hi", "en");
  TermId id = dict.Intern(t);
  EXPECT_EQ(dict.Lookup(t), id);
  EXPECT_EQ(dict.term(id), t);
  EXPECT_EQ(dict.Lookup(Term::Literal("hi")), kInvalidTermId);
}

TEST(DictionaryTest, MemoryUsageGrows) {
  Dictionary dict;
  size_t before = dict.MemoryUsageBytes();
  for (int i = 0; i < 100; ++i) {
    dict.Intern(Term::Iri("http://example.org/resource/" +
                          std::to_string(i)));
  }
  EXPECT_GT(dict.MemoryUsageBytes(), before);
}

// ---------------------------------------------------------------------
// N-Triples
// ---------------------------------------------------------------------

TEST(NTriplesTest, ParsesBasicLine) {
  TermTriple triple;
  bool has = false;
  ASSERT_TRUE(ParseNTriplesLine(
                  "<http://s> <http://p> \"o\"@en .", &triple, &has)
                  .ok());
  ASSERT_TRUE(has);
  EXPECT_EQ(triple.subject, rdf::Term::Iri("http://s"));
  EXPECT_EQ(triple.object, rdf::Term::LangLiteral("o", "en"));
}

TEST(NTriplesTest, SkipsCommentsAndBlanks) {
  auto result = ParseNTriples("# comment\n\n<http://s> <http://p> <http://o> .\n");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 1u);
}

TEST(NTriplesTest, RejectsMalformedLines) {
  TermTriple t;
  bool has;
  EXPECT_FALSE(ParseNTriplesLine("<http://s> <http://p> .", &t, &has).ok());
  EXPECT_FALSE(
      ParseNTriplesLine("<http://s> \"litpred\" <http://o> .", &t, &has).ok());
  EXPECT_FALSE(
      ParseNTriplesLine("<http://s> <http://p> <http://o>", &t, &has).ok());
}

TEST(NTriplesTest, WriteParseRoundTrip) {
  std::vector<TermTriple> triples = {
      {Term::Iri("http://s1"), Term::Iri("http://p"),
       Term::Literal("v w\n\"x\"")},
      {Term::BlankNode("b"), Term::Iri("http://p2"), Term::Integer(9)},
      {Term::Iri("http://s2"), Term::Iri("http://p"),
       Term::LangLiteral("y", "en-GB")},
  };
  auto parsed = ParseNTriples(WriteNTriples(triples));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), triples.size());
  for (size_t i = 0; i < triples.size(); ++i) {
    EXPECT_EQ((*parsed)[i], triples[i]) << i;
  }
}

}  // namespace
}  // namespace lusail::rdf

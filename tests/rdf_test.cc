#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/dictionary.h"
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
// Term blocks: hashes, sharing and concurrent reference counts
// ---------------------------------------------------------------------

/// One term of each shape, with the Term::Hash and
/// core::TermDictionary::content_hash values recorded when a term was
/// still a kind plus three std::strings. Shard placement and the
/// snapshot format depend on Hash; shared cache keys on content_hash.
struct GoldenTerm {
  Term term;
  uint64_t hash;
  uint64_t content_hash;
};

std::vector<GoldenTerm> GoldenTerms() {
  return {
      {Term::Iri("http://example.org/a"), 0x27d93e72027b6845ULL,
       0x47c0c33f00a75647ULL},
      {Term::Literal("hello"), 0x8edc5a07fd7ea2f4ULL, 0x680ab7088c42e442ULL},
      {Term::TypedLiteral("42", kXsdInteger), 0x2426ff1969e77ad3ULL,
       0xb0b9516283a34625ULL},
      {Term::LangLiteral("chat", "fr"), 0x9fa719f7f61d8207ULL,
       0xb4288b1706aeef40ULL},
      {Term::BlankNode("b0"), 0x4010fb2d3fd94232ULL, 0xde846234f101469dULL},
      {Term::Literal(std::string("a\0b", 3)), 0x532d4bb1e136dee3ULL,
       0x99d7f840cf9895b3ULL},
      {Term(), 0x0a2906c389afb97bULL, 0xd8e3d7186bb5e26dULL},
  };
}

TEST(TermBlockTest, HashesMatchTheGoldenValues) {
  for (const GoldenTerm& golden : GoldenTerms()) {
    const Term& t = golden.term;
    EXPECT_EQ(t.Hash(), golden.hash) << t.ToString();
    EXPECT_EQ(Term::HashFields(t.kind(), t.lexical(), t.datatype(), t.lang()),
              golden.hash)
        << t.ToString();
  }
}

TEST(TermBlockTest, ContentHashesMatchTheGoldenValues) {
  core::TermDictionary dict;
  for (const GoldenTerm& golden : GoldenTerms()) {
    EXPECT_EQ(dict.content_hash(dict.Intern(golden.term)),
              golden.content_hash)
        << golden.term.ToString();
  }
}

TEST(TermBlockTest, EmbeddedNulSurvivesEveryField) {
  const std::string lexical("a\0b", 3);
  const std::string lang("x\0y", 3);
  Term t = Term::LangLiteral(lexical, lang);
  EXPECT_EQ(t.lexical(), lexical);
  EXPECT_EQ(t.lang(), lang);
  EXPECT_NE(t, Term::LangLiteral("a", lang));
  EXPECT_EQ(t, Term::LangLiteral(lexical, lang));
}

TEST(TermBlockTest, CopiesShareOneBlock) {
  Term a = Term::TypedLiteral("7", kXsdInteger);
  Term b = a;
  EXPECT_EQ(a.lexical().data(), b.lexical().data());
  EXPECT_EQ(a.datatype().data(), b.datatype().data());
  Dictionary dict;
  EXPECT_EQ(dict.term(dict.Intern(a)).lexical().data(), a.lexical().data());
  Term moved = std::move(b);
  EXPECT_EQ(moved, a);
  EXPECT_EQ(b, Term());  // A moved-from term is the empty IRI.
  b = moved;
  EXPECT_EQ(b.lexical().data(), a.lexical().data());
}

TEST(TermBlockTest, DefaultAndEmptyIriHoldNoBlock) {
  EXPECT_EQ(Term().BlockBytes(), 0u);
  EXPECT_EQ(Term::Iri("").BlockBytes(), 0u);
  EXPECT_EQ(Term::Iri(""), Term());
  EXPECT_TRUE(Term().is_iri());
  EXPECT_TRUE(Term().lexical().empty());
  // An empty literal or blank label is not the empty IRI.
  EXPECT_GT(Term::Literal("").BlockBytes(), 0u);
  EXPECT_NE(Term::Literal(""), Term());
  EXPECT_NE(Term::BlankNode(""), Term());
  Term iri = Term::Iri("http://example.org/a");
  EXPECT_EQ(iri.BlockBytes(), Term::Iri("http://example.org/b").BlockBytes());
  EXPECT_GT(iri.BlockBytes(), iri.lexical().size());
}

TEST(TermBlockTest, FieldViewsAgreeWithBuiltTerms) {
  const std::vector<Term> terms = {
      Term::Iri("http://example.org/a"), Term::Literal("x"),
      Term::TypedLiteral("1", kXsdInteger), Term::LangLiteral("x", "en"),
      Term::BlankNode("b"), Term()};
  for (const Term& t : terms) {
    EXPECT_EQ(Term::FromFields(t.kind(), t.lexical(), t.datatype(), t.lang()),
              t);
    EXPECT_TRUE(t.HasFields(t.kind(), t.lexical(), t.datatype(), t.lang()));
    EXPECT_FALSE(t.HasFields(t.kind(), "other", t.datatype(), t.lang()));
  }
  // Field boundaries count: ("ab", "c") is not ("a", "bc").
  Term split = Term::TypedLiteral("ab", "c");
  EXPECT_FALSE(split.HasFields(TermKind::kLiteral, "a", "bc", ""));
  EXPECT_NE(split, Term::TypedLiteral("a", "bc"));
}

TEST(TermBlockTest, ConcurrentCopiesAndDropsAreClean) {
  const std::vector<Term> shared = {
      Term::Iri("http://example.org/shared"), Term::Literal("shared"),
      Term::Integer(42), Term::LangLiteral("geteilt", "de")};
  constexpr int kThreads = 4;
  constexpr int kRounds = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&shared, t] {
      std::vector<Term> held;
      for (int i = 0; i < kRounds; ++i) {
        const Term& source = shared[(i + t) % shared.size()];
        held.push_back(source);
        Term copy = held.back();
        Term moved = std::move(copy);
        copy = moved;
        if (held.size() == 16) held.clear();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(shared[0], Term::Iri("http://example.org/shared"));
  EXPECT_EQ(shared[2], Term::Integer(42));
  EXPECT_EQ(shared[3].lang(), "de");
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

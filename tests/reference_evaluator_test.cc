// Checks sparql::Evaluator against an independent brute-force reference:
// nested loops over every triple of a small store, no indexes and no
// plans, on a few hundred seeded random queries. The perfbench oracle and
// random_query_test both run sparql::Evaluator itself, so they cannot
// catch a bug in it; this test can.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "federation/federation.h"
#include "net/sparql_endpoint.h"
#include "sparql/evaluator.h"
#include "sparql/expr_eval.h"
#include "sparql/parser.h"
#include "store/triple_store.h"

namespace lusail {
namespace {

using rdf::Term;
using rdf::TermTriple;

/// One solution of the reference: variable name to term; absent = unbound.
using Solution = std::map<std::string, Term>;

std::string Iri(const std::string& local) {
  return "<http://ex/" + local + ">";
}

/// Six subjects, three predicates; objects mix subjects, integer
/// literals and one plain literal. Deterministic.
std::vector<TermTriple> StoreTriples() {
  std::vector<TermTriple> triples;
  Rng rng(20250);
  auto subject = [](uint64_t i) {
    return Term::Iri("http://ex/s" + std::to_string(i));
  };
  for (int i = 0; i < 32; ++i) {
    Term s = subject(rng.NextBelow(6));
    Term p = Term::Iri("http://ex/p" + std::to_string(rng.NextBelow(3)));
    Term o;
    switch (rng.NextBelow(3)) {
      case 0: o = subject(rng.NextBelow(6)); break;
      case 1: o = Term::Integer(static_cast<int64_t>(rng.NextBelow(5))); break;
      default: o = Term::Literal("x"); break;
    }
    TermTriple t{s, p, o};
    if (std::find(triples.begin(), triples.end(), t) == triples.end()) {
      triples.push_back(t);
    }
  }
  return triples;
}

/// Nested-loop evaluation with the evaluator's documented semantics:
/// VALUES, then the BGP, then UNION alternatives seeded with the partial
/// solutions, then OPTIONALs (left outer join per solution), then plain
/// filters and [NOT] EXISTS.
class Reference {
 public:
  explicit Reference(std::vector<TermTriple> triples)
      : triples_(std::move(triples)) {}

  std::vector<Solution> Eval(const sparql::GraphPattern& gp,
                             std::vector<Solution> rows) const {
    for (const sparql::ValuesClause& vc : gp.values) {
      std::vector<Solution> joined;
      for (const Solution& row : rows) {
        for (const auto& data : vc.rows) {
          Solution merged = row;
          bool ok = true;
          for (size_t i = 0; i < vc.vars.size() && ok; ++i) {
            if (data[i].has_value()) {
              ok = Bind(vc.vars[i].name, *data[i], &merged);
            }
          }
          if (ok) joined.push_back(std::move(merged));
        }
      }
      rows = std::move(joined);
    }
    for (const sparql::TriplePattern& tp : gp.triples) {
      std::vector<Solution> next;
      for (const Solution& row : rows) {
        for (const TermTriple& t : triples_) {
          Solution ext = row;
          if (Match(tp.s, t.subject, &ext) && Match(tp.p, t.predicate, &ext) &&
              Match(tp.o, t.object, &ext)) {
            next.push_back(std::move(ext));
          }
        }
      }
      rows = std::move(next);
    }
    for (const auto& chain : gp.unions) {
      std::vector<Solution> unioned;
      for (const sparql::GraphPattern& alt : chain) {
        for (Solution& s : Eval(alt, rows)) unioned.push_back(std::move(s));
      }
      rows = std::move(unioned);
    }
    for (const sparql::GraphPattern& opt : gp.optionals) {
      std::vector<Solution> joined;
      for (Solution& row : rows) {
        std::vector<Solution> ext = Eval(opt, {row});
        if (ext.empty()) {
          joined.push_back(std::move(row));
        } else {
          for (Solution& s : ext) joined.push_back(std::move(s));
        }
      }
      rows = std::move(joined);
    }
    std::vector<Solution> kept;
    for (Solution& row : rows) {
      auto lookup = [&row](const std::string& name) -> const Term* {
        auto it = row.find(name);
        return it == row.end() ? nullptr : &it->second;
      };
      bool keep = true;
      for (const sparql::Expr& f : gp.filters) {
        keep = keep && sparql::EvalFilter(f, lookup);
      }
      for (const sparql::ExistsFilter& ef : gp.exists_filters) {
        keep = keep && Eval(ef.pattern, {row}).empty() == ef.negated;
      }
      if (keep) kept.push_back(std::move(row));
    }
    return kept;
  }

 private:
  static bool Bind(const std::string& var, const Term& value, Solution* row) {
    auto [it, inserted] = row->emplace(var, value);
    return inserted || it->second == value;
  }
  static bool Match(const sparql::TermOrVar& tv, const Term& value,
                    Solution* row) {
    return tv.is_term() ? tv.term() == value : Bind(tv.var().name, value, row);
  }

  std::vector<TermTriple> triples_;
};

/// What a query must answer: its rows rendered one string each (sorted,
/// a multiset), and for a LIMIT/OFFSET window without ORDER BY the size
/// the window must have.
struct Expected {
  std::vector<std::string> rows;
  std::optional<size_t> window_size;
};

std::string Render(const std::vector<const Term*>& cells) {
  std::string out;
  for (const Term* cell : cells) {
    out += cell != nullptr ? cell->ToString() : "UNDEF";
    out += '\t';
  }
  return out;
}

Expected Answer(const Reference& ref, const sparql::Query& query) {
  std::vector<Solution> rows = ref.Eval(query.where, {Solution{}});
  Expected expected;
  if (query.form == sparql::QueryForm::kAsk) {
    if (!rows.empty()) expected.rows.push_back("");
    return expected;
  }
  if (query.aggregate.has_value()) {
    const sparql::CountAggregate& agg = *query.aggregate;
    std::set<std::string> distinct;
    uint64_t count = 0;
    for (const Solution& row : rows) {
      if (!agg.var.has_value()) {
        ++count;
        continue;
      }
      auto it = row.find(agg.var->name);
      if (it == row.end()) continue;
      ++count;
      distinct.insert(it->second.ToString());
    }
    if (agg.distinct) count = distinct.size();
    Term value = Term::Integer(static_cast<int64_t>(count));
    expected.rows.push_back(Render({&value}));
    return expected;
  }
  std::set<std::string> seen;
  for (const Solution& row : rows) {
    std::vector<const Term*> cells;
    for (const sparql::Variable& v : query.EffectiveProjection()) {
      auto it = row.find(v.name);
      cells.push_back(it == row.end() ? nullptr : &it->second);
    }
    std::string rendered = Render(cells);
    if (query.distinct && !seen.insert(rendered).second) continue;
    expected.rows.push_back(std::move(rendered));
  }
  if (query.limit.has_value() || query.offset.has_value()) {
    size_t offset = query.offset.value_or(0);
    size_t available = expected.rows.size() > offset
                           ? expected.rows.size() - offset
                           : 0;
    expected.window_size =
        std::min<size_t>(available, query.limit.value_or(available));
  }
  std::sort(expected.rows.begin(), expected.rows.end());
  return expected;
}

std::vector<std::string> Rows(const sparql::ResultTable& table) {
  std::vector<std::string> rows;
  for (const auto& row : table.rows) {
    std::vector<const Term*> cells;
    for (const auto& cell : row) {
      cells.push_back(cell.has_value() ? &*cell : nullptr);
    }
    rows.push_back(Render(cells));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// Seeded random queries over StoreTriples' vocabulary. Feature flags
/// record what each query exercised, so the test can insist that every
/// feature was covered.
class QueryGen {
 public:
  explicit QueryGen(uint64_t seed) : rng_(seed) {}

  std::set<std::string> features;

  std::string Query() {
    std::string where = Group(0, 1, 4);
    std::string modifiers;
    switch (rng_.NextBelow(8)) {
      case 0:
        features.insert("ask");
        return "ASK { " + where + " }";
      case 1:
        features.insert("count");
        return "SELECT (COUNT(*) AS ?n) WHERE { " + where + " }";
      case 2:
        features.insert("count");
        return "SELECT (COUNT(" +
               std::string(Chance(2) ? "DISTINCT " : "") + Var() +
               ") AS ?n) WHERE { " + where + " }";
      default:
        break;
    }
    std::string head = "SELECT ";
    if (Chance(4)) {
      features.insert("distinct");
      head += "DISTINCT ";
    }
    if (Chance(3)) {
      head += "*";
    } else {
      std::set<std::string> vars;
      for (uint64_t i = rng_.NextInRange(1, 3); i > 0; --i) vars.insert(Var());
      for (const std::string& v : vars) head += v + " ";
    }
    if (Chance(4)) {
      features.insert("limit");
      modifiers = " LIMIT " + std::to_string(rng_.NextInRange(0, 4));
      if (Chance(2)) {
        modifiers += " OFFSET " + std::to_string(rng_.NextBelow(3));
      }
    }
    return head + " WHERE { " + where + " }" + modifiers;
  }

 private:
  bool Chance(uint64_t one_in) { return rng_.NextBelow(one_in) == 0; }

  std::string Var() {
    static const char* kVars[] = {"?a", "?b", "?c", "?d"};
    return kVars[rng_.NextBelow(4)];
  }

  std::string Subject() {
    if (Chance(12)) {
      features.insert("absent");
      return Iri("absent");
    }
    return Iri("s" + std::to_string(rng_.NextBelow(6)));
  }

  std::string Object() {
    switch (rng_.NextBelow(4)) {
      case 0: return Subject();
      case 1: return std::to_string(rng_.NextBelow(5));
      case 2: return "\"x\"";
      default: return Var();
    }
  }

  std::string Pattern() {
    std::string s = Chance(4) ? Subject() : Var();
    std::string p =
        Chance(10) ? Var() : Iri("p" + std::to_string(rng_.NextBelow(3)));
    std::string o = Chance(3) ? Object() : Var();
    if (s == o && s[0] == '?') features.insert("repeated");
    return s + " " + p + " " + o + " . ";
  }

  std::string Values() {
    features.insert("values");
    std::string a = Var();
    std::string b = Var();
    if (a == b) {
      std::string out = "VALUES " + a + " { ";
      for (uint64_t r = rng_.NextInRange(1, 3); r > 0; --r) out += Cell() + " ";
      return out + "} ";
    }
    std::string out = "VALUES (" + a + " " + b + ") { ";
    for (uint64_t r = rng_.NextInRange(1, 3); r > 0; --r) {
      out += "(" + Cell() + " " + Cell() + ") ";
    }
    return out + "} ";
  }

  std::string Cell() {
    switch (rng_.NextBelow(5)) {
      case 0:
        features.insert("undef");
        return "UNDEF";
      case 1:
        features.insert("foreign");
        return Iri("foreign");
      case 2: return std::to_string(rng_.NextBelow(5));
      default: return Iri("s" + std::to_string(rng_.NextBelow(6)));
    }
  }

  std::string Filter() {
    features.insert("filter");
    switch (rng_.NextBelow(5)) {
      case 0: return "FILTER (" + Var() + " != " + Subject() + ") ";
      case 1: return "FILTER (" + Var() + " > 2) ";
      case 2: return "FILTER (BOUND(" + Var() + ")) ";
      case 3: return "FILTER (!BOUND(" + Var() + ")) ";
      default: return "FILTER (" + Var() + " = " + Var() + ") ";
    }
  }

  std::string Group(int depth, uint64_t min_triples, uint64_t max_triples) {
    std::string out;
    for (uint64_t n = rng_.NextInRange(min_triples, max_triples); n > 0; --n) {
      out += Pattern();
    }
    if (depth >= 2) return out;
    if (Chance(6)) out += Values();
    if (Chance(3)) out += Filter();
    if (Chance(4)) {
      features.insert("optional");
      out += "OPTIONAL { " + Group(depth + 1, 1, 2) + "} ";
    }
    if (Chance(4)) {
      features.insert("union");
      out += "{ " + Group(depth + 1, 1, 1) + "} UNION { " +
             Group(depth + 1, 1, 1) + "} ";
    }
    if (Chance(5)) {
      bool negated = Chance(2);
      features.insert(negated ? "not-exists" : "exists");
      out += negated ? "FILTER NOT EXISTS { " : "FILTER EXISTS { ";
      out += Group(depth + 1, 1, 2) + "} ";
    }
    return out;
  }

  Rng rng_;
};

TEST(ReferenceEvaluatorTest, RandomQueriesMatchBruteForce) {
  std::vector<TermTriple> triples = StoreTriples();
  auto store = std::make_unique<store::TripleStore>();
  for (const TermTriple& t : triples) store->Add(t);
  net::SparqlEndpoint endpoint("ref", std::move(store),
                               net::LatencyModel::None());
  const sparql::Evaluator evaluator(&endpoint.store());
  const Reference reference(triples);

  constexpr int kQueries = 300;
  std::set<std::string> covered;
  size_t nonempty = 0;
  for (int seed = 1; seed <= kQueries; ++seed) {
    QueryGen gen(static_cast<uint64_t>(seed));
    const std::string text = gen.Query();
    covered.insert(gen.features.begin(), gen.features.end());
    SCOPED_TRACE(text);
    Result<sparql::Query> query = sparql::ParseQuery(text);
    ASSERT_TRUE(query.ok()) << query.status().ToString();

    Result<sparql::ResultTable> table = evaluator.Execute(*query);
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    const Expected expected = Answer(reference, *query);
    const std::vector<std::string> actual = Rows(*table);
    if (expected.window_size.has_value()) {
      // Without ORDER BY any window of the right size is correct.
      EXPECT_EQ(actual.size(), *expected.window_size);
      EXPECT_TRUE(std::includes(expected.rows.begin(), expected.rows.end(),
                                actual.begin(), actual.end()));
    } else {
      EXPECT_EQ(actual, expected.rows);
    }
    if (!actual.empty()) ++nonempty;

    // The endpoint ships the same answer in store ids and charges exactly
    // the bytes of its decoded table.
    Result<net::QueryResponse> response = endpoint.Query(text);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    Result<sparql::ResultTable> decoded = fed::Federation::ToTable(*response);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(response->response_bytes, decoded->SerializedBytes());
    EXPECT_EQ(Rows(*decoded), actual);
  }
  EXPECT_GT(nonempty, static_cast<size_t>(kQueries / 4));
  for (const char* feature :
       {"ask", "count", "distinct", "limit", "absent", "repeated", "values",
        "undef", "foreign", "filter", "optional", "union", "exists",
        "not-exists"}) {
    EXPECT_TRUE(covered.count(feature)) << "no query exercised " << feature;
  }
}

}  // namespace
}  // namespace lusail

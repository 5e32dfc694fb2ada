#ifndef LUSAIL_SPARQL_AST_H_
#define LUSAIL_SPARQL_AST_H_

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <variant>
#include <vector>

#include "rdf/term.h"

namespace lusail::sparql {

/// A SPARQL variable (without the leading '?').
struct Variable {
  std::string name;

  bool operator==(const Variable& other) const { return name == other.name; }
  bool operator!=(const Variable& other) const { return name != other.name; }
  bool operator<(const Variable& other) const { return name < other.name; }

  /// Renders "?name".
  std::string ToString() const { return "?" + name; }
};

/// One slot of a triple pattern: a constant RDF term or a variable.
class TermOrVar {
 public:
  TermOrVar() : value_(rdf::Term()) {}
  TermOrVar(rdf::Term term) : value_(std::move(term)) {}      // NOLINT
  TermOrVar(Variable var) : value_(std::move(var)) {}         // NOLINT

  bool is_variable() const {
    return std::holds_alternative<Variable>(value_);
  }
  bool is_term() const { return !is_variable(); }

  const Variable& var() const { return std::get<Variable>(value_); }
  const rdf::Term& term() const { return std::get<rdf::Term>(value_); }
  /// The term, moved out of a slot that holds one.
  rdf::Term TakeTerm() && { return std::get<rdf::Term>(std::move(value_)); }

  bool operator==(const TermOrVar& other) const {
    return value_ == other.value_;
  }

  /// SPARQL rendering: "?v" or the term's N-Triples form.
  std::string ToString() const {
    return is_variable() ? var().ToString() : term().ToString();
  }

 private:
  std::variant<rdf::Term, Variable> value_;
};

/// A triple pattern (subject, predicate, object), any slot may be a
/// variable.
struct TriplePattern {
  TermOrVar s;
  TermOrVar p;
  TermOrVar o;

  bool operator==(const TriplePattern& other) const {
    return s == other.s && p == other.p && o == other.o;
  }

  /// Names of the variables appearing in this pattern (no duplicates,
  /// subject-predicate-object order).
  std::vector<std::string> VariableNames() const;

  /// Number of variable slots (0-3); the paper calls single patterns with
  /// 2-3 variables "simple subqueries".
  int VariableCount() const;

  /// Renders "s p o ." without the trailing dot.
  std::string ToString() const {
    return s.ToString() + " " + p.ToString() + " " + o.ToString();
  }
};

/// Expression node kinds for FILTER expressions.
enum class ExprOp {
  kVar,        ///< Variable reference.
  kConst,      ///< Constant term.
  kAnd,
  kOr,
  kNot,
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kAdd,
  kSub,
  kMul,
  kDiv,
  kBound,      ///< BOUND(?v)
  kStr,        ///< STR(x)
  kLang,       ///< LANG(x)
  kDatatype,   ///< DATATYPE(x)
  kIsIri,
  kIsLiteral,
  kIsBlank,
  kRegex,      ///< REGEX(text, pattern) — substring semantics subset.
  kContains,
  kStrStarts,
  kSameTerm,
};

/// A FILTER expression tree (value type; no sharing).
struct Expr {
  ExprOp op = ExprOp::kConst;
  Variable var;           ///< For kVar.
  rdf::Term constant;     ///< For kConst.
  std::vector<Expr> args; ///< Operands for everything else.

  static Expr Var(std::string name) {
    Expr e;
    e.op = ExprOp::kVar;
    e.var = Variable{std::move(name)};
    return e;
  }
  static Expr Const(rdf::Term t) {
    Expr e;
    e.op = ExprOp::kConst;
    e.constant = std::move(t);
    return e;
  }
  static Expr Unary(ExprOp op, Expr a) {
    Expr e;
    e.op = op;
    e.args.push_back(std::move(a));
    return e;
  }
  static Expr Binary(ExprOp op, Expr a, Expr b) {
    Expr e;
    e.op = op;
    e.args.push_back(std::move(a));
    e.args.push_back(std::move(b));
    return e;
  }

  /// Collects the names of all variables referenced by the expression.
  void CollectVariables(std::set<std::string>* out) const;
};

/// A VALUES data block: inline bindings joined with the enclosing group.
/// std::nullopt cells are UNDEF.
struct ValuesClause {
  std::vector<Variable> vars;
  std::vector<std::vector<std::optional<rdf::Term>>> rows;
};

struct ExistsFilter;

/// A group graph pattern: a conjunctive basic graph pattern plus filters,
/// EXISTS/NOT EXISTS filters, OPTIONAL blocks, UNION blocks, and VALUES
/// data blocks. Nested plain groups are flattened by the parser.
struct GraphPattern {
  std::vector<TriplePattern> triples;
  std::vector<Expr> filters;

  /// FILTER EXISTS { ... } / FILTER NOT EXISTS { ... } blocks.
  std::vector<ExistsFilter> exists_filters;

  std::vector<GraphPattern> optionals;

  /// Each entry is one UNION chain: alternatives[0] UNION alternatives[1]…
  std::vector<std::vector<GraphPattern>> unions;

  std::vector<ValuesClause> values;

  /// True when nothing at all was specified.
  bool IsEmpty() const {
    return triples.empty() && filters.empty() && exists_filters.empty() &&
           optionals.empty() && unions.empty() && values.empty();
  }

  /// Collects the names of all variables bound or referenced anywhere in
  /// the pattern (including nested blocks).
  void CollectVariables(std::set<std::string>* out) const;
};

/// FILTER EXISTS { ... } / FILTER NOT EXISTS { ... }.
struct ExistsFilter {
  bool negated = false;
  GraphPattern pattern;
};

/// Query form.
enum class QueryForm {
  kSelect,
  kAsk,
};

/// One ORDER BY key: a variable with a direction.
struct OrderKey {
  Variable var;
  bool descending = false;
};

/// COUNT aggregate in the projection: COUNT(*) or COUNT(DISTINCT ?v),
/// aliased AS ?alias.
struct CountAggregate {
  bool distinct = false;
  std::optional<Variable> var;  ///< nullopt means COUNT(*).
  Variable alias;
};

/// A parsed SPARQL query (SELECT or ASK) over the implemented subset.
struct Query {
  QueryForm form = QueryForm::kSelect;
  bool distinct = false;
  bool select_all = false;  ///< SELECT *.
  std::vector<Variable> projection;
  std::optional<CountAggregate> aggregate;
  GraphPattern where;
  /// GROUP BY on one variable: the aggregate is computed per value of
  /// this variable (unbound forms its own group), one answer row per
  /// group that has a solution, holding the variable and the aggregate.
  /// The parser admits it only with a COUNT aggregate and a projection
  /// of exactly this variable.
  std::optional<Variable> group_by;
  std::vector<OrderKey> order_by;
  std::optional<uint64_t> limit;
  std::optional<uint64_t> offset;

  /// Effective projection: the explicit list, or all pattern variables for
  /// SELECT * (sorted for determinism).
  std::vector<Variable> EffectiveProjection() const;

  /// How many rows of the WHERE pattern's answer suffice: offset+limit
  /// (saturating) for a SELECT with LIMIT and no ORDER BY, DISTINCT or
  /// aggregate, where any that many rows finish to a correct answer, so
  /// upstream operators may stop producing there. nullopt otherwise.
  /// OFFSET itself is never pushed: it is applied once, after the gather.
  std::optional<uint64_t> PushableRowLimit() const;
};

}  // namespace lusail::sparql

#endif  // LUSAIL_SPARQL_AST_H_

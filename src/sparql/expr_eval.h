#ifndef LUSAIL_SPARQL_EXPR_EVAL_H_
#define LUSAIL_SPARQL_EXPR_EVAL_H_

#include <functional>
#include <optional>
#include <string>

#include "rdf/term.h"
#include "sparql/ast.h"
#include "sparql/result_table.h"

namespace lusail::sparql {

/// Resolves a variable name to its bound term, or nullptr when unbound.
using VarLookup = std::function<const rdf::Term*(const std::string&)>;

/// Evaluates `expr` to a term value under SPARQL semantics. Returns
/// std::nullopt on a type error or unbound variable (SPARQL "error"
/// value); BOUND() is the only operator that observes unboundness
/// directly.
std::optional<rdf::Term> EvalExpr(const Expr& expr, const VarLookup& lookup);

/// Effective boolean value of `expr` under `lookup`. Errors coerce to
/// false, matching FILTER semantics.
bool EvalFilter(const Expr& expr, const VarLookup& lookup);

/// Total order over optional terms for ORDER BY: unbound < blank nodes <
/// IRIs < literals; numeric literals compare by value, everything else by
/// lexical form (SPARQL ordering semantics for the implemented subset).
int CompareForOrder(const std::optional<rdf::Term>& a,
                    const std::optional<rdf::Term>& b);

/// The same order over terms held elsewhere (a dictionary); nullptr is
/// unbound.
int CompareForOrder(const rdf::Term* a, const rdf::Term* b);

/// Stable-sorts `table`'s rows by the ORDER BY keys (variables resolved
/// by name; keys naming absent columns are ignored).
void SortRows(ResultTable* table, const std::vector<OrderKey>& keys);

}  // namespace lusail::sparql

#endif  // LUSAIL_SPARQL_EXPR_EVAL_H_

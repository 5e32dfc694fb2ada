#ifndef LUSAIL_SPARQL_EVALUATOR_H_
#define LUSAIL_SPARQL_EVALUATOR_H_

#include "common/cancel.h"
#include "common/status.h"
#include "sparql/ast.h"
#include "sparql/result_table.h"
#include "store/triple_store.h"

namespace lusail::sparql {

/// Executes parsed queries against one (frozen) TripleStore. This is the
/// query engine running *inside* each SPARQL endpoint; federated engines
/// never call it directly — they go through the endpoint's text-query
/// interface.
///
/// Evaluation strategy: selectivity-ordered index nested-loop joins over
/// the store's covering indexes for the basic graph pattern, with filters
/// pushed to the earliest step at which their variables are bound; then
/// UNION (seeded per partial solution), OPTIONAL (left outer join),
/// FILTER [NOT] EXISTS (correlated emptiness probe with early exit), and
/// remaining filters; finally DISTINCT / COUNT / LIMIT / OFFSET.
///
/// Each group's plan (join order, constants resolved to store ids,
/// variables to row slots, filter placement) is built once per group and
/// set of initially bound variables, so correlated groups that run once
/// per outer row reuse it. Plans live only for one Execute() call; the
/// evaluator itself holds no mutable state and may be shared by threads.
class Evaluator {
 public:
  /// The store must outlive the evaluator and be frozen.
  explicit Evaluator(const store::TripleStore* store) : store_(store) {}

  /// Runs a SELECT query and materializes the result table. ASK queries
  /// are also accepted (the table has zero columns and 0 or 1 rows).
  /// The token is polled every ~1k join iterations (amortized clock
  /// cost); once it fires, evaluation unwinds with kTimeout and no
  /// result rows are produced.
  Result<ResultTable> Execute(const Query& query,
                              const CancelToken& cancel = {}) const;

  /// Runs a query as ASK: true iff at least one solution exists. Stops at
  /// the first solution.
  Result<bool> Ask(const Query& query) const;

 private:
  const store::TripleStore* store_;
};

}  // namespace lusail::sparql

#endif  // LUSAIL_SPARQL_EVALUATOR_H_

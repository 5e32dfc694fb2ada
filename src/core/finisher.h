#ifndef LUSAIL_CORE_FINISHER_H_
#define LUSAIL_CORE_FINISHER_H_

#include "core/dictionary.h"
#include "core/id_table.h"
#include "sparql/ast.h"

namespace lusail::core {

/// The solution-modifier stage every federated engine and the shard
/// gather end with: turns the answer of the query's WHERE pattern into
/// the answer of the query, in ID space.
///
///   - ASK: no columns; one row when the pattern matched, else none.
///   - COUNT(*) / COUNT(?v) / COUNT(DISTINCT ?v): one row holding the
///     count, interned into `dict`; with GROUP BY ?g, one row per value
///     of ?g (holding ?g and the count), which ORDER BY and the window
///     then apply to.
///   - SELECT: projection, DISTINCT, ORDER BY, then the OFFSET/LIMIT
///     window.
///
/// SELECT follows the rules of sparql::Evaluator, the reference every
/// engine is tested against. DISTINCT dedups on the visible (projected)
/// columns only. ORDER BY keys outside the projection ride as hidden
/// columns (the sort reads them from `table` before projection), but
/// only when the query is not DISTINCT; under DISTINCT such keys are
/// ignored. ORDER BY with LIMIT keeps a bounded top-k of offset+limit
/// rows, ORDER BY without LIMIT sorts fully, and both keep ties in input
/// order. Only sort-key cells are looked up in `dict`; everything else
/// stays ids, so the caller decodes just the window.
IdTable FinishQuery(const sparql::Query& query, const IdTable& table,
                    TermDictionary* dict);

}  // namespace lusail::core

#endif  // LUSAIL_CORE_FINISHER_H_

#ifndef LUSAIL_SPARQL_EVALUATOR_H_
#define LUSAIL_SPARQL_EVALUATOR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "common/status.h"
#include "rdf/dictionary.h"
#include "sparql/ast.h"
#include "sparql/result_table.h"
#include "store/triple_store.h"

namespace lusail::sparql {

/// A query answer in store ids: one column of `num_rows` ids per
/// variable, rdf::kInvalidTermId marking an unbound cell. Ids below the
/// store dictionary's size are store terms; id `dict.size() + k` names
/// `foreign[k]`, a term the answer needed that the store never interned
/// (a COUNT value, a VALUES term). ASK answers have no variables and 0
/// or 1 rows.
struct IdAnswer {
  std::vector<std::string> vars;
  std::vector<std::vector<rdf::TermId>> columns;
  size_t num_rows = 0;
  std::vector<rdf::Term> foreign;
};

/// The id space of one IdAnswer as a TermSource: the store's dictionary,
/// kept alive by shared ownership so the answer may outlive the endpoint
/// that produced it, extended by the answer's foreign terms.
class AnswerTerms final : public rdf::TermSource {
 public:
  AnswerTerms(std::shared_ptr<const rdf::Dictionary> dict,
              std::vector<rdf::Term> foreign)
      : dict_(std::move(dict)), foreign_(std::move(foreign)) {}

  const rdf::Term& term(rdf::TermId id) const override {
    return id < dict_->size() ? dict_->term(id)
                              : foreign_[id - dict_->size()];
  }

  void TermBatch(const rdf::TermId* ids, size_t n,
                 const rdf::Term** out) const override {
    for (size_t i = 0; i < n; ++i) {
      out[i] = ids[i] == rdf::kInvalidTermId ? nullptr : &term(ids[i]);
    }
  }

  /// Store ids are stable; foreign ids belong to this answer alone.
  uint64_t stable_space() const override { return dict_->space(); }
  size_t stable_ids() const override { return dict_->size(); }

 private:
  std::shared_ptr<const rdf::Dictionary> dict_;
  std::vector<rdf::Term> foreign_;
};

/// Executes parsed queries against one (frozen) TripleStore. This is the
/// query engine running *inside* each SPARQL endpoint; federated engines
/// never call it directly — they go through the endpoint's text-query
/// interface.
///
/// Evaluation is batch-at-a-time over store ids. Partial solutions live
/// in flat, fixed-width id buffers of up to ~1k rows, one slot per query
/// variable. The basic graph pattern runs as selectivity-ordered index
/// nested-loop joins over the store's covering indexes: each step takes a
/// whole batch, probes the store once per run of rows sharing a probe
/// key, and hands its output on in batches, depth-first, so rows come out
/// in input order and then match order at each step, and LIMIT, ASK and
/// EXISTS stop as soon as they have their rows. Filters run after the
/// earliest step that binds their variables. UNION alternatives are
/// seeded with all partial solutions; OPTIONAL (left outer join) and
/// FILTER [NOT] EXISTS (emptiness probe) are evaluated once per batch of
/// outer rows, each row tagged so its matches stay grouped with it.
/// COUNT (optionally GROUP BY one variable) / DISTINCT / ORDER BY /
/// LIMIT / OFFSET finish on ids. A batched probe (sparql/probe.h) runs
/// branch by branch: an ASK branch stops at its first solution, and a
/// branch that is one clean triple pattern is one index lookup.
///
/// A group's plan (join order, constants resolved to store ids,
/// variables to row slots, filter placement) is built once per group and
/// set of variables bound on entry. Plans live only for one call; the
/// evaluator itself holds no mutable state and may be shared by threads.
class Evaluator {
 public:
  /// The store must outlive the evaluator and be frozen.
  explicit Evaluator(const store::TripleStore* store) : store_(store) {}

  /// Runs a SELECT or ASK query and returns the answer in store ids
  /// (what SparqlEndpoint ships). The token is polled once per batch and
  /// every ~1k index probes or matches; once it fires, evaluation
  /// unwinds with kTimeout and no answer is produced.
  Result<IdAnswer> ExecuteIds(const Query& query,
                              const CancelToken& cancel = {}) const;

  /// ExecuteIds decoded to terms. ASK answers are zero-column tables
  /// with 0 or 1 rows.
  Result<ResultTable> Execute(const Query& query,
                              const CancelToken& cancel = {}) const;

 private:
  const store::TripleStore* store_;
};

}  // namespace lusail::sparql

#endif  // LUSAIL_SPARQL_EVALUATOR_H_

#ifndef LUSAIL_SPARQL_PROBE_H_
#define LUSAIL_SPARQL_PROBE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "rdf/term.h"
#include "sparql/ast.h"
#include "sparql/result_table.h"

namespace lusail::sparql {

/// Probe requests: the ASK and COUNT queries a federator sends one per
/// (triple pattern, endpoint) pair to steer its plan. All of one
/// endpoint's probes of one phase travel as one standard SPARQL 1.1
/// query, each probe a UNION branch tagged by a VALUES binding of
/// ?__i to its index:
///
///   ASK:   SELECT DISTINCT ?__i WHERE {
///            { VALUES ?__i { 0 } b0 } UNION { VALUES ?__i { 1 } b1 } … }
///          A tag in the answer means that probe is true.
///   COUNT: SELECT ?__i (COUNT(*) AS ?c) WHERE {
///            { VALUES ?__i { 0 } b0 } UNION … } GROUP BY ?__i
///          A tag missing from the answer means a count of 0.
///
/// A batch of one probe is the plain probe, `ASK { b0 }` or
/// `SELECT (COUNT(*) AS ?c) WHERE { b0 }`.
enum class ProbeKind { kAsk, kCount };

/// The tag variable of a batched probe (without '?').
inline constexpr char kProbeTag[] = "__i";

/// A probe's group body: `tp . ` followed by `FILTER (f) ` per filter.
std::string ProbeBody(const TriplePattern& tp,
                      const std::vector<const Expr*>& filters = {});

/// The body of any group: GraphPatternToString without the outer
/// braces. Agrees with the overload above on a pattern plus filters.
std::string ProbeBody(const GraphPattern& group);

/// The request text for `bodies` (at least one), probe i tagged i.
std::string ProbeText(ProbeKind kind, const std::vector<std::string>& bodies);

/// One branch of a batched probe query, pointing into the query: its tag
/// and its group, whose only VALUES block is the one binding the tag.
/// The tag variable occurs nowhere else in the group, so the branch
/// body's answer does not depend on it.
struct ProbeBranch {
  const rdf::Term* tag = nullptr;
  const GraphPattern* group = nullptr;
};

/// A parsed batched probe query, as an endpoint sees it.
struct ProbeBatch {
  ProbeKind kind = ProbeKind::kAsk;
  std::string tag_var;
  std::string count_alias;  ///< COUNT only.
  std::vector<ProbeBranch> branches;
};

/// Recognizes the batched shape above (any tag variable, any tag terms,
/// at least two branches); nullopt for every other query. An endpoint
/// may answer a match branch by branch: ASK branches stop at their
/// first solution, COUNT branches count their own solutions. The result
/// points into `query`, which must outlive it.
std::optional<ProbeBatch> MatchProbeBatch(const Query& query);

/// Reads one cell of a probe answer: the term at (row, col), or null
/// when the cell is unbound.
using ProbeCellReader =
    std::function<const rdf::Term*(size_t row, size_t col)>;

/// Decodes the answer to ProbeText(kind, n bodies), `rows` rows over
/// `vars` whose cells `cell` reads, into one value per probe: 0 or 1 for
/// ASK, the count for COUNT. Reads only the tag and count cells. Errors
/// when a batched answer lacks its columns or carries a tag outside
/// [0, n).
Result<std::vector<uint64_t>> DecodeProbeAnswer(
    ProbeKind kind, const std::vector<std::string>& vars, size_t rows,
    const ProbeCellReader& cell, size_t n);

/// The same, over a string table.
Result<std::vector<uint64_t>> DecodeProbeAnswer(ProbeKind kind,
                                                const ResultTable& table,
                                                size_t n);

/// a + b, saturating at 2^64 - 1: counts summed over shards or branches.
inline uint64_t AddCounts(uint64_t a, uint64_t b) {
  return a > UINT64_MAX - b ? UINT64_MAX : a + b;
}

/// The xsd:integer literal of a count, exact over all of uint64
/// (Term::Integer takes an int64_t, so a saturated count would wrap
/// negative).
rdf::Term CountTerm(uint64_t count);

/// Parses a COUNT literal (a probe's or a shard member's answer) as an
/// exact unsigned integer. Plain decimal digit strings (the form every
/// real endpoint returns) are parsed directly so counts above 2^53 keep
/// full 64-bit precision — going through double would silently round
/// them. Non-integral numeric literals fall back to AsDouble with
/// saturation at uint64 max; negative and non-numeric literals parse as
/// 0.
uint64_t ParseCountLiteral(const rdf::Term& term);

}  // namespace lusail::sparql

#endif  // LUSAIL_SPARQL_PROBE_H_

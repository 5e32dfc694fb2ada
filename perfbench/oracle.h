#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "sparql/result_table.h"
#include "workload/federation_builder.h"

namespace perfbench {

/// What a correct federated answer to one query looks like, computed by
/// evaluating the query on a single store holding every endpoint's
/// triples (the union-graph oracle). Rows are kept as 64-bit hashes of
/// their variable->term bindings, so checking an answer allocates nothing
/// per cell.
struct Expectation {
  /// Sorted row hashes of the answer with LIMIT/OFFSET removed.
  std::vector<uint64_t> full_rows;
  /// Row count the answer must have (LIMIT/OFFSET applied).
  size_t expected_rows = 0;
  /// LIMIT or OFFSET present: any `expected_rows` rows of `full_rows`
  /// (as a sub-multiset) are a correct answer.
  bool windowed = false;
  /// ORDER BY present: the sequence of sort-key hashes the answer must
  /// reproduce. Rows that tie on the keys may come in any order, and a
  /// LIMIT may cut inside a tie, so keys, not rows, are compared in order.
  bool ordered = false;
  std::vector<std::string> order_vars;
  std::vector<uint64_t> keys;
};

/// Computes the Expectation of every query by loading every spec into one
/// store and evaluating the queries there. The store is freed on return.
lusail::Result<std::vector<Expectation>> ExpectAll(
    const std::vector<lusail::workload::EndpointSpec>& specs,
    const std::vector<std::string>& queries);

/// Checks a federated answer against its expectation. On mismatch returns
/// false and describes the first difference in `*why`.
bool MatchesExpectation(const Expectation& expected,
                        const lusail::sparql::ResultTable& got,
                        std::string* why);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_

#include "oracle.h"

#include <algorithm>
#include <functional>
#include <numeric>

#include "sparql/evaluator.h"
#include "sparql/parser.h"
#include "store/triple_store.h"

namespace perfbench {

namespace {

using lusail::sparql::ResultTable;

uint64_t Mix(uint64_t x) {
  // splitmix64 finalizer: spreads FNV-style hashes over all 64 bits so
  // the sums and combinations below do not collide on structured input.
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t CellHash(const ResultTable& table, size_t row, size_t col) {
  const auto& cell = table.rows[row][col];
  return cell.has_value() ? Mix(cell->Hash()) : 0x5bd1e995ULL;
}

/// Hash of a row's bindings, independent of column order: each
/// (variable, term) pair is hashed and the pairs are combined in
/// variable-name order.
std::vector<uint64_t> RowHashes(const ResultTable& table) {
  std::vector<size_t> order(table.vars.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return table.vars[a] < table.vars[b];
  });
  std::vector<uint64_t> var_hashes;
  for (size_t col : order) {
    var_hashes.push_back(Mix(std::hash<std::string>()(table.vars[col])));
  }
  std::vector<uint64_t> hashes;
  hashes.reserve(table.NumRows());
  for (size_t r = 0; r < table.NumRows(); ++r) {
    uint64_t h = 0;
    for (size_t k = 0; k < order.size(); ++k) {
      h = Mix(h ^ var_hashes[k] ^ CellHash(table, r, order[k]));
    }
    hashes.push_back(h);
  }
  return hashes;
}

/// Per-row hashes of the ORDER BY key tuple; false when a key variable is
/// not a column of `table`.
bool KeyHashes(const ResultTable& table, const std::vector<std::string>& vars,
               std::vector<uint64_t>* keys) {
  std::vector<size_t> cols;
  for (const std::string& v : vars) {
    auto it = std::find(table.vars.begin(), table.vars.end(), v);
    if (it == table.vars.end()) return false;
    cols.push_back(static_cast<size_t>(it - table.vars.begin()));
  }
  keys->clear();
  for (size_t r = 0; r < table.NumRows(); ++r) {
    uint64_t h = 0;
    for (size_t col : cols) h = Mix(h ^ CellHash(table, r, col));
    keys->push_back(h);
  }
  return true;
}

/// Evaluates one query on the union store.
lusail::Result<Expectation> Expect(const lusail::store::TripleStore& store,
                                   const std::string& query_text) {
  LUSAIL_ASSIGN_OR_RETURN(lusail::sparql::Query query,
                          lusail::sparql::ParseQuery(query_text));
  lusail::sparql::Evaluator evaluator(&store);
  LUSAIL_ASSIGN_OR_RETURN(ResultTable answer, evaluator.Execute(query));

  Expectation out;
  out.expected_rows = answer.NumRows();
  out.windowed = query.limit.has_value() || query.offset.has_value();
  if (out.windowed) {
    lusail::sparql::Query full = query;
    full.limit.reset();
    full.offset.reset();
    LUSAIL_ASSIGN_OR_RETURN(ResultTable all, evaluator.Execute(full));
    out.full_rows = RowHashes(all);
  } else {
    out.full_rows = RowHashes(answer);
  }
  std::sort(out.full_rows.begin(), out.full_rows.end());
  if (!query.order_by.empty()) {
    out.ordered = true;
    for (const auto& key : query.order_by) {
      out.order_vars.push_back(key.var.name);
    }
    if (!KeyHashes(answer, out.order_vars, &out.keys)) {
      return lusail::Status::InvalidArgument(
          "ORDER BY key outside the projection; the oracle cannot compare "
          "key sequences for this query");
    }
  }
  return out;
}

}  // namespace

lusail::Result<std::vector<Expectation>> ExpectAll(
    const std::vector<lusail::workload::EndpointSpec>& specs,
    const std::vector<std::string>& queries) {
  lusail::store::TripleStore store;
  for (const auto& spec : specs) {
    for (const auto& triple : spec.triples) store.Add(triple);
  }
  store.Freeze();
  std::vector<Expectation> out;
  for (const std::string& text : queries) {
    LUSAIL_ASSIGN_OR_RETURN(Expectation e, Expect(store, text));
    out.push_back(std::move(e));
  }
  return out;
}

bool MatchesExpectation(const Expectation& expected, const ResultTable& got,
                        std::string* why) {
  if (got.NumRows() != expected.expected_rows) {
    *why = "expected " + std::to_string(expected.expected_rows) +
           " rows, got " + std::to_string(got.NumRows());
    return false;
  }
  std::vector<uint64_t> rows = RowHashes(got);
  std::sort(rows.begin(), rows.end());
  bool rows_ok =
      expected.windowed
          ? std::includes(expected.full_rows.begin(), expected.full_rows.end(),
                          rows.begin(), rows.end())
          : rows == expected.full_rows;
  if (!rows_ok) {
    *why = expected.windowed ? "a row is not in the oracle's answer"
                             : "row multiset differs from the oracle's";
    return false;
  }
  if (expected.ordered) {
    std::vector<uint64_t> keys;
    if (!KeyHashes(got, expected.order_vars, &keys) || keys != expected.keys) {
      *why = "ORDER BY key sequence differs from the oracle's";
      return false;
    }
  }
  return true;
}

}  // namespace perfbench

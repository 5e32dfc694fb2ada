#include "core/finisher.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>
#include <unordered_set>

#include "sparql/expr_eval.h"

namespace lusail::core {

namespace {

IdTable FinishCount(const sparql::CountAggregate& agg, const IdTable& table,
                    TermDictionary* dict) {
  uint64_t count = 0;
  const int idx = agg.var.has_value() ? table.VarIndex(agg.var->name) : -1;
  if (!agg.var.has_value()) {
    count = table.NumRows();
  } else if (idx >= 0) {
    const std::vector<rdf::TermId>& col =
        table.Column(static_cast<size_t>(idx));
    if (agg.distinct) {
      std::unordered_set<rdf::TermId> seen;
      for (rdf::TermId id : col) {
        if (id != rdf::kInvalidTermId) seen.insert(id);
      }
      count = seen.size();
    } else {
      for (rdf::TermId id : col) count += id != rdf::kInvalidTermId;
    }
  }
  IdTable out({agg.alias.name});
  out.AppendRow(
      {dict->Intern(rdf::Term::Integer(static_cast<int64_t>(count)))});
  return out;
}

/// The first `k` rows of `table` in ORDER BY order. Keys naming no column
/// are ignored, as sparql::SortRows ignores them. Each sort-key cell is
/// looked up in `dict` once; comparisons then read terms by pointer, and
/// a row-index tiebreak keeps ties in input order.
std::vector<uint32_t> OrderedRows(const IdTable& table,
                                  const std::vector<sparql::OrderKey>& keys,
                                  const TermDictionary& dict, size_t k) {
  const size_t n = table.NumRows();
  struct KeyColumn {
    std::vector<const rdf::Term*> terms;
    bool descending;
  };
  std::vector<KeyColumn> columns;
  for (const sparql::OrderKey& key : keys) {
    int idx = table.VarIndex(key.var.name);
    if (idx < 0) continue;
    KeyColumn column{std::vector<const rdf::Term*>(n, nullptr),
                     key.descending};
    const std::vector<rdf::TermId>& ids =
        table.Column(static_cast<size_t>(idx));
    for (size_t r = 0; r < ids.size(); ++r) {
      if (ids[r] != rdf::kInvalidTermId) column.terms[r] = &dict.term(ids[r]);
    }
    columns.push_back(std::move(column));
  }
  auto before = [&columns](uint32_t a, uint32_t b) {
    for (const KeyColumn& column : columns) {
      int c = sparql::CompareForOrder(column.terms[a], column.terms[b]);
      if (c != 0) return column.descending ? c > 0 : c < 0;
    }
    return a < b;
  };

  std::vector<uint32_t> rows;
  if (k == 0) return rows;
  if (k >= n) {
    rows.resize(n);
    std::iota(rows.begin(), rows.end(), 0u);
    std::sort(rows.begin(), rows.end(), before);
    return rows;
  }
  // Bounded top-k: a heap of the best k rows seen so far, worst on top.
  rows.reserve(k);
  for (uint32_t r = 0; r < n; ++r) {
    if (rows.size() < k) {
      rows.push_back(r);
      std::push_heap(rows.begin(), rows.end(), before);
    } else if (before(r, rows.front())) {
      std::pop_heap(rows.begin(), rows.end(), before);
      rows.back() = r;
      std::push_heap(rows.begin(), rows.end(), before);
    }
  }
  std::sort_heap(rows.begin(), rows.end(), before);
  return rows;
}

/// GROUP BY `key` with a COUNT aggregate: one row per group, in order
/// of first appearance, holding the key and the count. An unbound key
/// (or a key naming no column) forms its own group.
IdTable GroupCounts(const sparql::CountAggregate& agg,
                    const sparql::Variable& key, const IdTable& table,
                    TermDictionary* dict) {
  const int key_idx = table.VarIndex(key.name);
  const int var_idx = agg.var.has_value() ? table.VarIndex(agg.var->name) : -1;
  std::unordered_map<rdf::TermId, size_t> group_of;
  std::vector<rdf::TermId> keys;
  std::vector<uint64_t> counts;
  std::vector<std::unordered_set<rdf::TermId>> seen;
  for (size_t r = 0; r < table.NumRows(); ++r) {
    const rdf::TermId k = key_idx >= 0
                              ? table.At(r, static_cast<size_t>(key_idx))
                              : rdf::kInvalidTermId;
    auto [it, inserted] = group_of.try_emplace(k, keys.size());
    if (inserted) {
      keys.push_back(k);
      counts.push_back(0);
      if (agg.distinct) seen.emplace_back();
    }
    const size_t g = it->second;
    if (!agg.var.has_value()) {
      ++counts[g];
      continue;
    }
    const rdf::TermId v = var_idx >= 0
                              ? table.At(r, static_cast<size_t>(var_idx))
                              : rdf::kInvalidTermId;
    if (v == rdf::kInvalidTermId) continue;
    if (agg.distinct) {
      seen[g].insert(v);
    } else {
      ++counts[g];
    }
  }
  IdTable out({key.name, agg.alias.name});
  for (size_t g = 0; g < keys.size(); ++g) {
    const uint64_t count = agg.distinct ? seen[g].size() : counts[g];
    out.AppendRow({keys[g], dict->Intern(rdf::Term::Integer(
                                static_cast<int64_t>(count)))});
  }
  return out;
}

/// Projection to `visible`, DISTINCT, ORDER BY and the OFFSET/LIMIT
/// window.
IdTable FinishSelect(const sparql::Query& query, const IdTable& table,
                     const std::vector<std::string>& visible,
                     const TermDictionary& dict) {
  // Under DISTINCT the rows are the deduped visible tuples, so a sort key
  // outside the projection finds no column; otherwise the rows are the
  // pattern's own, and every sort key is there to read.
  IdTable deduped;
  if (query.distinct) deduped = ProjectIds(table, visible, true);
  const IdTable& rows = query.distinct ? deduped : table;

  const size_t n = rows.NumRows();
  const size_t begin =
      static_cast<size_t>(std::min<uint64_t>(query.offset.value_or(0), n));
  const size_t end =
      begin + static_cast<size_t>(std::min<uint64_t>(
                  query.limit.value_or(n - begin), n - begin));
  if (query.order_by.empty() && begin == 0 && end == n) {
    return query.distinct ? std::move(deduped)
                          : ProjectIds(table, visible, false);
  }
  std::vector<uint32_t> window;
  if (query.order_by.empty()) {
    window.resize(end - begin);
    std::iota(window.begin(), window.end(), static_cast<uint32_t>(begin));
  } else if (begin < end) {
    window = OrderedRows(rows, query.order_by, dict, end);
    window.erase(window.begin(), window.begin() + begin);
  }
  return GatherRows(rows, visible, window);
}

}  // namespace

IdTable FinishQuery(const sparql::Query& query, const IdTable& table,
                    TermDictionary* dict) {
  if (query.form == sparql::QueryForm::kAsk) {
    IdTable out;
    if (table.NumRows() > 0) out.AddEmptyRows(1);
    return out;
  }
  std::vector<std::string> visible;
  for (const sparql::Variable& v : query.EffectiveProjection()) {
    visible.push_back(v.name);
  }
  if (query.group_by.has_value()) {
    // The groups are the rows the modifiers run on.
    visible.push_back(query.aggregate->alias.name);
    return FinishSelect(
        query, GroupCounts(*query.aggregate, *query.group_by, table, dict),
        visible, *dict);
  }
  if (query.aggregate.has_value()) {
    return FinishCount(*query.aggregate, table, dict);
  }
  return FinishSelect(query, table, visible, *dict);
}

}  // namespace lusail::core

#include "core/id_table.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <limits>
#include <unordered_map>
#include <unordered_set>

#include "common/stopwatch.h"
#include "sparql/expr_eval.h"

namespace lusail::core {

namespace {

/// FNV-style hash of a join-key id vector.
struct IdRowHash {
  size_t operator()(const std::vector<rdf::TermId>& row) const {
    size_t h = 1469598103934665603ULL;
    for (rdf::TermId id : row) {
      h ^= id + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    }
    return h;
  }
};

const std::vector<rdf::TermId>& EmptyColumn() {
  static const std::vector<rdf::TermId> empty;
  return empty;
}

}  // namespace

int IdTable::VarIndex(const std::string& var) const {
  for (size_t i = 0; i < vars.size(); ++i) {
    if (vars[i] == var) return static_cast<int>(i);
  }
  return -1;
}

std::vector<std::string> IdTable::SharedVars(const IdTable& a,
                                             const IdTable& b) {
  std::vector<std::string> shared;
  for (const std::string& v : a.vars) {
    if (b.VarIndex(v) >= 0) shared.push_back(v);
  }
  return shared;
}

void IdTable::SyncColumns() {
  while (cols_.size() < vars.size()) {
    cols_.emplace_back(num_rows_, rdf::kInvalidTermId);
  }
}

void IdTable::Set(size_t row, size_t col, rdf::TermId id) {
  SyncColumns();
  cols_[col][row] = id;
}

void IdTable::AppendRow(const std::vector<rdf::TermId>& row) {
  SyncColumns();
  for (size_t c = 0; c < cols_.size(); ++c) {
    cols_[c].push_back(c < row.size() ? row[c] : rdf::kInvalidTermId);
  }
  ++num_rows_;
}

void IdTable::AddEmptyRows(size_t n) {
  SyncColumns();
  for (auto& col : cols_) col.resize(num_rows_ + n, rdf::kInvalidTermId);
  num_rows_ += n;
}

std::vector<rdf::TermId> IdTable::Row(size_t row) const {
  std::vector<rdf::TermId> out(vars.size(), rdf::kInvalidTermId);
  for (size_t c = 0; c < cols_.size() && c < out.size(); ++c) {
    out[c] = cols_[c][row];
  }
  return out;
}

const std::vector<rdf::TermId>& IdTable::Column(size_t col) const {
  return col < cols_.size() ? cols_[col] : EmptyColumn();
}

std::vector<rdf::TermId>* IdTable::MutableColumn(size_t col) {
  SyncColumns();
  return &cols_[col];
}

void IdTable::Reserve(size_t rows) {
  SyncColumns();
  for (auto& col : cols_) col.reserve(rows);
}

void IdTable::Clear() {
  for (auto& col : cols_) col.clear();
  num_rows_ = 0;
}

IdTable IdTable::SelectRows(const std::vector<uint32_t>& rows) const {
  std::vector<std::vector<rdf::TermId>> cols(vars.size());
  for (size_t c = 0; c < vars.size(); ++c) {
    if (c >= cols_.size()) continue;  // Missing column: all-unbound.
    const std::vector<rdf::TermId>& src = cols_[c];
    std::vector<rdf::TermId>& dst = cols[c];
    dst.resize(rows.size());
    for (size_t k = 0; k < rows.size(); ++k) dst[k] = src[rows[k]];
  }
  return FromColumns(vars, std::move(cols), rows.size());
}

IdTable IdTable::Slice(size_t begin, size_t end) const {
  begin = std::min(begin, num_rows_);
  end = std::min(std::max(end, begin), num_rows_);
  std::vector<std::vector<rdf::TermId>> cols(vars.size());
  for (size_t c = 0; c < vars.size(); ++c) {
    if (c >= cols_.size()) continue;
    cols[c].assign(cols_[c].begin() + begin, cols_[c].begin() + end);
  }
  return FromColumns(vars, std::move(cols), end - begin);
}

void IdTable::Append(const IdTable& other) {
  SyncColumns();
  for (size_t c = 0; c < cols_.size(); ++c) {
    const std::vector<rdf::TermId>& src = other.Column(c);
    if (src.empty()) {
      cols_[c].resize(num_rows_ + other.num_rows_, rdf::kInvalidTermId);
    } else {
      cols_[c].insert(cols_[c].end(), src.begin(), src.end());
    }
  }
  num_rows_ += other.num_rows_;
}

IdTable IdTable::FromColumns(std::vector<std::string> names,
                             std::vector<std::vector<rdf::TermId>> cols,
                             size_t num_rows) {
  IdTable out(std::move(names));
  cols.resize(out.vars.size());
  for (auto& col : cols) {
    if (col.empty() && num_rows > 0) col.assign(num_rows, rdf::kInvalidTermId);
  }
  out.cols_ = std::move(cols);
  out.num_rows_ = num_rows;
  return out;
}

IdTable JoinIds(const IdTable& left, const IdTable& right, bool left_outer) {
  std::vector<std::string> shared = IdTable::SharedVars(left, right);
  std::vector<int> shared_left, shared_right, right_only;
  std::vector<std::string> out_vars = left.vars;
  for (const std::string& v : shared) {
    shared_left.push_back(left.VarIndex(v));
    shared_right.push_back(right.VarIndex(v));
  }
  for (size_t i = 0; i < right.vars.size(); ++i) {
    if (std::find(shared.begin(), shared.end(), right.vars[i]) ==
        shared.end()) {
      right_only.push_back(static_cast<int>(i));
      out_vars.push_back(right.vars[i]);
    }
  }
  const size_t ln = left.NumRows();
  const size_t rn = right.NumRows();

  // Which right shared column backfills left column `c` when the left
  // cell is unbound (compatibility-join output prefers the bound side).
  std::vector<int> backfill(left.NumVars(), -1);
  for (size_t i = 0; i < shared_left.size(); ++i) {
    backfill[shared_left[i]] = shared_right[i];
  }

  auto compatible = [&](size_t l, size_t r) {
    for (size_t i = 0; i < shared_left.size(); ++i) {
      rdf::TermId a = left.At(l, shared_left[i]);
      rdf::TermId b = right.At(r, shared_right[i]);
      if (a != rdf::kInvalidTermId && b != rdf::kInvalidTermId && a != b) {
        return false;
      }
    }
    return true;
  };

  // Pass 1: find the matching row pairs and the unmatched left rows. An
  // inner join hashes the smaller side and probes with the other, so
  // pairs come in probe-side order; OPTIONAL always probes with the left
  // side, whose misses it keeps. Only key columns are touched here; the
  // non-key payload columns are never read until the gather pass below.
  const bool build_left = !left_outer && ln < rn;
  const IdTable& build = build_left ? left : right;
  const IdTable& probe = build_left ? right : left;
  const std::vector<int>& build_keys = build_left ? shared_left : shared_right;
  const std::vector<int>& probe_keys = build_left ? shared_right : shared_left;
  // Matched pairs: probe_rows[k] joins build_rows[k].
  std::vector<uint32_t> probe_rows, build_rows;
  std::vector<uint32_t> unmatched;
  auto emit = [&](size_t p, size_t b) {
    probe_rows.push_back(static_cast<uint32_t>(p));
    build_rows.push_back(static_cast<uint32_t>(b));
  };
  // Emits the pair when the rows are compatible (unbound key cells).
  auto try_match = [&](size_t p, size_t b) {
    if (!(build_left ? compatible(b, p) : compatible(p, b))) return false;
    emit(p, b);
    return true;
  };
  auto key_of = [](const IdTable& t, size_t row, const std::vector<int>& cols,
                   std::vector<rdf::TermId>* key) {
    key->clear();
    for (int idx : cols) {
      rdf::TermId id = t.At(row, idx);
      if (id == rdf::kInvalidTermId) return false;
      key->push_back(id);
    }
    return true;
  };
  if (ln != 0 && (rn != 0 || left_outer)) {
    std::unordered_map<std::vector<rdf::TermId>, std::vector<uint32_t>,
                       IdRowHash>
        hash_index;
    std::vector<uint32_t> build_wildcards;
    std::vector<rdf::TermId> key;
    for (size_t b = 0; b < build.NumRows(); ++b) {
      if (key_of(build, b, build_keys, &key)) {
        hash_index[key].push_back(static_cast<uint32_t>(b));
      } else {
        build_wildcards.push_back(static_cast<uint32_t>(b));
      }
    }
    for (size_t p = 0; p < probe.NumRows(); ++p) {
      bool matched = false;
      if (key_of(probe, p, probe_keys, &key)) {
        auto it = hash_index.find(key);
        if (it != hash_index.end()) {
          for (uint32_t b : it->second) emit(p, b);
          matched = true;
        }
        for (uint32_t b : build_wildcards) matched |= try_match(p, b);
      } else {
        // Probe row has an unbound shared var: scan everything.
        for (size_t b = 0; b < build.NumRows(); ++b) {
          matched |= try_match(p, b);
        }
      }
      if (left_outer && !matched) unmatched.push_back(static_cast<uint32_t>(p));
    }
  }

  // Pass 2: materialize with one gather per output column. Matched rows
  // first, then (for OPTIONAL) the unmatched lefts padded unbound.
  const std::vector<uint32_t>& left_rows = build_left ? build_rows : probe_rows;
  const std::vector<uint32_t>& right_rows =
      build_left ? probe_rows : build_rows;
  const size_t matched = left_rows.size();
  const size_t total = matched + unmatched.size();
  std::vector<std::vector<rdf::TermId>> cols(out_vars.size());
  for (size_t c = 0; c < left.NumVars(); ++c) {
    std::vector<rdf::TermId>& dst = cols[c];
    dst.resize(total);
    const std::vector<rdf::TermId>& lc = left.Column(c);
    const int br = backfill[c];
    const std::vector<rdf::TermId>& rc =
        br >= 0 ? right.Column(br) : EmptyColumn();
    for (size_t k = 0; k < matched; ++k) {
      rdf::TermId v = lc.empty() ? rdf::kInvalidTermId : lc[left_rows[k]];
      if (v == rdf::kInvalidTermId && !rc.empty()) v = rc[right_rows[k]];
      dst[k] = v;
    }
    for (size_t k = 0; k < unmatched.size(); ++k) {
      dst[matched + k] = lc.empty() ? rdf::kInvalidTermId : lc[unmatched[k]];
    }
  }
  for (size_t m = 0; m < right_only.size(); ++m) {
    std::vector<rdf::TermId>& dst = cols[left.NumVars() + m];
    dst.resize(total, rdf::kInvalidTermId);
    const std::vector<rdf::TermId>& rc = right.Column(right_only[m]);
    if (!rc.empty()) {
      for (size_t k = 0; k < matched; ++k) dst[k] = rc[right_rows[k]];
    }
  }
  return IdTable::FromColumns(std::move(out_vars), std::move(cols), total);
}

void AppendUnionIds(IdTable* dst, const IdTable& src) {
  if (dst->NumVars() == 0 && dst->NumRows() == 0) {
    *dst = src;
    return;
  }
  const size_t old_rows = dst->NumRows();
  dst->AddEmptyRows(src.NumRows());
  for (size_t i = 0; i < src.NumVars(); ++i) {
    int idx = dst->VarIndex(src.vars[i]);
    if (idx < 0) {
      idx = static_cast<int>(dst->vars.size());
      dst->vars.push_back(src.vars[i]);
    }
    const std::vector<rdf::TermId>& sc = src.Column(i);
    if (sc.empty()) continue;  // All-unbound: the padding already says so.
    std::vector<rdf::TermId>* dc = dst->MutableColumn(idx);
    std::copy(sc.begin(), sc.end(), dc->begin() + old_rows);
  }
}

IdTable ProjectIds(const IdTable& table, const std::vector<std::string>& vars,
                   bool distinct) {
  std::vector<int> idx;
  idx.reserve(vars.size());
  for (const std::string& v : vars) idx.push_back(table.VarIndex(v));
  const size_t n = table.NumRows();
  if (!distinct) {
    std::vector<std::vector<rdf::TermId>> cols(vars.size());
    for (size_t c = 0; c < idx.size(); ++c) {
      if (idx[c] < 0) continue;
      const std::vector<rdf::TermId>& src = table.Column(idx[c]);
      if (!src.empty()) cols[c] = src;
    }
    return IdTable::FromColumns(vars, std::move(cols), n);
  }
  std::unordered_set<std::vector<rdf::TermId>, IdRowHash> seen;
  std::vector<uint32_t> kept;
  std::vector<rdf::TermId> key(vars.size());
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < idx.size(); ++c) {
      key[c] = idx[c] >= 0 ? table.At(r, idx[c]) : rdf::kInvalidTermId;
    }
    if (seen.insert(key).second) kept.push_back(static_cast<uint32_t>(r));
  }
  return GatherRows(table, vars, kept);
}

IdTable GatherRows(const IdTable& table, const std::vector<std::string>& vars,
                   const std::vector<uint32_t>& rows) {
  std::vector<std::vector<rdf::TermId>> cols(vars.size());
  for (size_t c = 0; c < vars.size(); ++c) {
    int idx = table.VarIndex(vars[c]);
    if (idx < 0) continue;
    const std::vector<rdf::TermId>& src = table.Column(idx);
    if (src.empty()) continue;
    cols[c].resize(rows.size());
    for (size_t k = 0; k < rows.size(); ++k) cols[c][k] = src[rows[k]];
  }
  return IdTable::FromColumns(vars, std::move(cols), rows.size());
}

void FilterIds(IdTable* table, const sparql::Expr& filter,
               const TermDictionary& dict) {
  std::vector<uint32_t> kept;
  kept.reserve(table->NumRows());
  for (size_t r = 0; r < table->NumRows(); ++r) {
    // Dictionary references are stable, so the lookup hands out the
    // interned term directly — no per-row decode copies.
    auto lookup = [&](const std::string& name) -> const rdf::Term* {
      int idx = table->VarIndex(name);
      if (idx < 0) return nullptr;
      rdf::TermId id = table->At(r, idx);
      if (id == rdf::kInvalidTermId) return nullptr;
      return &dict.term(id);
    };
    if (sparql::EvalFilter(filter, lookup)) {
      kept.push_back(static_cast<uint32_t>(r));
    }
  }
  if (kept.size() != table->NumRows()) *table = table->SelectRows(kept);
}

IdTable EncodeResultTable(const sparql::ResultTable& table,
                          TermDictionary* dict) {
  Stopwatch timer;
  const size_t n = table.rows.size();
  std::vector<std::vector<rdf::TermId>> cols(table.vars.size());
  std::vector<const rdf::Term*> cells(n);
  for (size_t c = 0; c < cols.size(); ++c) {
    for (size_t r = 0; r < n; ++r) {
      const auto& row = table.rows[r];
      cells[r] = c < row.size() && row[c].has_value() ? &*row[c] : nullptr;
    }
    cols[c].resize(n);
    dict->InternBatch(cells.data(), n, cols[c].data());
  }
  dict->AddEncodeBatch(timer.ElapsedMillis() / 1e3,
                       static_cast<uint64_t>(n * table.vars.size()));
  return IdTable::FromColumns(table.vars, std::move(cols), n);
}

sparql::ResultTable DecodeIdTable(const IdTable& table,
                                  const rdf::TermSource& terms) {
  Stopwatch timer;
  const size_t n = table.NumRows();
  sparql::ResultTable out;
  out.vars = table.vars;
  out.rows.assign(n, std::vector<std::optional<rdf::Term>>(table.NumVars()));
  std::vector<const rdf::Term*> cells(n);
  for (size_t c = 0; c < table.NumVars(); ++c) {
    const std::vector<rdf::TermId>& ids = table.Column(c);
    if (ids.empty()) continue;  // All-unbound column.
    terms.TermBatch(ids.data(), n, cells.data());
    for (size_t r = 0; r < n; ++r) {
      if (cells[r] != nullptr) out.rows[r][c] = *cells[r];
    }
  }
  terms.AddDecodeBatch(timer.ElapsedMillis() / 1e3,
                       static_cast<uint64_t>(n * table.NumVars()));
  return out;
}

Result<std::vector<uint64_t>> DecodeProbeIds(sparql::ProbeKind kind,
                                             const IdTable& table,
                                             const rdf::TermSource& terms,
                                             size_t n) {
  return sparql::DecodeProbeAnswer(
      kind, table.vars, table.NumRows(),
      [&table, &terms](size_t row, size_t col) -> const rdf::Term* {
        const rdf::TermId id = table.At(row, col);
        return id == rdf::kInvalidTermId ? nullptr : &terms.term(id);
      },
      n);
}

IdTable TranslateIds(const IdTable& table, const rdf::TermSource& terms,
                     TermDictionary* dict) {
  Stopwatch timer;
  const size_t n = table.NumRows();
  // Ids of a stable space are translated once per dictionary: the memo
  // answers every id some earlier response already brought in.
  size_t memo_size = 0;
  std::atomic<rdf::TermId>* memo =
      terms.stable_space() != 0
          ? dict->TranslationMemo(terms.stable_space(), terms.stable_ids(),
                                  &memo_size)
          : nullptr;
  // Pass 1: translated cells take their id; the others are numbered in
  // first-occurrence order, column by column, through a per-table map
  // (open addressing over source ids, at most half full), and hold
  // kPending | number until pass 2.
  constexpr rdf::TermId kPending = rdf::TermId{1} << 63;
  struct Slot {
    rdf::TermId id;
    uint32_t index;
  };
  constexpr uint32_t kEmpty = std::numeric_limits<uint32_t>::max();
  std::vector<Slot> local(64, Slot{0, kEmpty});
  std::vector<rdf::TermId> distinct;
  auto number = [&](rdf::TermId id) {
    size_t mask = local.size() - 1;
    size_t i = (id * 0x9e3779b97f4a7c15ULL) >> 32 & mask;
    for (; local[i].index != kEmpty; i = (i + 1) & mask) {
      if (local[i].id == id) return local[i].index;
    }
    const uint32_t index = static_cast<uint32_t>(distinct.size());
    local[i] = Slot{id, index};
    distinct.push_back(id);
    if (2 * distinct.size() > local.size()) {
      std::vector<Slot> old(2 * local.size(), Slot{0, kEmpty});
      old.swap(local);
      mask = local.size() - 1;
      for (const Slot& slot : old) {
        if (slot.index == kEmpty) continue;
        size_t j = (slot.id * 0x9e3779b97f4a7c15ULL) >> 32 & mask;
        while (local[j].index != kEmpty) j = (j + 1) & mask;
        local[j] = slot;
      }
    }
    return index;
  };
  std::vector<std::vector<rdf::TermId>> cols(table.NumVars());
  for (size_t c = 0; c < cols.size(); ++c) {
    const std::vector<rdf::TermId>& ids = table.Column(c);
    if (ids.empty()) continue;  // All-unbound column.
    cols[c].resize(n);
    for (size_t r = 0; r < n; ++r) {
      const rdf::TermId id = ids[r];
      rdf::TermId out = rdf::kInvalidTermId;
      if (id != rdf::kInvalidTermId) {
        if (id < memo_size) out = memo[id].load(std::memory_order_relaxed);
        if (out == rdf::kInvalidTermId) out = kPending | number(id);
      }
      cols[c][r] = out;
    }
  }
  // Pass 2: resolve and intern each new term once, remember stable ids,
  // then fill in the pending cells.
  if (!distinct.empty()) {
    std::vector<const rdf::Term*> cells(distinct.size());
    terms.TermBatch(distinct.data(), distinct.size(), cells.data());
    std::vector<rdf::TermId> mapped(distinct.size());
    dict->InternBatch(cells.data(), cells.size(), mapped.data());
    for (size_t k = 0; k < distinct.size(); ++k) {
      if (distinct[k] < memo_size) {
        memo[distinct[k]].store(mapped[k], std::memory_order_relaxed);
      }
    }
    for (std::vector<rdf::TermId>& col : cols) {
      for (rdf::TermId& cell : col) {
        if (cell != rdf::kInvalidTermId && (cell & kPending) != 0) {
          cell = mapped[cell & ~kPending];
        }
      }
    }
  }
  dict->AddEncodeBatch(timer.ElapsedMillis() / 1e3,
                       static_cast<uint64_t>(n * table.NumVars()));
  return IdTable::FromColumns(table.vars, std::move(cols), n);
}

size_t SerializedBytes(const IdTable& table, const rdf::TermSource& terms) {
  const size_t n = table.NumRows();
  size_t bytes = n;  // Row terminators.
  for (const std::string& v : table.vars) bytes += v.size() + 2;
  for (size_t c = 0; c < table.NumVars(); ++c) {
    const std::vector<rdf::TermId>& ids = table.Column(c);
    if (ids.empty()) {
      bytes += n;  // All-unbound column.
      continue;
    }
    for (rdf::TermId id : ids) {
      bytes += 1;  // Separator.
      if (id != rdf::kInvalidTermId) bytes += terms.term(id).SerializedSize();
    }
  }
  return bytes;
}

std::string FingerprintIdBindings(const std::string& var,
                                  const TermDictionary& dict,
                                  const rdf::TermId* ids, size_t count) {
  // 128 bits of FNV-1a (two independent offset bases): collisions would
  // silently serve wrong cached rows, so 64 bits is not enough.
  uint64_t h1 = 14695981039346656037ull;
  uint64_t h2 = 10650232656628343401ull;
  auto mix = [&](const unsigned char* bytes, size_t len) {
    for (size_t i = 0; i < len; ++i) {
      h1 = (h1 ^ bytes[i]) * 1099511628211ull;
      h2 = (h2 ^ bytes[i]) * 1099511628211ull;
    }
  };
  mix(reinterpret_cast<const unsigned char*>(var.data()), var.size());
  for (size_t i = 0; i < count; ++i) {
    uint64_t content = dict.content_hash(ids[i]);
    mix(reinterpret_cast<const unsigned char*>(&content), sizeof(content));
  }
  char buf[33];
  std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                static_cast<unsigned long long>(h1),
                static_cast<unsigned long long>(h2));
  return std::string(buf);
}

}  // namespace lusail::core

#include "core/hash_join.h"

#include <algorithm>
#include <future>

namespace lusail::core {

namespace {

size_t KeyHash(const IdTable& table, size_t row,
               const std::vector<int>& key_cols) {
  size_t h = 1469598103934665603ULL;
  for (int c : key_cols) {
    h ^= table.At(row, static_cast<size_t>(c)) + 0x9e3779b97f4a7c15ULL +
         (h << 6) + (h >> 2);
  }
  return h;
}

}  // namespace

/// Used when the sides share no variable (no key to hash-partition on).
IdTable ParallelCartesian(const IdTable& left,
                          const IdTable& right,
                          ThreadPool* pool, size_t partitions,
                          const CancelToken* cancel) {
  std::vector<std::string> out_vars = left.vars;
  out_vars.insert(out_vars.end(), right.vars.begin(), right.vars.end());
  if (left.NumRows() == 0 || right.NumRows() == 0) {
    return IdTable(std::move(out_vars));
  }

  const size_t ln = left.NumRows();
  const size_t rn = right.NumRows();
  const size_t chunk = (ln + partitions - 1) / partitions;
  // Each worker builds its chunk's columns directly: left columns repeat
  // each value rn times, right columns tile whole column copies — block
  // appends instead of the old per-row vector allocations. The token is
  // polled between blocks (a block is one column copy, microseconds even
  // at bench sizes), and a cancelled worker returns an empty table the
  // drain below discards anyway.
  auto cross_chunk = [&left, &right, &out_vars, rn,
                      cancel](size_t begin, size_t end) -> IdTable {
    const size_t out_n = (end - begin) * rn;
    std::vector<std::vector<rdf::TermId>> cols(out_vars.size());
    for (size_t c = 0; c < left.NumVars(); ++c) {
      const std::vector<rdf::TermId>& lc = left.Column(c);
      std::vector<rdf::TermId>& dst = cols[c];
      dst.reserve(out_n);
      for (size_t i = begin; i < end; ++i) {
        if (cancel != nullptr && cancel->Cancelled()) {
          return IdTable{};
        }
        dst.insert(dst.end(), rn,
                   lc.empty() ? rdf::kInvalidTermId : lc[i]);
      }
    }
    for (size_t c = 0; c < right.NumVars(); ++c) {
      const std::vector<rdf::TermId>& rc = right.Column(c);
      std::vector<rdf::TermId>& dst = cols[left.NumVars() + c];
      dst.reserve(out_n);
      for (size_t i = begin; i < end; ++i) {
        if (cancel != nullptr && cancel->Cancelled()) {
          return IdTable{};
        }
        if (rc.empty()) {
          dst.insert(dst.end(), rn, rdf::kInvalidTermId);
        } else {
          dst.insert(dst.end(), rc.begin(), rc.end());
        }
      }
    }
    return IdTable::FromColumns(out_vars, std::move(cols), out_n);
  };

  std::vector<std::future<IdTable>> futures;
  for (size_t begin = 0; begin < ln; begin += chunk) {
    size_t end = std::min(ln, begin + chunk);
    futures.push_back(pool->Submit(cross_chunk, begin, end));
  }
  IdTable out(out_vars);
  for (auto& f : futures) {
    IdTable part = f.get();
    if (cancel != nullptr && cancel->Cancelled()) continue;  // Drain only.
    out.Append(part);
  }
  return out;
}

IdTable ParallelHashJoin(const IdTable& left,
                         const IdTable& right,
                         ThreadPool* pool, size_t partitions,
                         const CancelToken* cancel) {
  std::vector<std::string> shared = IdTable::SharedVars(left, right);
  if (shared.empty()) {
    // Cartesian product: parallelize when the output is big enough to
    // amortize the task overhead; JoinIds handles the small cases.
    //
    // Threshold measured with bench_micro's BM_CartesianSerial /
    // BM_CartesianParallel pair: serial costs ~50 ns/cell, and
    // dispatching 8 pool tasks costs ~25 us total (the wall-time gap
    // at small sizes). At 2048 cells the serial product takes ~105 us
    // — about 4x the dispatch overhead, the knee where offloading
    // already cuts main-thread CPU ~3x (38 us vs 105 us) and any
    // second core turns that into wall-clock speedup; by ~16k cells
    // the overhead is fully amortized (<2% even on one core). Below
    // 2048 the dispatch overhead rivals the work itself.
    if (partitions > 1 && pool != nullptr && right.NumRows() > 0 &&
        left.NumRows() >= 2 &&
        left.NumRows() * right.NumRows() >= 2048) {
      return ParallelCartesian(left, right, pool, partitions, cancel);
    }
    return JoinIds(left, right, /*left_outer=*/false);
  }
  if (partitions <= 1 || pool == nullptr ||
      left.NumRows() + right.NumRows() < 2048) {
    return JoinIds(left, right, /*left_outer=*/false);
  }
  std::vector<int> left_keys, right_keys;
  for (const std::string& v : shared) {
    left_keys.push_back(left.VarIndex(v));
    right_keys.push_back(right.VarIndex(v));
  }
  // Rows with unbound key cells break partitioning; fall back.
  auto has_unbound_key = [](const IdTable& t,
                            const std::vector<int>& keys) {
    for (int k : keys) {
      const std::vector<rdf::TermId>& col = t.Column(static_cast<size_t>(k));
      if (col.empty() && t.NumRows() > 0) return true;
      for (rdf::TermId id : col) {
        if (id == rdf::kInvalidTermId) return true;
      }
    }
    return false;
  };
  if (has_unbound_key(left, left_keys) || has_unbound_key(right, right_keys)) {
    return JoinIds(left, right, /*left_outer=*/false);
  }

  // Partition row indices by key hash, then materialize each partition
  // with one column gather per side.
  std::vector<std::vector<uint32_t>> left_index(partitions);
  std::vector<std::vector<uint32_t>> right_index(partitions);
  for (size_t r = 0; r < left.NumRows(); ++r) {
    left_index[KeyHash(left, r, left_keys) % partitions].push_back(
        static_cast<uint32_t>(r));
  }
  for (size_t r = 0; r < right.NumRows(); ++r) {
    right_index[KeyHash(right, r, right_keys) % partitions].push_back(
        static_cast<uint32_t>(r));
  }
  std::vector<IdTable> left_parts(partitions);
  std::vector<IdTable> right_parts(partitions);
  for (size_t p = 0; p < partitions; ++p) {
    left_parts[p] = left.SelectRows(left_index[p]);
    right_parts[p] = right.SelectRows(right_index[p]);
  }

  std::vector<std::future<IdTable>> futures;
  futures.reserve(partitions);
  for (size_t p = 0; p < partitions; ++p) {
    futures.push_back(pool->Submit(
        [&left_parts, &right_parts, p, cancel]() {
          // Partition-boundary cancellation: a queued bucket join whose
          // token already fired produces nothing instead of joining.
          if (cancel != nullptr && cancel->Cancelled()) {
            return IdTable{};
          }
          // Every partition shares JoinIds' fixed layout left.vars +
          // right-only vars, so the parts concatenate with no column
          // realignment.
          return JoinIds(left_parts[p], right_parts[p],
                         /*left_outer=*/false);
        }));
  }
  IdTable out;
  out.vars = left.vars;
  for (const std::string& v : right.vars) {
    if (out.VarIndex(v) < 0) out.vars.push_back(v);
  }
  for (auto& f : futures) {
    IdTable part = f.get();
    if (cancel != nullptr && cancel->Cancelled()) continue;  // Drain only.
    out.Append(part);
  }
  return out;
}

}  // namespace lusail::core

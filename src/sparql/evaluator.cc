#include "sparql/evaluator.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "sparql/expr_eval.h"
#include "sparql/probe.h"

namespace lusail::sparql {

namespace {

using rdf::Term;
using rdf::TermId;
using store::EncodedTriple;

constexpr size_t kNoLimit = std::numeric_limits<size_t>::max();
constexpr TermId kUnbound = rdf::kInvalidTermId;

/// Rows per batch handed from one BGP step to the next (and from the BGP
/// to the correlated groups): large enough to amortize a step's setup
/// and share probes, small enough that LIMIT and EXISTS stop early.
constexpr size_t kBatchRows = 1024;

/// A batch of partial solutions: fixed-width rows (one TermId per
/// variable slot, kUnbound when unbound) in one flat buffer. Each row is
/// tagged with the seed row it descends from, so a group evaluated for
/// many outer rows at once can hand each outer row its own answer.
class Rows {
 public:
  explicit Rows(size_t width) : width_(width) {}

  size_t width() const { return width_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  const TermId* row(size_t i) const { return cells_.data() + i * width_; }
  uint32_t tag(size_t i) const { return tags_[i]; }

  /// Appends a copy of `row` under `tag`; returns the new row's cells.
  TermId* Append(const TermId* row, uint32_t tag) {
    if (size_ == tags_.size()) Grow();
    TermId* dst = cells_.data() + size_ * width_;
    for (size_t i = 0; i < width_; ++i) dst[i] = row[i];
    tags_[size_++] = tag;
    return dst;
  }
  TermId* Append(const Rows& other, size_t i, uint32_t tag) {
    return Append(other.row(i), tag);
  }
  void PopBack() { --size_; }
  void Clear() { size_ = 0; }
  /// Empties the batch and changes its width, keeping the storage.
  void Reset(size_t width) {
    width_ = width;
    size_ = 0;
    if (width_ > 0) tags_.resize(cells_.size() / width_);
    cells_.resize(tags_.size() * width_);
  }
  void Reserve(size_t rows) {
    if (rows <= tags_.size()) return;
    cells_.resize(rows * width_);
    tags_.resize(rows);
  }

 private:
  [[gnu::noinline]] void Grow() { Reserve(std::max<size_t>(16, 2 * size_)); }

  size_t width_;
  size_t size_ = 0;
  /// Storage for tags_.size() rows, of which the first size_ are live.
  std::vector<TermId> cells_;
  std::vector<uint32_t> tags_;
};

/// Per-tag output caps of one group evaluation: a tag whose answer has
/// `cap` rows is full, and its partial rows are dropped wherever they
/// are met. kNoLimit disables the bookkeeping.
class TagCaps {
 public:
  TagCaps(size_t num_tags, size_t cap)
      : cap_(cap),
        counts_(cap == kNoLimit ? 0 : num_tags, 0),
        open_(num_tags) {}

  bool limited() const { return cap_ != kNoLimit; }
  bool Full(uint32_t tag) const {
    return limited() && counts_[tag] >= cap_;
  }
  /// Counts one emitted row of `tag` (which must not be full).
  void Add(uint32_t tag) {
    if (limited() && ++counts_[tag] == cap_) --open_;
  }
  bool AllFull() const { return limited() && open_ == 0; }

 private:
  size_t cap_;
  std::vector<size_t> counts_;
  size_t open_;
};

/// Per-execution state: variable slot map and the auxiliary dictionary for
/// terms that appear in the query (or seeded VALUES) but not in the store.
class EvalContext {
 public:
  explicit EvalContext(const store::TripleStore& store) : store_(store) {}

  const store::TripleStore& store() const { return store_; }

  int SlotFor(const std::string& name) {
    auto it = slots_.find(name);
    if (it != slots_.end()) return it->second;
    int slot = static_cast<int>(slot_names_.size());
    slots_.emplace(name, slot);
    slot_names_.push_back(name);
    return slot;
  }

  int LookupSlot(const std::string& name) const {
    auto it = slots_.find(name);
    return it == slots_.end() ? -1 : it->second;
  }

  size_t NumSlots() const { return slot_names_.size(); }

  /// Interns a term that may not exist in the store's dictionary. Store
  /// ids are reused; foreign terms get ids past the store dictionary.
  TermId InternForeign(const Term& t) {
    TermId id = store_.dict().Lookup(t);
    if (id != kUnbound) return id;
    auto it = aux_ids_.find(t);
    if (it != aux_ids_.end()) return it->second;
    TermId aux = store_.dict().size() + aux_terms_.size();
    aux_terms_.push_back(t);
    aux_ids_.emplace(t, aux);
    return aux;
  }

  const Term& TermFor(TermId id) const {
    if (id < store_.dict().size()) return store_.dict().term(id);
    return aux_terms_[id - store_.dict().size()];
  }

  /// The foreign terms, in id order (for IdAnswer::foreign).
  std::vector<Term> TakeForeign() { return std::move(aux_terms_); }

 private:
  const store::TripleStore& store_;
  std::unordered_map<std::string, int> slots_;
  std::vector<std::string> slot_names_;
  std::vector<Term> aux_terms_;
  std::unordered_map<Term, TermId, rdf::TermHash> aux_ids_;
};

/// Makes a VarLookup over (ctx, row) for filter evaluation.
VarLookup MakeLookup(const EvalContext& ctx, const TermId* row) {
  return [&ctx, row](const std::string& name) -> const Term* {
    int slot = ctx.LookupSlot(name);
    if (slot < 0) return nullptr;
    TermId id = row[slot];
    if (id == kUnbound) return nullptr;
    return &ctx.TermFor(id);
  };
}

/// One triple pattern of a BGP compiled for a bound set: each position is
/// a store constant (slot < 0) or a variable slot, read from the partial
/// row at enumeration time.
struct CompiledStep {
  TermId constant[3] = {kUnbound, kUnbound, kUnbound};
  int slot[3] = {-1, -1, -1};
  /// Plain filters (indexes into the group's filters) whose variables are
  /// all bound once this step has matched.
  std::vector<size_t> inline_filters;
};

/// How one group runs for one set of initially bound variables, resolved
/// once: the join order with every position compiled, and where each
/// plain filter runs.
struct GroupPlan {
  std::vector<CompiledStep> steps;  ///< In join order.
  std::vector<size_t> post_filters;  ///< Filters not bound within the BGP.
  bool absent_constant = false;  ///< A constant is not in the store.
};

/// A group's plans, keyed by which of its plan variables (those of its
/// triples and plain filters, as slots) are bound in every input row of
/// one tag.
struct GroupPlans {
  std::vector<int> plan_slots;
  std::map<std::vector<uint64_t>, GroupPlan> by_bound_set;  ///< Bitsets.
};

/// A run of consecutive input rows (whole tags) that share a plan.
struct PlanRun {
  size_t begin;
  size_t end;
  const GroupPlan* plan;
};

/// Idle batch buffers of this thread, reused across steps and
/// executions: a step's output buffer is grown once per thread, not
/// allocated per step.
std::vector<std::unique_ptr<Rows>>& BufferPool() {
  thread_local std::vector<std::unique_ptr<Rows>> pool;
  return pool;
}

class GroupEvaluator {
 public:
  GroupEvaluator(EvalContext* ctx, const CancelToken& cancel)
      : ctx_(*ctx), cancel_(cancel) {}

  /// Evaluates `gp` over `input`, whose rows carry nondecreasing tags in
  /// [0, num_tags). For every tag, the output holds exactly what
  /// evaluating `gp` seeded with that tag's rows alone yields, in that
  /// order and cut at `max_rows` rows; tags stay grouped, in tag order.
  /// A correlated group (OPTIONAL, [NOT] EXISTS) thus runs once per
  /// batch of outer rows, each outer row its own tag.
  Result<Rows> Eval(const GraphPattern& gp, Rows input, size_t num_tags,
                    size_t max_rows) {
    // 1. VALUES data blocks join with the input seed first.
    for (const ValuesClause& vc : gp.values) input = JoinValues(input, vc);
    Rows out(input.width());
    if (input.empty() || max_rows == 0) return out;

    // 2. Each tag's plan, from the variables bound in all of its rows.
    std::vector<const GroupPlan*> tag_plan(num_tags, nullptr);
    std::vector<PlanRun> runs = PlanRuns(gp, input, &tag_plan);

    // 3. Basic graph pattern; then UNION chains, OPTIONALs, remaining
    // filters and EXISTS; finally the per-tag cap. Everything after
    // UNION keeps row order, so without UNION the whole group streams
    // batch by batch and stops once every tag is full.
    TagCaps caps(num_tags, max_rows);
    auto finish = [&](const Rows& chunk) {
      return Finish(gp, tag_plan, chunk, &caps, &out);
    };
    if (gp.unions.empty()) {
      for (const PlanRun& run : runs) {
        if (!RunBgp(gp, *run.plan, input, run.begin, run.end, &caps,
                    finish)) {
          break;
        }
      }
      if (cancelled_) return cancel_.StatusAt("endpoint evaluation");
      return out;
    }

    Rows rows(input.width());
    for (const PlanRun& run : runs) {
      RunBgp(gp, *run.plan, input, run.begin, run.end, nullptr,
             [&rows](const Rows& chunk) {
               for (size_t i = 0; i < chunk.size(); ++i) {
                 rows.Append(chunk, i, chunk.tag(i));
               }
               return true;
             });
    }
    if (cancelled_) return cancel_.StatusAt("endpoint evaluation");
    // Each alternative is seeded with all rows; per tag, the answer is
    // the first alternative's rows, then the second's, and so on.
    for (const auto& chain : gp.unions) {
      std::vector<Rows> branches;
      branches.reserve(chain.size());
      for (const GraphPattern& alt : chain) {
        LUSAIL_ASSIGN_OR_RETURN(Rows branch,
                                Eval(alt, rows, num_tags, kNoLimit));
        branches.push_back(std::move(branch));
      }
      rows = MergeByTag(branches, rows.width());
    }
    Rows chunk(rows.width());
    for (size_t begin = 0; begin < rows.size(); begin += kBatchRows) {
      chunk.Clear();
      const size_t end = std::min(rows.size(), begin + kBatchRows);
      for (size_t i = begin; i < end; ++i) chunk.Append(rows, i, rows.tag(i));
      if (!finish(chunk)) break;
    }
    if (cancelled_) return cancel_.StatusAt("endpoint evaluation");
    return out;
  }

 private:
  /// Joins the rows with a VALUES data block on shared variables.
  Rows JoinValues(const Rows& input, const ValuesClause& vc) {
    std::vector<int> slots;
    slots.reserve(vc.vars.size());
    for (const Variable& v : vc.vars) slots.push_back(ctx_.SlotFor(v.name));
    // The data block interned once per execution, row-major.
    auto [it, inserted] = values_ids_.try_emplace(&vc);
    std::vector<TermId>& data = it->second;
    if (inserted) {
      for (const auto& row : vc.rows) {
        for (size_t i = 0; i < slots.size(); ++i) {
          data.push_back(i < row.size() && row[i].has_value()
                             ? ctx_.InternForeign(*row[i])
                             : kUnbound);
        }
      }
    }
    Rows out(input.width());
    for (size_t r = 0; r < input.size(); ++r) {
      for (size_t d = 0; d < vc.rows.size(); ++d) {
        TermId* merged = out.Append(input, r, input.tag(r));
        for (size_t i = 0; i < slots.size(); ++i) {
          const TermId id = data[d * slots.size() + i];
          if (id == kUnbound) continue;  // UNDEF matches all.
          TermId& existing = merged[slots[i]];
          if (existing == kUnbound) {
            existing = id;
          } else if (existing != id) {
            out.PopBack();
            break;
          }
        }
      }
    }
    return out;
  }

  /// Splits `input` into runs of whole tags that share a plan, compiling
  /// each plan on first use, and records every tag's plan.
  std::vector<PlanRun> PlanRuns(const GraphPattern& gp, const Rows& input,
                                std::vector<const GroupPlan*>* tag_plan) {
    auto [it, inserted] = plans_.try_emplace(&gp);
    GroupPlans& group = it->second;
    if (inserted) {
      std::set<std::string> vars;
      for (const TriplePattern& tp : gp.triples) {
        for (const std::string& v : tp.VariableNames()) vars.insert(v);
      }
      for (const Expr& f : gp.filters) f.CollectVariables(&vars);
      for (const std::string& v : vars) {
        group.plan_slots.push_back(ctx_.LookupSlot(v));
      }
    }
    // Bit i of the bound set: plan slot i is bound in every row of the
    // tag. Bits past the plan slots stay set.
    const size_t num_slots = group.plan_slots.size();
    std::vector<PlanRun> runs;
    std::vector<uint64_t> bound_set((num_slots + 63) / 64);
    std::vector<uint64_t> last_set;
    const GroupPlan* plan = nullptr;
    for (size_t begin = 0; begin < input.size();) {
      const uint32_t tag = input.tag(begin);
      size_t end = begin;
      std::fill(bound_set.begin(), bound_set.end(), ~uint64_t{0});
      for (; end < input.size() && input.tag(end) == tag; ++end) {
        const TermId* row = input.row(end);
        for (size_t i = 0; i < num_slots; ++i) {
          if (row[group.plan_slots[i]] == kUnbound) {
            bound_set[i / 64] &= ~(uint64_t{1} << (i % 64));
          }
        }
      }
      if (plan == nullptr || bound_set != last_set) {
        last_set = bound_set;
        auto found = group.by_bound_set.find(bound_set);
        if (found == group.by_bound_set.end()) {
          std::vector<bool> bound(ctx_.NumSlots(), false);
          for (size_t i = 0; i < num_slots; ++i) {
            if ((bound_set[i / 64] >> (i % 64)) & 1) {
              bound[group.plan_slots[i]] = true;
            }
          }
          found = group.by_bound_set
                      .emplace(bound_set, Compile(gp, std::move(bound)))
                      .first;
        }
        plan = &found->second;
      }
      (*tag_plan)[tag] = plan;
      if (!runs.empty() && runs.back().plan == plan) {
        runs.back().end = end;
      } else {
        runs.push_back({begin, end, plan});
      }
      begin = end;
    }
    return runs;
  }

  /// Compiles the BGP of `gp` with the slots in `bound` bound on entry.
  /// Greedy static join order: prefer patterns with the most bound slots,
  /// then connectivity to already-bound variables, then the smallest
  /// constant-only index count. Avoids cartesian products when possible.
  /// Each filter runs after the earliest step that binds all of its
  /// variables, or after the BGP when none does.
  GroupPlan Compile(const GraphPattern& gp, std::vector<bool> bound) {
    const size_t n = gp.triples.size();
    // Each pattern's positions resolved once (store id, or nullopt for a
    // variable) and its constant-only match count.
    std::vector<std::array<std::optional<TermId>, 3>> ids(n);
    std::vector<uint64_t> estimate(n);
    for (size_t i = 0; i < n; ++i) {
      const TriplePattern& tp = gp.triples[i];
      const TermOrVar* tvs[3] = {&tp.s, &tp.p, &tp.o};
      for (int j = 0; j < 3; ++j) {
        if (tvs[j]->is_term()) {
          ids[i][j] = ctx_.store().dict().Lookup(tvs[j]->term());
        }
      }
      estimate[i] = ctx_.store().Count(ids[i][0], ids[i][1], ids[i][2]);
    }
    std::vector<std::vector<int>> filter_slots(gp.filters.size());
    for (size_t fi = 0; fi < gp.filters.size(); ++fi) {
      std::set<std::string> fvars;
      gp.filters[fi].CollectVariables(&fvars);
      for (const std::string& v : fvars) {
        filter_slots[fi].push_back(ctx_.LookupSlot(v));
      }
    }
    std::vector<bool> placed(gp.filters.size(), false);

    GroupPlan plan;
    std::vector<bool> used(n, false);
    for (size_t k = 0; k < n; ++k) {
      size_t best = n;
      // Order key: (disconnected, -bound_slots, estimated_count).
      std::tuple<int, int, uint64_t> best_key{2, 0, 0};
      for (size_t i = 0; i < n; ++i) {
        if (used[i]) continue;
        const TriplePattern& tp = gp.triples[i];
        int bound_slots = 0;
        bool shares = false;
        for (const TermOrVar* tv : {&tp.s, &tp.p, &tp.o}) {
          if (!tv->is_variable()) {
            ++bound_slots;
          } else if (bound[ctx_.LookupSlot(tv->var().name)]) {
            ++bound_slots;
            shares = true;
          }
        }
        // A pattern sharing no bound variable is a cartesian product with
        // what is bound so far; one with constants is a cheap one.
        int disconnected = k > 0 && !shares ? 1 : 0;
        std::tuple<int, int, uint64_t> key{disconnected, -bound_slots,
                                           estimate[i]};
        if (best == n || key < best_key) {
          best = i;
          best_key = key;
        }
      }
      used[best] = true;

      const TriplePattern& tp = gp.triples[best];
      CompiledStep step;
      const TermOrVar* tvs[3] = {&tp.s, &tp.p, &tp.o};
      for (int i = 0; i < 3; ++i) {
        if (tvs[i]->is_variable()) {
          step.slot[i] = ctx_.LookupSlot(tvs[i]->var().name);
          bound[step.slot[i]] = true;
        } else {
          step.constant[i] = *ids[best][i];
          if (step.constant[i] == kUnbound) plan.absent_constant = true;
        }
      }
      for (size_t fi = 0; fi < gp.filters.size(); ++fi) {
        if (!placed[fi] &&
            std::all_of(filter_slots[fi].begin(), filter_slots[fi].end(),
                        [&bound](int slot) { return bound[slot]; })) {
          step.inline_filters.push_back(fi);
          placed[fi] = true;
        }
      }
      plan.steps.push_back(std::move(step));
    }
    for (size_t fi = 0; fi < gp.filters.size(); ++fi) {
      if (!placed[fi]) plan.post_filters.push_back(fi);
    }
    return plan;
  }

  using Sink = std::function<bool(const Rows&)>;

  /// Runs the BGP of `plan` over input rows [begin, end) in batches of up
  /// to kBatchRows, handing complete rows to `sink` in order. Rows of
  /// tags `caps` reports full are dropped. False once the sink or a
  /// cancellation stopped the run.
  bool RunBgp(const GraphPattern& gp, const GroupPlan& plan,
              const Rows& input, size_t begin, size_t end,
              const TagCaps* caps, const Sink& sink) {
    if (plan.absent_constant) return true;
    if (caps != nullptr && !caps->limited()) caps = nullptr;
    for (size_t lo = begin; lo < end; lo += kBatchRows) {
      const size_t hi = std::min(end, lo + kBatchRows);
      if (plan.steps.empty()) {
        Rows batch(input.width());
        for (size_t i = lo; i < hi; ++i) batch.Append(input, i, input.tag(i));
        if (!sink(batch)) return false;
      } else if (!Step(gp, plan, 0, input, lo, hi, caps, sink)) {
        return false;
      }
    }
    return true;
  }

  /// Amortized cancellation probe: the token's clock read happens once
  /// per 1024 calls. Sticky once fired.
  bool CheckCancelled() {
    if (cancelled_) return true;
    if ((++cancel_ticks_ & 1023u) == 0 && cancel_.Cancelled()) {
      cancelled_ = true;
    }
    return cancelled_;
  }

  /// Extends rows [begin, end) of `in` by step `k` of `plan`: one store
  /// probe per run of rows sharing a probe key, each row's matches in
  /// index order.
  /// Output batches go to step k + 1 (or the sink after the last step)
  /// as they fill, so evaluation runs depth-first across steps.
  bool Step(const GraphPattern& gp, const GroupPlan& plan, size_t k,
            const Rows& in, size_t begin, size_t end, const TagCaps* caps,
            const Sink& sink) {
    const CompiledStep& cs = plan.steps[k];
    std::unique_ptr<Rows> buffer = AcquireBuffer(in.width());
    Rows& out = *buffer;
    auto next = [&]() {
      if (cancel_.Cancelled()) cancelled_ = true;
      if (cancelled_) return false;
      bool more = k + 1 == plan.steps.size()
                      ? sink(out)
                      : Step(gp, plan, k + 1, out, 0, out.size(), caps, sink);
      out.Clear();
      return more;
    };
    TermId last_key[3];
    bool have_last = false;
    std::span<const EncodedTriple> matches;
    bool more = true;
    for (size_t i = begin; i < end && more; ++i) {
      const uint32_t tag = in.tag(i);
      if (caps != nullptr && caps->Full(tag)) continue;
      if (CheckCancelled()) {
        more = false;
        break;
      }
      const TermId* row = in.row(i);
      // Each position is a constant, a value the row binds (both part of
      // the probe key) or free (kUnbound, assigned from each match).
      TermId key[3];
      for (int j = 0; j < 3; ++j) {
        key[j] = cs.slot[j] < 0 ? cs.constant[j] : row[cs.slot[j]];
      }
      // Consecutive rows sharing a key share its range: rows that differ
      // only in variables the key does not read (the common case when the
      // key reads earlier steps' bindings) reuse one probe.
      if (!have_last || !std::equal(key, key + 3, last_key)) {
        auto pos = [](TermId id) {
          return id == kUnbound ? std::nullopt : std::optional<TermId>(id);
        };
        matches = ctx_.store().Match(pos(key[0]), pos(key[1]), pos(key[2]));
        std::copy(key, key + 3, last_key);
        have_last = true;
      }
      for (const EncodedTriple& t : matches) {
        if (CheckCancelled()) {
          more = false;
          break;
        }
        const TermId values[3] = {t.s, t.p, t.o};
        TermId* dst = out.Append(row, tag);
        // Assign free slots, honoring repeated variables, e.g. (?x p ?x).
        bool ok = true;
        for (int j = 0; j < 3 && ok; ++j) {
          if (key[j] != kUnbound) continue;
          TermId& cell = dst[cs.slot[j]];
          if (cell == kUnbound) {
            cell = values[j];
          } else if (cell != values[j]) {
            ok = false;
          }
        }
        for (size_t fi : cs.inline_filters) {
          if (!ok) break;
          ok = EvalFilter(gp.filters[fi], MakeLookup(ctx_, dst));
        }
        if (!ok) {
          out.PopBack();
          continue;
        }
        if (out.size() == kBatchRows) {
          more = next();
          if (!more || (caps != nullptr && caps->Full(tag))) break;
        }
      }
    }
    if (more && !out.empty()) more = next();
    if (cancelled_) more = false;
    BufferPool().push_back(std::move(buffer));
    return more;
  }

  /// An empty batch buffer of `width`. Pooled buffers keep the capacity
  /// earlier steps grew them to, so they are only as large as the
  /// batches this thread has needed.
  static std::unique_ptr<Rows> AcquireBuffer(size_t width) {
    std::vector<std::unique_ptr<Rows>>& pool = BufferPool();
    if (pool.empty()) return std::make_unique<Rows>(width);
    std::unique_ptr<Rows> buffer = std::move(pool.back());
    pool.pop_back();
    buffer->Reset(width);
    return buffer;
  }

  /// Runs the order-preserving tail of `gp` on one batch of BGP (or
  /// UNION) output — OPTIONALs, remaining filters, [NOT] EXISTS — and
  /// appends the surviving rows of tags not yet full to `out`. False once
  /// every tag is full or evaluation was cancelled.
  bool Finish(const GraphPattern& gp,
              const std::vector<const GroupPlan*>& tag_plan,
              const Rows& chunk, TagCaps* caps, Rows* out) {
    const Rows* rows = &chunk;
    Rows current(chunk.width());
    if (caps->limited() &&
        (!gp.optionals.empty() || !gp.exists_filters.empty())) {
      // Outer rows of full tags need no correlated work.
      for (size_t i = 0; i < chunk.size(); ++i) {
        if (!caps->Full(chunk.tag(i))) current.Append(chunk, i, chunk.tag(i));
      }
      rows = &current;
    }

    // OPTIONAL blocks: left outer join, each row's extensions (or the
    // row itself) in place.
    for (const GraphPattern& opt : gp.optionals) {
      Result<Rows> extended = Eval(opt, Retag(*rows), rows->size(), kNoLimit);
      if (!extended.ok()) return false;
      Rows joined(rows->width());
      size_t e = 0;
      for (size_t i = 0; i < rows->size(); ++i) {
        if (e < extended->size() && extended->tag(e) == i) {
          for (; e < extended->size() && extended->tag(e) == i; ++e) {
            joined.Append(*extended, e, rows->tag(i));
          }
        } else {
          joined.Append(*rows, i, rows->tag(i));
        }
      }
      current = std::move(joined);
      rows = &current;
    }

    // Plain filters not bound within the BGP, then EXISTS / NOT EXISTS,
    // each probe group seeded with every row still standing.
    std::vector<char> keep(rows->size(), 1);
    for (size_t i = 0; i < rows->size(); ++i) {
      for (size_t fi : tag_plan[rows->tag(i)]->post_filters) {
        if (!EvalFilter(gp.filters[fi], MakeLookup(ctx_, rows->row(i)))) {
          keep[i] = 0;
          break;
        }
      }
    }
    for (const auto& ef : gp.exists_filters) {
      Rows probe_input(rows->width());
      std::vector<size_t> probed;
      for (size_t i = 0; i < rows->size(); ++i) {
        if (!keep[i]) continue;
        probe_input.Append(*rows, i, static_cast<uint32_t>(probed.size()));
        probed.push_back(i);
      }
      if (probed.empty()) break;
      Result<Rows> found =
          Eval(ef.pattern, std::move(probe_input), probed.size(), 1);
      if (!found.ok()) return false;
      std::vector<char> exists(probed.size(), 0);
      for (size_t f = 0; f < found->size(); ++f) exists[found->tag(f)] = 1;
      for (size_t p = 0; p < probed.size(); ++p) {
        if (static_cast<bool>(exists[p]) == ef.negated) keep[probed[p]] = 0;
      }
    }

    for (size_t i = 0; i < rows->size(); ++i) {
      const uint32_t tag = rows->tag(i);
      if (!keep[i] || caps->Full(tag)) continue;
      out->Append(*rows, i, tag);
      caps->Add(tag);
    }
    return !caps->AllFull() && !cancelled_;
  }

  /// A copy of `rows` with row i tagged i (seeding a correlated group).
  static Rows Retag(const Rows& rows) {
    Rows out(rows.width());
    out.Reserve(rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      out.Append(rows, i, static_cast<uint32_t>(i));
    }
    return out;
  }

  /// Interleaves tag-grouped branches: per tag, every branch's rows in
  /// branch order.
  static Rows MergeByTag(const std::vector<Rows>& branches, size_t width) {
    Rows out(width);
    std::vector<size_t> pos(branches.size(), 0);
    while (true) {
      uint32_t tag = std::numeric_limits<uint32_t>::max();
      bool any = false;
      for (size_t b = 0; b < branches.size(); ++b) {
        if (pos[b] < branches[b].size()) {
          tag = std::min(tag, branches[b].tag(pos[b]));
          any = true;
        }
      }
      if (!any) return out;
      for (size_t b = 0; b < branches.size(); ++b) {
        const Rows& branch = branches[b];
        for (; pos[b] < branch.size() && branch.tag(pos[b]) == tag; ++pos[b]) {
          out.Append(branch, pos[b], tag);
        }
      }
    }
  }

  EvalContext& ctx_;
  const CancelToken& cancel_;
  uint64_t cancel_ticks_ = 0;
  bool cancelled_ = false;
  /// Plan memo for this execution only: evaluators are shared by
  /// concurrent server workers, so nothing here outlives ExecuteIds().
  std::unordered_map<const GraphPattern*, GroupPlans> plans_;
  /// VALUES blocks interned to ids, row-major, once per execution.
  std::unordered_map<const ValuesClause*, std::vector<TermId>> values_ids_;
};

/// True when the group is one triple pattern with no repeated variable
/// and no operators besides VALUES blocks — with none of those, eligible
/// for the index fast paths.
bool IsCleanPattern(const GraphPattern& gp) {
  if (gp.triples.size() != 1 || !gp.filters.empty() ||
      !gp.exists_filters.empty() || !gp.optionals.empty() ||
      !gp.unions.empty()) {
    return false;
  }
  const TriplePattern& tp = gp.triples[0];
  auto same_var = [](const TermOrVar& a, const TermOrVar& b) {
    return a.is_variable() && b.is_variable() && a.var() == b.var();
  };
  return !same_var(tp.s, tp.p) && !same_var(tp.s, tp.o) &&
         !same_var(tp.p, tp.o);
}

bool IsSinglePatternGroup(const GraphPattern& gp) {
  return gp.values.empty() && IsCleanPattern(gp);
}

/// Resolves a pattern slot to a term id; nullopt = wildcard; sets
/// `*missing` when a constant is absent from the store (zero matches).
std::optional<TermId> ResolveSlot(const store::TripleStore& store,
                                  const TermOrVar& tv, bool* missing) {
  if (tv.is_variable()) return std::nullopt;
  TermId id = store.dict().Lookup(tv.term());
  if (id == kUnbound) *missing = true;
  return id;
}

/// A one-row, one-column COUNT answer; the count is its one foreign term
/// (even when the store happens to hold the same literal).
IdAnswer CountAnswer(const std::string& alias, uint64_t count,
                     const store::TripleStore& store) {
  IdAnswer answer;
  answer.vars.push_back(alias);
  answer.columns.push_back({store.dict().size()});
  answer.num_rows = 1;
  answer.foreign.push_back(Term::Integer(static_cast<int64_t>(count)));
  return answer;
}

IdAnswer AskAnswer(bool verdict) {
  IdAnswer answer;
  answer.num_rows = verdict ? 1 : 0;
  return answer;
}

/// Whether a single-pattern group has a match (kAsk) or how many
/// (kCount), by one index lookup.
uint64_t IndexProbe(const store::TripleStore& store, const TriplePattern& tp,
                    ProbeKind kind) {
  bool missing = false;
  std::optional<TermId> s = ResolveSlot(store, tp.s, &missing);
  std::optional<TermId> p = ResolveSlot(store, tp.p, &missing);
  std::optional<TermId> o = ResolveSlot(store, tp.o, &missing);
  if (missing) return 0;
  return kind == ProbeKind::kAsk ? store.Ask(s, p, o) : store.Count(s, p, o);
}

/// One probe branch's value: 1 or 0 for ASK, the solution count for
/// COUNT. A branch whose body is one clean pattern is one index lookup;
/// any other is evaluated (its tagging VALUES block binds a variable the
/// body does not use), an ASK branch only up to its first solution.
Result<uint64_t> ProbeBranchValue(const store::TripleStore& store,
                                  const GraphPattern& group, ProbeKind kind,
                                  const CancelToken& cancel) {
  if (IsCleanPattern(group)) {
    return IndexProbe(store, group.triples[0], kind);
  }
  EvalContext ctx(store);
  std::set<std::string> vars;
  group.CollectVariables(&vars);
  for (const std::string& v : vars) ctx.SlotFor(v);
  Rows seed(ctx.NumSlots());
  std::vector<TermId> unbound(ctx.NumSlots(), kUnbound);
  seed.Append(unbound.data(), 0);
  GroupEvaluator ge(&ctx, cancel);
  LUSAIL_ASSIGN_OR_RETURN(
      Rows rows,
      ge.Eval(group, std::move(seed), 1,
              kind == ProbeKind::kAsk ? size_t{1} : kNoLimit));
  return static_cast<uint64_t>(rows.size());
}

/// A batched probe answered branch by branch (see sparql/probe.h): one
/// row per tag with a true verdict or a nonzero count, in first-appearance
/// order. Tags and counts are the answer's foreign terms.
Result<IdAnswer> ExecuteProbeBatch(const store::TripleStore& store,
                                   const ProbeBatch& batch,
                                   const CancelToken& cancel) {
  const bool ask = batch.kind == ProbeKind::kAsk;
  std::vector<const Term*> tags;
  std::vector<uint64_t> values;
  for (const ProbeBranch& branch : batch.branches) {
    if (cancel.Cancelled()) return cancel.StatusAt("endpoint evaluation");
    LUSAIL_ASSIGN_OR_RETURN(
        uint64_t value,
        ProbeBranchValue(store, *branch.group, batch.kind, cancel));
    if (value == 0) continue;
    size_t t = 0;
    while (t < tags.size() && !(*tags[t] == *branch.tag)) ++t;
    if (t == tags.size()) {
      tags.push_back(branch.tag);
      values.push_back(0);
    }
    values[t] = ask ? 1 : AddCounts(values[t], value);
  }
  IdAnswer answer;
  answer.num_rows = tags.size();
  answer.vars.push_back(batch.tag_var);
  if (!ask) answer.vars.push_back(batch.count_alias);
  answer.columns.resize(answer.vars.size());
  const TermId base = store.dict().size();
  for (size_t t = 0; t < tags.size(); ++t) {
    answer.columns[0].push_back(base + answer.foreign.size());
    answer.foreign.push_back(*tags[t]);
    if (ask) continue;
    answer.columns[1].push_back(base + answer.foreign.size());
    answer.foreign.push_back(CountTerm(values[t]));
  }
  return answer;
}

/// GROUP BY `key` with a COUNT aggregate: one row per group, in order
/// of first appearance, binding the key slot and the alias slot (the
/// count, interned in `ctx`). An unbound key forms its own group.
Rows GroupCounts(const CountAggregate& agg, const Variable& key,
                 EvalContext* ctx, const Rows& rows) {
  const int key_slot = ctx->LookupSlot(key.name);
  const int var_slot = agg.var.has_value() ? ctx->LookupSlot(agg.var->name)
                                           : -1;
  std::unordered_map<TermId, size_t> group_of;
  std::vector<TermId> keys;
  std::vector<uint64_t> counts;
  std::vector<std::unordered_set<TermId>> seen;
  for (size_t r = 0; r < rows.size(); ++r) {
    const TermId* row = rows.row(r);
    const TermId k = key_slot >= 0 ? row[key_slot] : kUnbound;
    auto [it, inserted] = group_of.try_emplace(k, keys.size());
    if (inserted) {
      keys.push_back(k);
      counts.push_back(0);
      if (agg.distinct) seen.emplace_back();
    }
    const size_t g = it->second;
    if (!agg.var.has_value()) {
      ++counts[g];
    } else if (var_slot >= 0 && row[var_slot] != kUnbound) {
      if (agg.distinct) {
        seen[g].insert(row[var_slot]);
      } else {
        ++counts[g];
      }
    }
  }
  const int alias_slot = ctx->SlotFor(agg.alias.name);
  const int out_key_slot = ctx->SlotFor(key.name);
  Rows out(ctx->NumSlots());
  std::vector<TermId> cells(ctx->NumSlots(), kUnbound);
  for (size_t g = 0; g < keys.size(); ++g) {
    const uint64_t count = agg.distinct ? seen[g].size() : counts[g];
    cells[out_key_slot] = keys[g];
    cells[alias_slot] =
        ctx->InternForeign(Term::Integer(static_cast<int64_t>(count)));
    out.Append(cells.data(), 0);
  }
  return out;
}

}  // namespace

Result<IdAnswer> Evaluator::ExecuteIds(const Query& query,
                                       const CancelToken& cancel) const {
  if (!store_->frozen()) {
    return Status::Internal("evaluator requires a frozen store");
  }
  if (cancel.Cancelled()) return cancel.StatusAt("endpoint evaluation");

  // Fast paths for the probe queries federated engines hammer endpoints
  // with: a batched probe runs branch by branch, and single-pattern
  // COUNT(*) and ASK (alone or as a branch) resolve directly against the
  // covering indexes, no binding materialization.
  if (std::optional<ProbeBatch> batch = MatchProbeBatch(query)) {
    return ExecuteProbeBatch(*store_, *batch, cancel);
  }
  if (IsSinglePatternGroup(query.where)) {
    const TriplePattern& tp = query.where.triples[0];
    if (query.form == QueryForm::kAsk) {
      return AskAnswer(IndexProbe(*store_, tp, ProbeKind::kAsk) > 0);
    }
    if (query.aggregate.has_value() && !query.aggregate->var.has_value() &&
        !query.group_by.has_value()) {
      return CountAnswer(query.aggregate->alias.name,
                         IndexProbe(*store_, tp, ProbeKind::kCount), *store_);
    }
  }

  // Register every variable (pattern + projection) before evaluation so
  // row widths are stable.
  EvalContext ctx(*store_);
  std::set<std::string> all_vars;
  query.where.CollectVariables(&all_vars);
  for (const std::string& v : all_vars) ctx.SlotFor(v);
  std::vector<Variable> projection = query.EffectiveProjection();
  for (const Variable& v : projection) ctx.SlotFor(v.name);

  size_t max_rows = kNoLimit;
  if (query.form == QueryForm::kAsk) {
    max_rows = 1;
  } else if (std::optional<uint64_t> cap = query.PushableRowLimit()) {
    max_rows = static_cast<size_t>(std::min<uint64_t>(*cap, kNoLimit));
  }

  Rows seed(ctx.NumSlots());
  std::vector<TermId> unbound(ctx.NumSlots(), kUnbound);
  seed.Append(unbound.data(), 0);
  GroupEvaluator ge(&ctx, cancel);
  LUSAIL_ASSIGN_OR_RETURN(Rows rows,
                          ge.Eval(query.where, std::move(seed), 1, max_rows));

  if (query.form == QueryForm::kAsk) return AskAnswer(!rows.empty());

  if (query.group_by.has_value()) {
    // The groups become the rows the modifiers below run on.
    rows = GroupCounts(*query.aggregate, *query.group_by, &ctx, rows);
    projection.push_back(query.aggregate->alias);
  } else if (query.aggregate.has_value()) {
    const CountAggregate& agg = *query.aggregate;
    uint64_t count = 0;
    if (!agg.var.has_value()) {
      count = rows.size();
    } else {
      int slot = ctx.LookupSlot(agg.var->name);
      std::unordered_set<TermId> seen;
      for (size_t r = 0; slot >= 0 && r < rows.size(); ++r) {
        TermId id = rows.row(r)[slot];
        if (id == kUnbound) continue;
        if (agg.distinct) {
          seen.insert(id);
        } else {
          ++count;
        }
      }
      if (agg.distinct) count = seen.size();
    }
    return CountAnswer(agg.alias.name, count, *store_);
  }

  // ORDER BY keys outside the SELECT list must survive until the sort:
  // carry them as hidden trailing columns, dropped after windowing.
  // (Not under DISTINCT — there the spec ties ordering keys to the
  // select list, and widening the dedup set would change the answer.)
  const size_t visible = projection.size();
  if (!query.order_by.empty() && !query.distinct) {
    for (const OrderKey& key : query.order_by) {
      bool present = false;
      for (const Variable& v : projection) {
        if (v.name == key.var.name) {
          present = true;
          break;
        }
      }
      if (!present) projection.push_back(key.var);
    }
  }
  std::vector<int> slots;
  slots.reserve(projection.size());
  for (const Variable& v : projection) slots.push_back(ctx.LookupSlot(v.name));
  auto cell = [&rows, &slots](uint32_t r, size_t c) {
    return slots[c] >= 0 ? rows.row(r)[slots[c]] : kUnbound;
  };

  // The answer's rows, by index (optionally deduplicating on the
  // projected ids).
  std::vector<uint32_t> picked;
  picked.reserve(rows.size());
  if (query.distinct) {
    auto hash = [&](uint32_t r) {
      size_t h = 1469598103934665603ULL;
      for (size_t c = 0; c < slots.size(); ++c) {
        h ^= cell(r, c) + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
      }
      return h;
    };
    auto equal = [&](uint32_t a, uint32_t b) {
      for (size_t c = 0; c < slots.size(); ++c) {
        if (cell(a, c) != cell(b, c)) return false;
      }
      return true;
    };
    std::unordered_set<uint32_t, decltype(hash), decltype(equal)> seen(
        rows.size(), hash, equal);
    for (uint32_t r = 0; r < rows.size(); ++r) {
      if (seen.insert(r).second) picked.push_back(r);
    }
  } else {
    for (uint32_t r = 0; r < rows.size(); ++r) picked.push_back(r);
  }

  // ORDER BY sorts the whole answer before the LIMIT/OFFSET window is
  // cut. Keys naming no projected column are ignored.
  if (!query.order_by.empty()) {
    std::vector<std::pair<size_t, bool>> keys;
    for (const OrderKey& key : query.order_by) {
      for (size_t c = 0; c < projection.size(); ++c) {
        if (projection[c].name == key.var.name) {
          keys.emplace_back(c, key.descending);
          break;
        }
      }
    }
    auto term = [&ctx](TermId id) {
      return id == kUnbound ? nullptr : &ctx.TermFor(id);
    };
    std::stable_sort(picked.begin(), picked.end(),
                     [&](uint32_t a, uint32_t b) {
                       for (const auto& [c, descending] : keys) {
                         int order = CompareForOrder(term(cell(a, c)),
                                                     term(cell(b, c)));
                         if (order != 0) {
                           return descending ? order > 0 : order < 0;
                         }
                       }
                       return false;
                     });
  }
  const size_t begin =
      std::min<size_t>(query.offset.value_or(0), picked.size());
  size_t end = picked.size();
  if (query.limit.has_value()) {
    end = std::min<size_t>(end, begin + std::min<uint64_t>(
                                            *query.limit, kNoLimit - begin));
  }

  IdAnswer answer;
  answer.num_rows = end - begin;
  for (size_t c = 0; c < visible; ++c) {
    answer.vars.push_back(projection[c].name);
    std::vector<TermId> column(answer.num_rows);
    for (size_t r = begin; r < end; ++r) column[r - begin] = cell(picked[r], c);
    answer.columns.push_back(std::move(column));
  }
  answer.foreign = ctx.TakeForeign();
  return answer;
}

Result<ResultTable> Evaluator::Execute(const Query& query,
                                       const CancelToken& cancel) const {
  LUSAIL_ASSIGN_OR_RETURN(IdAnswer answer, ExecuteIds(query, cancel));
  const rdf::Dictionary& dict = store_->dict();
  ResultTable table;
  table.vars = std::move(answer.vars);
  table.rows.assign(answer.num_rows, std::vector<std::optional<Term>>(
                                         table.vars.size()));
  for (size_t c = 0; c < answer.columns.size(); ++c) {
    for (size_t r = 0; r < answer.num_rows; ++r) {
      const TermId id = answer.columns[c][r];
      if (id == kUnbound) continue;
      table.rows[r][c] = id < dict.size() ? dict.term(id)
                                          : answer.foreign[id - dict.size()];
    }
  }
  return table;
}

}  // namespace lusail::sparql

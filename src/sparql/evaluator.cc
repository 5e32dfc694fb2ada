#include "sparql/evaluator.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "sparql/expr_eval.h"

namespace lusail::sparql {

namespace {

using rdf::Term;
using rdf::TermId;
using store::EncodedTriple;

constexpr size_t kNoLimit = std::numeric_limits<size_t>::max();

/// A partial solution: one TermId per variable slot; kInvalidTermId is
/// unbound.
using Binding = std::vector<TermId>;

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
    if (id != rdf::kInvalidTermId) return id;
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

 private:
  const store::TripleStore& store_;
  std::unordered_map<std::string, int> slots_;
  std::vector<std::string> slot_names_;
  std::vector<Term> aux_terms_;
  std::unordered_map<Term, TermId, rdf::TermHash> aux_ids_;
};

/// Makes a VarLookup over (ctx, binding) for filter evaluation.
VarLookup MakeLookup(const EvalContext& ctx, const Binding& binding) {
  return [&ctx, &binding](const std::string& name) -> const Term* {
    int slot = ctx.LookupSlot(name);
    if (slot < 0) return nullptr;
    TermId id = binding[slot];
    if (id == rdf::kInvalidTermId) return nullptr;
    return &ctx.TermFor(id);
  };
}

/// Hash for deduplicating projected id-rows.
struct IdRowHash {
  size_t operator()(const std::vector<TermId>& row) const {
    size_t h = 1469598103934665603ULL;
    for (TermId id : row) {
      h ^= id + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    }
    return h;
  }
};

/// One triple pattern of a BGP compiled for a bound set: each position is
/// a store constant (slot < 0) or a variable slot, read from the partial
/// row at enumeration time.
struct CompiledStep {
  TermId constant[3] = {rdf::kInvalidTermId, rdf::kInvalidTermId,
                        rdf::kInvalidTermId};
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
/// triples and plain filters, as slots) are bound in every input row.
struct GroupPlans {
  std::vector<int> plan_slots;
  std::map<std::vector<bool>, GroupPlan> by_bound_set;
};

class GroupEvaluator {
 public:
  GroupEvaluator(EvalContext* ctx, const CancelToken& cancel)
      : ctx_(*ctx), cancel_(cancel) {}

  /// Evaluates `gp` seeded with `input`, producing at most `max_rows`
  /// solutions (the cap applies to the group's final output).
  Result<std::vector<Binding>> Eval(const GraphPattern& gp,
                                    std::vector<Binding> input,
                                    size_t max_rows) {
    // 1. VALUES data blocks join with the input seed first.
    for (const ValuesClause& vc : gp.values) {
      LUSAIL_ASSIGN_OR_RETURN(input, JoinValues(std::move(input), vc));
    }
    if (input.empty()) return input;

    // 2. Basic graph pattern with inline filter pushdown.
    const GroupPlan& plan = PlanFor(gp, input);
    std::vector<Binding> rows;
    LUSAIL_RETURN_NOT_OK(EvalBgp(gp, plan, std::move(input), max_rows, &rows));

    // 3. UNION chains (each alternative seeded per partial solution).
    for (const auto& chain : gp.unions) {
      std::vector<Binding> unioned;
      for (const GraphPattern& alt : chain) {
        LUSAIL_ASSIGN_OR_RETURN(std::vector<Binding> branch,
                                Eval(alt, rows, kNoLimit));
        unioned.insert(unioned.end(),
                       std::make_move_iterator(branch.begin()),
                       std::make_move_iterator(branch.end()));
      }
      rows = std::move(unioned);
    }

    // 4. OPTIONAL blocks: left outer join, one row at a time.
    for (const GraphPattern& opt : gp.optionals) {
      std::vector<Binding> joined;
      for (Binding& row : rows) {
        LUSAIL_ASSIGN_OR_RETURN(std::vector<Binding> extended,
                                Eval(opt, {row}, kNoLimit));
        if (extended.empty()) {
          joined.push_back(std::move(row));
        } else {
          joined.insert(joined.end(),
                        std::make_move_iterator(extended.begin()),
                        std::make_move_iterator(extended.end()));
        }
      }
      rows = std::move(joined);
    }

    // 5. Remaining plain filters (those whose variables were not all bound
    // within the BGP) and EXISTS / NOT EXISTS filters.
    if (!plan.post_filters.empty() || !gp.exists_filters.empty()) {
      std::vector<Binding> kept;
      for (Binding& row : rows) {
        bool pass = true;
        for (size_t fi : plan.post_filters) {
          if (!EvalFilter(gp.filters[fi], MakeLookup(ctx_, row))) {
            pass = false;
            break;
          }
        }
        if (pass) {
          for (const auto& ef : gp.exists_filters) {
            LUSAIL_ASSIGN_OR_RETURN(std::vector<Binding> probe,
                                    Eval(ef.pattern, {row}, 1));
            bool exists = !probe.empty();
            if (exists == ef.negated) {
              pass = false;
              break;
            }
          }
        }
        if (pass) kept.push_back(std::move(row));
        if (kept.size() >= max_rows) break;
      }
      rows = std::move(kept);
    }

    if (rows.size() > max_rows) rows.resize(max_rows);
    return rows;
  }

 private:
  /// Joins the current rows with a VALUES data block on shared variables.
  Result<std::vector<Binding>> JoinValues(std::vector<Binding> input,
                                          const ValuesClause& vc) {
    std::vector<int> slots;
    slots.reserve(vc.vars.size());
    for (const Variable& v : vc.vars) slots.push_back(ctx_.SlotFor(v.name));
    // Pre-intern the data block once.
    std::vector<std::vector<TermId>> data;
    data.reserve(vc.rows.size());
    for (const auto& row : vc.rows) {
      std::vector<TermId> ids;
      ids.reserve(row.size());
      for (const auto& cell : row) {
        ids.push_back(cell.has_value() ? ctx_.InternForeign(*cell)
                                       : rdf::kInvalidTermId);
      }
      data.push_back(std::move(ids));
    }
    std::vector<Binding> out;
    for (const Binding& base : input) {
      for (const auto& ids : data) {
        Binding merged = base;
        bool compatible = true;
        for (size_t i = 0; i < slots.size(); ++i) {
          if (ids[i] == rdf::kInvalidTermId) continue;  // UNDEF matches all.
          TermId existing = merged[slots[i]];
          if (existing == rdf::kInvalidTermId) {
            merged[slots[i]] = ids[i];
          } else if (existing != ids[i]) {
            compatible = false;
            break;
          }
        }
        if (compatible) out.push_back(std::move(merged));
      }
    }
    return out;
  }

  /// The plan for `gp` under the variables bound in every row of `input`
  /// (non-empty), compiled on first use. Correlated groups (OPTIONAL,
  /// UNION, [NOT] EXISTS) run once per outer row and reuse it.
  const GroupPlan& PlanFor(const GraphPattern& gp,
                           const std::vector<Binding>& input) {
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
    std::vector<bool> bound_set(group.plan_slots.size());
    for (size_t i = 0; i < group.plan_slots.size(); ++i) {
      const int slot = group.plan_slots[i];
      bound_set[i] = std::all_of(input.begin(), input.end(),
                                 [slot](const Binding& row) {
                                   return row[slot] != rdf::kInvalidTermId;
                                 });
    }
    auto plan = group.by_bound_set.find(bound_set);
    if (plan == group.by_bound_set.end()) {
      std::vector<bool> bound(ctx_.NumSlots(), false);
      for (size_t i = 0; i < bound_set.size(); ++i) {
        if (bound_set[i]) bound[group.plan_slots[i]] = true;
      }
      plan = group.by_bound_set
                 .emplace(std::move(bound_set), Compile(gp, std::move(bound)))
                 .first;
    }
    return plan->second;
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
          if (step.constant[i] == rdf::kInvalidTermId) {
            plan.absent_constant = true;
          }
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

  Status EvalBgp(const GraphPattern& gp, const GroupPlan& plan,
                 std::vector<Binding> input, size_t max_rows,
                 std::vector<Binding>* out) {
    if (plan.steps.empty()) {
      *out = std::move(input);
      return Status::OK();
    }
    if (plan.absent_constant) return Status::OK();

    // The BGP may stop early only if no later stage can drop rows.
    bool later_reduces = !plan.post_filters.empty() ||
                         !gp.exists_filters.empty() || !gp.unions.empty();
    size_t bgp_max = later_reduces ? kNoLimit : max_rows;

    for (Binding& row : input) {
      Enumerate(gp, plan, 0, &row, bgp_max, out);
      if (cancelled_) return cancel_.StatusAt("endpoint evaluation");
      if (out->size() >= bgp_max) break;
    }
    return Status::OK();
  }

  /// Amortized cancellation probe for the enumeration hot loop: the
  /// token's clock read happens once per 1024 calls. Sticky once fired.
  bool CheckCancelled() {
    if (cancelled_) return true;
    if ((++cancel_ticks_ & 1023u) == 0 && cancel_.Cancelled()) {
      cancelled_ = true;
    }
    return cancelled_;
  }

  void Enumerate(const GraphPattern& gp, const GroupPlan& plan, size_t step,
                 Binding* row, size_t max_rows, std::vector<Binding>* out) {
    if (out->size() >= max_rows) return;
    if (step == plan.steps.size()) {
      out->push_back(*row);
      return;
    }
    const CompiledStep& cs = plan.steps[step];

    // Each variable position is bound by the row (a lookup key) or free
    // (its slot recorded for assignment).
    std::optional<TermId> pos[3];
    int assign_slot[3] = {-1, -1, -1};
    for (int i = 0; i < 3; ++i) {
      if (cs.slot[i] < 0) {
        pos[i] = cs.constant[i];
      } else if ((*row)[cs.slot[i]] != rdf::kInvalidTermId) {
        pos[i] = (*row)[cs.slot[i]];
      } else {
        assign_slot[i] = cs.slot[i];
      }
    }

    auto matches = ctx_.store().Match(pos[0], pos[1], pos[2]);
    for (const EncodedTriple& t : matches) {
      if (CheckCancelled()) return;
      TermId values[3] = {t.s, t.p, t.o};
      // Assign unbound slots, honoring repeated variables in the pattern.
      int assigned[3];
      int num_assigned = 0;
      bool ok = true;
      for (int i = 0; i < 3 && ok; ++i) {
        int slot = assign_slot[i];
        if (slot < 0) continue;
        TermId current = (*row)[slot];
        if (current == rdf::kInvalidTermId) {
          (*row)[slot] = values[i];
          assigned[num_assigned++] = slot;
        } else if (current != values[i]) {
          ok = false;  // Repeated variable mismatch, e.g. (?x p ?x).
        }
      }
      if (ok) {
        bool filters_pass = true;
        for (size_t fi : cs.inline_filters) {
          if (!EvalFilter(gp.filters[fi], MakeLookup(ctx_, *row))) {
            filters_pass = false;
            break;
          }
        }
        if (filters_pass) Enumerate(gp, plan, step + 1, row, max_rows, out);
      }
      for (int i = 0; i < num_assigned; ++i) {
        (*row)[assigned[i]] = rdf::kInvalidTermId;
      }
      if (out->size() >= max_rows) return;
    }
  }

  EvalContext& ctx_;
  const CancelToken& cancel_;
  uint64_t cancel_ticks_ = 0;
  bool cancelled_ = false;
  /// Plan memo for this execution only: evaluators are shared by
  /// concurrent server workers, so nothing here outlives Execute().
  std::unordered_map<const GraphPattern*, GroupPlans> plans_;
};

}  // namespace

namespace {

/// True when the query is a single-triple-pattern group with no other
/// operators and no repeated variables — eligible for index fast paths.
bool IsSinglePatternGroup(const Query& query) {
  const GraphPattern& gp = query.where;
  if (gp.triples.size() != 1 || !gp.filters.empty() ||
      !gp.exists_filters.empty() || !gp.optionals.empty() ||
      !gp.unions.empty() || !gp.values.empty()) {
    return false;
  }
  return gp.triples[0].VariableNames().size() ==
         static_cast<size_t>(gp.triples[0].VariableCount());
}

/// Resolves a pattern slot to a term id; nullopt = wildcard; sets
/// `*missing` when a constant is absent from the store (zero matches).
std::optional<rdf::TermId> ResolveSlot(const store::TripleStore& store,
                                       const TermOrVar& tv, bool* missing) {
  if (tv.is_variable()) return std::nullopt;
  rdf::TermId id = store.dict().Lookup(tv.term());
  if (id == rdf::kInvalidTermId) *missing = true;
  return id;
}

}  // namespace

Result<ResultTable> Evaluator::Execute(const Query& query,
                                       const CancelToken& cancel) const {
  if (!store_->frozen()) {
    return Status::Internal("evaluator requires a frozen store");
  }
  if (cancel.Cancelled()) return cancel.StatusAt("endpoint evaluation");

  // Fast paths for the probe queries federated engines hammer endpoints
  // with: single-pattern COUNT(*) and single-pattern ASK resolve directly
  // against the covering indexes, no binding materialization.
  if (IsSinglePatternGroup(query)) {
    const TriplePattern& tp = query.where.triples[0];
    bool missing = false;
    std::optional<rdf::TermId> s = ResolveSlot(*store_, tp.s, &missing);
    std::optional<rdf::TermId> p = ResolveSlot(*store_, tp.p, &missing);
    std::optional<rdf::TermId> o = ResolveSlot(*store_, tp.o, &missing);
    if (query.form == QueryForm::kAsk) {
      ResultTable table;
      if (!missing && store_->Ask(s, p, o)) table.rows.push_back({});
      return table;
    }
    if (query.aggregate.has_value() && !query.aggregate->var.has_value() &&
        query.form == QueryForm::kSelect) {
      uint64_t count = missing ? 0 : store_->Count(s, p, o);
      ResultTable table;
      table.vars.push_back(query.aggregate->alias.name);
      table.rows.push_back(
          {rdf::Term::Integer(static_cast<int64_t>(count))});
      return table;
    }
  }

  EvalContext ctx(*store_);
  // Register every variable (pattern + projection) before evaluation so
  // binding widths are stable.
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

  std::vector<Binding> seed(1, Binding(ctx.NumSlots(), rdf::kInvalidTermId));
  GroupEvaluator ge(&ctx, cancel);
  LUSAIL_ASSIGN_OR_RETURN(std::vector<Binding> rows,
                          ge.Eval(query.where, std::move(seed), max_rows));

  ResultTable table;
  if (query.form == QueryForm::kAsk) {
    if (!rows.empty()) table.rows.push_back({});
    return table;
  }

  if (query.aggregate.has_value()) {
    const CountAggregate& agg = *query.aggregate;
    uint64_t count = 0;
    if (!agg.var.has_value()) {
      count = rows.size();
    } else {
      int slot = ctx.LookupSlot(agg.var->name);
      if (agg.distinct) {
        std::unordered_set<TermId> seen;
        for (const Binding& row : rows) {
          if (slot >= 0 && row[slot] != rdf::kInvalidTermId) {
            seen.insert(row[slot]);
          }
        }
        count = seen.size();
      } else {
        for (const Binding& row : rows) {
          if (slot >= 0 && row[slot] != rdf::kInvalidTermId) ++count;
        }
      }
    }
    table.vars.push_back(agg.alias.name);
    table.rows.push_back({rdf::Term::Integer(static_cast<int64_t>(count))});
    return table;
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
  for (const Variable& v : projection) {
    table.vars.push_back(v.name);
    slots.push_back(ctx.LookupSlot(v.name));
  }

  // Project (optionally deduplicating on the projected ids).
  std::vector<std::vector<TermId>> projected;
  projected.reserve(rows.size());
  std::unordered_set<std::vector<TermId>, IdRowHash> seen;
  for (const Binding& row : rows) {
    std::vector<TermId> p;
    p.reserve(slots.size());
    for (int slot : slots) {
      p.push_back(slot >= 0 ? row[slot] : rdf::kInvalidTermId);
    }
    if (query.distinct && !seen.insert(p).second) continue;
    projected.push_back(std::move(p));
  }

  // With ORDER BY the full result is decoded and sorted before the
  // LIMIT/OFFSET window is cut; otherwise decode only the window.
  size_t begin = std::min<size_t>(query.offset.value_or(0), projected.size());
  size_t end = projected.size();
  if (query.order_by.empty() && query.limit.has_value()) {
    end = std::min(end, begin + *query.limit);
  }
  size_t decode_begin = query.order_by.empty() ? begin : 0;
  size_t decode_end = query.order_by.empty() ? end : projected.size();
  table.rows.reserve(decode_end - decode_begin);
  for (size_t i = decode_begin; i < decode_end; ++i) {
    std::vector<std::optional<Term>> out_row;
    out_row.reserve(projected[i].size());
    for (TermId id : projected[i]) {
      if (id == rdf::kInvalidTermId) {
        out_row.push_back(std::nullopt);
      } else {
        out_row.push_back(ctx.TermFor(id));
      }
    }
    table.rows.push_back(std::move(out_row));
  }
  if (!query.order_by.empty()) {
    SortRows(&table, query.order_by);
    size_t window_end = table.rows.size();
    if (query.limit.has_value()) {
      window_end = std::min(window_end, begin + *query.limit);
    }
    if (begin > table.rows.size()) begin = table.rows.size();
    table.rows.assign(table.rows.begin() + begin,
                      table.rows.begin() + window_end);
  }
  if (table.vars.size() != visible) {
    table.vars.resize(visible);
    for (auto& row : table.rows) row.resize(visible);
  }
  return table;
}

Result<bool> Evaluator::Ask(const Query& query) const {
  Query ask = query;
  ask.form = QueryForm::kAsk;
  LUSAIL_ASSIGN_OR_RETURN(ResultTable table, Execute(ask));
  return !table.rows.empty();
}

}  // namespace lusail::sparql

#include "sparql/probe.h"

#include <charconv>
#include <limits>

#include "sparql/serializer.h"

namespace lusail::sparql {

namespace {

/// The index a batched answer's tag names, when it is one of [0, n).
std::optional<size_t> TagIndex(const rdf::Term* tag, size_t n) {
  if (tag == nullptr || !tag->is_literal()) return std::nullopt;
  const std::string_view lex = tag->lexical();
  if (lex.empty() || lex.size() > 19) return std::nullopt;
  size_t value = 0;
  for (char c : lex) {
    if (c < '0' || c > '9') return std::nullopt;
    value = value * 10 + static_cast<size_t>(c - '0');
  }
  if (value >= n) return std::nullopt;
  return value;
}

bool Mentions(const Expr& e, const std::string& var) {
  if (e.op == ExprOp::kVar && e.var.name == var) return true;
  for (const Expr& arg : e.args) {
    if (Mentions(arg, var)) return true;
  }
  return false;
}

/// True when `var` occurs in `gp`; with `skip_values`, not counting the
/// group's own VALUES blocks.
bool Mentions(const GraphPattern& gp, const std::string& var,
              bool skip_values) {
  for (const TriplePattern& tp : gp.triples) {
    for (const TermOrVar* slot : {&tp.s, &tp.p, &tp.o}) {
      if (slot->is_variable() && slot->var().name == var) return true;
    }
  }
  for (const Expr& f : gp.filters) {
    if (Mentions(f, var)) return true;
  }
  for (const ExistsFilter& ef : gp.exists_filters) {
    if (Mentions(ef.pattern, var, false)) return true;
  }
  for (const GraphPattern& opt : gp.optionals) {
    if (Mentions(opt, var, false)) return true;
  }
  for (const auto& chain : gp.unions) {
    for (const GraphPattern& alt : chain) {
      if (Mentions(alt, var, false)) return true;
    }
  }
  if (!skip_values) {
    for (const ValuesClause& vc : gp.values) {
      for (const Variable& v : vc.vars) {
        if (v.name == var) return true;
      }
    }
  }
  return false;
}

int ColumnOf(const std::vector<std::string>& vars, const std::string& var) {
  for (size_t i = 0; i < vars.size(); ++i) {
    if (vars[i] == var) return static_cast<int>(i);
  }
  return -1;
}

}  // namespace

std::string ProbeBody(const TriplePattern& tp,
                      const std::vector<const Expr*>& filters) {
  std::string body = tp.ToString() + " . ";
  for (const Expr* f : filters) {
    body += "FILTER (" + ExprToString(*f) + ") ";
  }
  return body;
}

std::string ProbeBody(const GraphPattern& group) {
  const std::string text = GraphPatternToString(group);  // "{ body}"
  return text.substr(2, text.size() - 3);
}

std::string ProbeText(ProbeKind kind, const std::vector<std::string>& bodies) {
  const std::string tag = std::string("?") + kProbeTag;
  if (bodies.size() == 1) {
    return (kind == ProbeKind::kAsk ? "ASK { "
                                    : "SELECT (COUNT(*) AS ?c) WHERE { ") +
           bodies[0] + "}";
  }
  std::string text = kind == ProbeKind::kAsk
                         ? "SELECT DISTINCT " + tag + " WHERE { "
                         : "SELECT " + tag + " (COUNT(*) AS ?c) WHERE { ";
  for (size_t i = 0; i < bodies.size(); ++i) {
    if (i > 0) text += "UNION ";
    text += "{ VALUES " + tag + " { " + std::to_string(i) + " } " +
            bodies[i] + "} ";
  }
  text += "}";
  if (kind == ProbeKind::kCount) text += " GROUP BY " + tag;
  return text;
}

std::optional<ProbeBatch> MatchProbeBatch(const Query& query) {
  const GraphPattern& where = query.where;
  if (query.form != QueryForm::kSelect || query.select_all ||
      query.projection.size() != 1 || !query.order_by.empty() ||
      query.limit.has_value() || query.offset.has_value() ||
      where.unions.size() != 1 || where.unions[0].size() < 2 ||
      !where.triples.empty() || !where.filters.empty() ||
      !where.exists_filters.empty() || !where.optionals.empty() ||
      !where.values.empty()) {
    return std::nullopt;
  }
  ProbeBatch batch;
  const Variable& tag = query.projection[0];
  batch.tag_var = tag.name;
  if (query.aggregate.has_value()) {
    const CountAggregate& agg = *query.aggregate;
    if (agg.var.has_value() || query.distinct || query.group_by != tag) {
      return std::nullopt;
    }
    batch.kind = ProbeKind::kCount;
    batch.count_alias = agg.alias.name;
  } else if (!query.distinct || query.group_by.has_value()) {
    return std::nullopt;
  }
  for (const GraphPattern& alt : where.unions[0]) {
    if (alt.values.size() != 1) return std::nullopt;
    const ValuesClause& vc = alt.values[0];
    if (vc.vars.size() != 1 || vc.vars[0] != tag || vc.rows.size() != 1 ||
        vc.rows[0].size() != 1 || !vc.rows[0][0].has_value()) {
      return std::nullopt;
    }
    if (Mentions(alt, tag.name, /*skip_values=*/true)) return std::nullopt;
    batch.branches.push_back({&*vc.rows[0][0], &alt});
  }
  return batch;
}

Result<std::vector<uint64_t>> DecodeProbeAnswer(
    ProbeKind kind, const std::vector<std::string>& vars, size_t rows,
    const ProbeCellReader& cell, size_t n) {
  std::vector<uint64_t> values(n, 0);
  if (n == 0 || rows == 0) return values;
  if (n == 1) {
    if (kind == ProbeKind::kAsk) {
      values[0] = 1;
    } else if (!vars.empty()) {
      if (const rdf::Term* count = cell(0, 0)) {
        values[0] = ParseCountLiteral(*count);
      }
    }
    return values;
  }
  const int tag_col = ColumnOf(vars, kProbeTag);
  int count_col = -1;
  if (kind == ProbeKind::kCount) {
    for (size_t i = 0; i < vars.size(); ++i) {
      if (static_cast<int>(i) != tag_col) count_col = static_cast<int>(i);
    }
  }
  if (tag_col < 0 || (kind == ProbeKind::kCount && count_col < 0)) {
    return Status::Internal("batched probe answer lacks its columns");
  }
  for (size_t r = 0; r < rows; ++r) {
    std::optional<size_t> index =
        TagIndex(cell(r, static_cast<size_t>(tag_col)), n);
    if (!index.has_value()) {
      return Status::Internal("batched probe answer names an unknown tag");
    }
    if (kind == ProbeKind::kAsk) {
      values[*index] = 1;
      continue;
    }
    if (const rdf::Term* count = cell(r, static_cast<size_t>(count_col))) {
      values[*index] = ParseCountLiteral(*count);
    }
  }
  return values;
}

Result<std::vector<uint64_t>> DecodeProbeAnswer(ProbeKind kind,
                                                const ResultTable& table,
                                                size_t n) {
  return DecodeProbeAnswer(
      kind, table.vars, table.rows.size(),
      [&table](size_t row, size_t col) -> const rdf::Term* {
        const auto& cells = table.rows[row];
        return col < cells.size() && cells[col].has_value() ? &*cells[col]
                                                            : nullptr;
      },
      n);
}

rdf::Term CountTerm(uint64_t count) {
  return rdf::Term::TypedLiteral(std::to_string(count), rdf::kXsdInteger);
}

uint64_t ParseCountLiteral(const rdf::Term& term) {
  const std::string_view lex = term.lexical();
  // Fast path: a plain decimal integer (optionally '+'-signed), which is
  // what COUNT(*) yields everywhere. from_chars keeps all 64 bits where a
  // double round-trip would round above 2^53.
  size_t start = (!lex.empty() && lex[0] == '+') ? 1 : 0;
  bool all_digits = lex.size() > start;
  for (size_t i = start; i < lex.size(); ++i) {
    if (lex[i] < '0' || lex[i] > '9') {
      all_digits = false;
      break;
    }
  }
  if (all_digits) {
    uint64_t value = 0;
    auto [end, ec] =
        std::from_chars(lex.data() + start, lex.data() + lex.size(), value);
    if (ec == std::errc::result_out_of_range) {
      return std::numeric_limits<uint64_t>::max();
    }
    if (end == lex.data() + lex.size()) return value;
  }
  // Fallback: scientific/decimal forms ("1.2e3") via double, saturating
  // instead of invoking the undefined negative/overflow casts.
  double d = term.AsDouble();
  if (!(d > 0.0)) return 0;  // NaN and negatives count as zero rows.
  if (d >= 18446744073709551615.0) return std::numeric_limits<uint64_t>::max();
  return static_cast<uint64_t>(d);
}

}  // namespace lusail::sparql

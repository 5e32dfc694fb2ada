#include "sparql/ast.h"

#include <algorithm>

namespace lusail::sparql {

std::vector<std::string> TriplePattern::VariableNames() const {
  std::vector<std::string> out;
  auto add = [&out](const TermOrVar& tv) {
    if (tv.is_variable()) {
      const std::string& name = tv.var().name;
      if (std::find(out.begin(), out.end(), name) == out.end()) {
        out.push_back(name);
      }
    }
  };
  add(s);
  add(p);
  add(o);
  return out;
}

int TriplePattern::VariableCount() const {
  return static_cast<int>(s.is_variable()) + static_cast<int>(p.is_variable()) +
         static_cast<int>(o.is_variable());
}

void Expr::CollectVariables(std::set<std::string>* out) const {
  if (op == ExprOp::kVar) {
    out->insert(var.name);
  }
  for (const Expr& arg : args) {
    arg.CollectVariables(out);
  }
}

void GraphPattern::CollectVariables(std::set<std::string>* out) const {
  for (const TriplePattern& tp : triples) {
    for (const std::string& v : tp.VariableNames()) out->insert(v);
  }
  for (const Expr& f : filters) f.CollectVariables(out);
  for (const ExistsFilter& ef : exists_filters) {
    ef.pattern.CollectVariables(out);
  }
  for (const GraphPattern& opt : optionals) opt.CollectVariables(out);
  for (const auto& chain : unions) {
    for (const GraphPattern& alt : chain) alt.CollectVariables(out);
  }
  for (const ValuesClause& vc : values) {
    for (const Variable& v : vc.vars) out->insert(v.name);
  }
}

std::vector<Variable> Query::EffectiveProjection() const {
  if (!select_all) return projection;
  std::set<std::string> names;
  where.CollectVariables(&names);
  std::vector<Variable> out;
  out.reserve(names.size());
  for (const std::string& n : names) out.push_back(Variable{n});
  return out;
}

std::optional<uint64_t> Query::PushableRowLimit() const {
  if (form != QueryForm::kSelect || !limit.has_value() || distinct ||
      aggregate.has_value() || !order_by.empty()) {
    return std::nullopt;
  }
  const uint64_t skip = offset.value_or(0);
  return *limit > UINT64_MAX - skip ? UINT64_MAX : skip + *limit;
}

}  // namespace lusail::sparql

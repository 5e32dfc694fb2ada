#include "sparql/serializer.h"

namespace lusail::sparql {

namespace {

const char* BinaryOpSymbol(ExprOp op) {
  switch (op) {
    case ExprOp::kAnd:
      return "&&";
    case ExprOp::kOr:
      return "||";
    case ExprOp::kEq:
      return "=";
    case ExprOp::kNe:
      return "!=";
    case ExprOp::kLt:
      return "<";
    case ExprOp::kLe:
      return "<=";
    case ExprOp::kGt:
      return ">";
    case ExprOp::kGe:
      return ">=";
    case ExprOp::kAdd:
      return "+";
    case ExprOp::kSub:
      return "-";
    case ExprOp::kMul:
      return "*";
    case ExprOp::kDiv:
      return "/";
    default:
      return nullptr;
  }
}

const char* FunctionName(ExprOp op) {
  switch (op) {
    case ExprOp::kBound:
      return "BOUND";
    case ExprOp::kStr:
      return "STR";
    case ExprOp::kLang:
      return "LANG";
    case ExprOp::kDatatype:
      return "DATATYPE";
    case ExprOp::kIsIri:
      return "isIRI";
    case ExprOp::kIsLiteral:
      return "isLiteral";
    case ExprOp::kIsBlank:
      return "isBlank";
    case ExprOp::kRegex:
      return "REGEX";
    case ExprOp::kContains:
      return "CONTAINS";
    case ExprOp::kStrStarts:
      return "STRSTARTS";
    case ExprOp::kSameTerm:
      return "sameTerm";
    default:
      return nullptr;
  }
}

void AppendPattern(const GraphPattern& pattern, std::string* out);

void AppendValues(const ValuesClause& vc, std::string* out) {
  out->append("VALUES ");
  bool tuple_form = vc.vars.size() != 1;
  if (tuple_form) {
    out->append("(");
    for (size_t i = 0; i < vc.vars.size(); ++i) {
      if (i > 0) out->append(" ");
      out->append(vc.vars[i].ToString());
    }
    out->append(")");
  } else {
    out->append(vc.vars[0].ToString());
  }
  out->append(" { ");
  for (const auto& row : vc.rows) {
    if (tuple_form) out->append("(");
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out->append(" ");
      out->append(row[i].has_value() ? row[i]->ToString() : "UNDEF");
    }
    if (tuple_form) out->append(")");
    out->append(" ");
  }
  out->append("}");
}

void AppendPattern(const GraphPattern& pattern, std::string* out) {
  out->append("{ ");
  for (const ValuesClause& vc : pattern.values) {
    AppendValues(vc, out);
    out->append(" ");
  }
  for (const TriplePattern& tp : pattern.triples) {
    out->append(tp.ToString());
    out->append(" . ");
  }
  for (const auto& chain : pattern.unions) {
    for (size_t i = 0; i < chain.size(); ++i) {
      if (i > 0) out->append(" UNION ");
      AppendPattern(chain[i], out);
    }
    out->append(" ");
  }
  for (const GraphPattern& opt : pattern.optionals) {
    out->append("OPTIONAL ");
    AppendPattern(opt, out);
    out->append(" ");
  }
  for (const Expr& f : pattern.filters) {
    out->append("FILTER (");
    out->append(ExprToString(f));
    out->append(") ");
  }
  for (const auto& ef : pattern.exists_filters) {
    out->append(ef.negated ? "FILTER NOT EXISTS " : "FILTER EXISTS ");
    AppendPattern(ef.pattern, out);
    out->append(" ");
  }
  out->append("}");
}

}  // namespace

std::string ExprToString(const Expr& expr) {
  switch (expr.op) {
    case ExprOp::kVar:
      return expr.var.ToString();
    case ExprOp::kConst:
      return expr.constant.ToString();
    case ExprOp::kNot:
      return "(! " + ExprToString(expr.args[0]) + ")";
    default:
      break;
  }
  if (const char* sym = BinaryOpSymbol(expr.op)) {
    return "(" + ExprToString(expr.args[0]) + " " + sym + " " +
           ExprToString(expr.args[1]) + ")";
  }
  const char* fn = FunctionName(expr.op);
  std::string out = fn ? fn : "UNKNOWN";
  out += "(";
  for (size_t i = 0; i < expr.args.size(); ++i) {
    if (i > 0) out += ", ";
    out += ExprToString(expr.args[i]);
  }
  out += ")";
  return out;
}

std::string GraphPatternToString(const GraphPattern& pattern) {
  std::string out;
  AppendPattern(pattern, &out);
  return out;
}

std::string QueryToString(const Query& query) {
  std::string out;
  if (query.form == QueryForm::kAsk) {
    out = "ASK ";
  } else {
    out = "SELECT ";
    if (query.distinct) out += "DISTINCT ";
    if (query.select_all) {
      out += "* ";
    } else {
      for (const Variable& v : query.projection) {
        out += v.ToString();
        out += " ";
      }
    }
    if (query.aggregate.has_value()) {
      const CountAggregate& agg = *query.aggregate;
      out += "(COUNT(";
      if (!agg.var.has_value()) {
        out += "*";
      } else {
        if (agg.distinct) out += "DISTINCT ";
        out += agg.var->ToString();
      }
      out += ") AS " + agg.alias.ToString() + ") ";
    }
    out += "WHERE ";
  }
  out += GraphPatternToString(query.where);
  if (query.group_by.has_value()) {
    out += " GROUP BY " + query.group_by->ToString();
  }
  if (!query.order_by.empty()) {
    out += " ORDER BY";
    for (const OrderKey& key : query.order_by) {
      out += key.descending ? " DESC(" : " ASC(";
      out += key.var.ToString();
      out += ")";
    }
  }
  if (query.limit.has_value()) {
    out += " LIMIT " + std::to_string(*query.limit);
  }
  if (query.offset.has_value()) {
    out += " OFFSET " + std::to_string(*query.offset);
  }
  return out;
}

}  // namespace lusail::sparql

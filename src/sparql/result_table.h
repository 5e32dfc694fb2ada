#ifndef LUSAIL_SPARQL_RESULT_TABLE_H_
#define LUSAIL_SPARQL_RESULT_TABLE_H_

#include <optional>
#include <string>
#include <vector>

#include "rdf/term.h"

namespace lusail::sparql {

/// A materialized SPARQL SELECT result: one column per projected variable,
/// one row per solution. Unbound cells (from OPTIONAL or UNDEF) are
/// std::nullopt. This is the wire format endpoints return to federated
/// engines; SerializedBytes() is what the network simulator charges for a
/// response.
struct ResultTable {
  std::vector<std::string> vars;
  std::vector<std::vector<std::optional<rdf::Term>>> rows;

  size_t NumRows() const { return rows.size(); }
  size_t NumVars() const { return vars.size(); }

  /// Wire size: header plus each cell's N-Triples form plus separators.
  size_t SerializedBytes() const {
    size_t bytes = 0;
    for (const std::string& v : vars) bytes += v.size() + 2;
    for (const auto& row : rows) {
      for (const auto& cell : row) {
        bytes += cell.has_value() ? cell->SerializedSize() + 1 : 1;
      }
      bytes += 1;  // Row terminator.
    }
    return bytes;
  }

  /// Tab-separated rendering (debugging and examples).
  ///
  /// Cells are escaped with TsvEscape: a term's N-Triples form can carry
  /// raw tabs or newlines outside the quoted-literal section (IRIs, blank
  /// node labels, and language tags pass through ToString verbatim), and
  /// an unescaped occurrence silently shifts every later cell in the row.
  std::string ToTsv() const {
    std::string out;
    for (size_t i = 0; i < vars.size(); ++i) {
      if (i > 0) out += '\t';
      out += '?';
      out += vars[i];
    }
    out += '\n';
    for (const auto& row : rows) {
      for (size_t i = 0; i < row.size(); ++i) {
        if (i > 0) out += '\t';
        if (row[i].has_value()) out += TsvEscape(row[i]->ToString());
      }
      out += '\n';
    }
    return out;
  }

  /// Escapes a cell for the TSV rendering: backslash-escapes the three
  /// characters that are structural in TSV (tab, newline, carriage
  /// return) plus backslash itself so the escape is unambiguous.
  static std::string TsvEscape(const std::string& cell) {
    std::string out;
    out.reserve(cell.size());
    for (char c : cell) {
      switch (c) {
        case '\t': out += "\\t"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\\': out += "\\\\"; break;
        default: out += c;
      }
    }
    return out;
  }
};

}  // namespace lusail::sparql

#endif  // LUSAIL_SPARQL_RESULT_TABLE_H_

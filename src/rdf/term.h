#ifndef LUSAIL_RDF_TERM_H_
#define LUSAIL_RDF_TERM_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "common/status.h"

namespace lusail::rdf {

/// Kind of an RDF term.
enum class TermKind : uint8_t {
  kIri = 0,
  kLiteral = 1,
  kBlankNode = 2,
};

/// Well-known XSD datatype IRIs.
inline constexpr std::string_view kXsdInteger =
    "http://www.w3.org/2001/XMLSchema#integer";
inline constexpr std::string_view kXsdDecimal =
    "http://www.w3.org/2001/XMLSchema#decimal";
inline constexpr std::string_view kXsdDouble =
    "http://www.w3.org/2001/XMLSchema#double";
inline constexpr std::string_view kXsdString =
    "http://www.w3.org/2001/XMLSchema#string";
inline constexpr std::string_view kXsdBoolean =
    "http://www.w3.org/2001/XMLSchema#boolean";

/// The rdf:type predicate IRI.
inline constexpr std::string_view kRdfType =
    "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";

/// An RDF term: IRI, literal (with optional datatype IRI or language tag),
/// or blank node. Terms are immutable value types; equality is structural.
class Term {
 public:
  /// Default-constructs an empty IRI; only useful as a placeholder.
  Term() : kind_(TermKind::kIri) {}

  /// Creates an IRI term.
  static Term Iri(std::string iri);

  /// Creates a plain (xsd:string) literal.
  static Term Literal(std::string lexical);

  /// Creates a typed literal.
  static Term TypedLiteral(std::string lexical, std::string datatype);

  /// Creates a language-tagged literal.
  static Term LangLiteral(std::string lexical, std::string lang);

  /// Creates an xsd:integer literal.
  static Term Integer(int64_t value);

  /// Creates an xsd:double literal.
  static Term Double(double value);

  /// Creates a blank node with the given label (no leading "_:").
  static Term BlankNode(std::string label);

  TermKind kind() const { return kind_; }
  bool is_iri() const { return kind_ == TermKind::kIri; }
  bool is_literal() const { return kind_ == TermKind::kLiteral; }
  bool is_blank() const { return kind_ == TermKind::kBlankNode; }

  /// The lexical form: IRI string, literal value, or blank-node label.
  const std::string& lexical() const { return lexical_; }

  /// Datatype IRI for literals ("" when plain or language-tagged).
  const std::string& datatype() const { return datatype_; }

  /// Language tag for literals ("" when absent).
  const std::string& lang() const { return lang_; }

  /// True for literals whose datatype is a numeric XSD type.
  bool IsNumeric() const;

  /// Parses the lexical form as a double. Requires IsNumeric().
  double AsDouble() const;

  /// N-Triples serialization: <iri>, "lit"^^<dt>, "lit"@lang, _:label.
  std::string ToString() const;

  /// ToString().size(), escapes included, without building the string.
  size_t SerializedSize() const;

  /// Parses a single N-Triples-syntax token into a Term.
  static Result<Term> Parse(std::string_view token);

  bool operator==(const Term& other) const {
    return kind_ == other.kind_ && lexical_ == other.lexical_ &&
           datatype_ == other.datatype_ && lang_ == other.lang_;
  }
  bool operator!=(const Term& other) const { return !(*this == other); }

  /// Total order for use in sorted containers (kind, lexical, datatype,
  /// lang).
  bool operator<(const Term& other) const;

  /// Hash over all fields, 8 bytes per step. Each field's length is
  /// folded in ahead of its bytes, so ("ab","c") and ("a","bc") separate.
  /// core::TermDictionary places terms in shards by this hash, so a change
  /// to it must bump that dictionary's snapshot version.
  size_t Hash() const;

 private:
  TermKind kind_;
  std::string lexical_;
  std::string datatype_;
  std::string lang_;
};

/// std::hash adapter for Term.
struct TermHash {
  size_t operator()(const Term& t) const { return t.Hash(); }
};

}  // namespace lusail::rdf

#endif  // LUSAIL_RDF_TERM_H_

#ifndef LUSAIL_RDF_TERM_H_
#define LUSAIL_RDF_TERM_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>

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
/// or blank node. Terms are immutable values; equality is structural.
///
/// A Term is one pointer to an immutable, reference-counted block that
/// holds the kind, the three field lengths and the field bytes back to
/// back, allocated at its exact size. Copying a term bumps the count
/// (relaxed), so every store, dictionary and answer holding the same
/// term shares one copy of its bytes; the last handle frees the block.
/// The default term and an empty IRI hold no block and allocate nothing.
/// Copies and drops of one term are safe from any number of threads.
class Term {
 public:
  /// Default-constructs an empty IRI; only useful as a placeholder.
  Term() = default;

  Term(const Term& other) noexcept : rep_(other.rep_) {
    if (rep_ != nullptr) rep_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  Term(Term&& other) noexcept : rep_(other.rep_) { other.rep_ = nullptr; }
  Term& operator=(const Term& other) noexcept {
    Term copy(other);
    std::swap(rep_, copy.rep_);
    return *this;
  }
  Term& operator=(Term&& other) noexcept {
    Term taken(std::move(other));
    std::swap(rep_, taken.rep_);
    return *this;
  }
  ~Term() {
    if (rep_ != nullptr) Release(rep_);
  }

  /// Creates an IRI term.
  static Term Iri(std::string_view iri);

  /// Creates a plain (xsd:string) literal.
  static Term Literal(std::string_view lexical);

  /// Creates a typed literal.
  static Term TypedLiteral(std::string_view lexical, std::string_view datatype);

  /// Creates a language-tagged literal.
  static Term LangLiteral(std::string_view lexical, std::string_view lang);

  /// Creates an xsd:integer literal.
  static Term Integer(int64_t value);

  /// Creates an xsd:double literal.
  static Term Double(double value);

  /// Creates a blank node with the given label (no leading "_:").
  static Term BlankNode(std::string_view label);

  /// Creates a term with exactly these fields. The named factories above
  /// are this with the fields they leave empty.
  static Term FromFields(TermKind kind, std::string_view lexical,
                         std::string_view datatype, std::string_view lang);

  TermKind kind() const {
    return rep_ != nullptr ? rep_->kind : TermKind::kIri;
  }
  bool is_iri() const { return kind() == TermKind::kIri; }
  bool is_literal() const { return kind() == TermKind::kLiteral; }
  bool is_blank() const { return kind() == TermKind::kBlankNode; }

  // The fields view the term's block: valid while any copy of the term
  // lives.

  /// The lexical form: IRI string, literal value, or blank-node label.
  std::string_view lexical() const {
    if (rep_ == nullptr) return {};
    return {rep_->bytes(), rep_->lexical_size};
  }

  /// Datatype IRI for literals ("" when plain or language-tagged).
  std::string_view datatype() const {
    if (rep_ == nullptr) return {};
    return {rep_->bytes() + rep_->lexical_size, rep_->datatype_size};
  }

  /// Language tag for literals ("" when absent).
  std::string_view lang() const {
    if (rep_ == nullptr) return {};
    return {rep_->bytes() + rep_->lexical_size + rep_->datatype_size,
            rep_->lang_size};
  }

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
    return rep_ == other.rep_ || SameFields(other);
  }
  bool operator!=(const Term& other) const { return !(*this == other); }

  /// True when this term's fields are exactly these: equality with
  /// FromFields(kind, lexical, datatype, lang), without building it.
  bool HasFields(TermKind kind, std::string_view lexical,
                 std::string_view datatype, std::string_view lang) const {
    return this->kind() == kind && this->lexical() == lexical &&
           this->datatype() == datatype && this->lang() == lang;
  }

  /// Total order for use in sorted containers (kind, lexical, datatype,
  /// lang).
  bool operator<(const Term& other) const;

  /// Hash over all fields, 8 bytes per step. Each field's length is
  /// folded in ahead of its bytes, so ("ab","c") and ("a","bc") separate.
  /// core::TermDictionary places terms in shards by this hash, so a change
  /// to it must bump that dictionary's snapshot version.
  size_t Hash() const {
    return HashFields(kind(), lexical(), datatype(), lang());
  }

  /// Hash() of FromFields(kind, lexical, datatype, lang), without
  /// building the term.
  static size_t HashFields(TermKind kind, std::string_view lexical,
                           std::string_view datatype, std::string_view lang);

  /// Resident bytes of this handle's block (0 for a term without one):
  /// what one more distinct term costs whoever holds the first handle.
  size_t BlockBytes() const;

 private:
  /// The shared block: this header, then lexical, datatype and lang back
  /// to back. Counts and lengths are 32-bit: FromFields rejects fields
  /// of 4 GiB or more in total, and 2^32 handles to one block would need
  /// 32 GiB of handles.
  struct Rep {
    std::atomic<uint32_t> refs;
    TermKind kind;
    uint32_t lexical_size;
    uint32_t datatype_size;
    uint32_t lang_size;
    char* bytes() { return reinterpret_cast<char*>(this + 1); }
    const char* bytes() const {
      return reinterpret_cast<const char*>(this + 1);
    }
  };

  static void Release(Rep* rep) {
    if (rep->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) Free(rep);
  }
  static void Free(Rep* rep);
  bool SameFields(const Term& other) const;

  Rep* rep_ = nullptr;
};

/// std::hash adapter for Term.
struct TermHash {
  size_t operator()(const Term& t) const { return t.Hash(); }
};

}  // namespace lusail::rdf

#endif  // LUSAIL_RDF_TERM_H_

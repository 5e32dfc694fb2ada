#include "rdf/term.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
#include <stdexcept>
#include <tuple>

#include "common/string_util.h"

namespace lusail::rdf {

Term Term::FromFields(TermKind kind, std::string_view lexical,
                      std::string_view datatype, std::string_view lang) {
  Term t;
  const size_t size = lexical.size() + datatype.size() + lang.size();
  if (kind == TermKind::kIri && size == 0) return t;
  if (size > std::numeric_limits<uint32_t>::max()) {
    throw std::length_error("rdf::Term fields exceed 4 GiB");
  }
  void* block = ::operator new(sizeof(Rep) + size);
  t.rep_ = new (block) Rep{{1},
                           kind,
                           static_cast<uint32_t>(lexical.size()),
                           static_cast<uint32_t>(datatype.size()),
                           static_cast<uint32_t>(lang.size())};
  char* out = t.rep_->bytes();
  // memcpy of an empty view may see a null pointer; skip those.
  if (!lexical.empty()) std::memcpy(out, lexical.data(), lexical.size());
  out += lexical.size();
  if (!datatype.empty()) std::memcpy(out, datatype.data(), datatype.size());
  out += datatype.size();
  if (!lang.empty()) std::memcpy(out, lang.data(), lang.size());
  return t;
}

void Term::Free(Rep* rep) {
  rep->~Rep();
  ::operator delete(rep);
}

bool Term::SameFields(const Term& other) const {
  // A term without a block is the empty IRI, and no block holds that.
  if (rep_ == nullptr || other.rep_ == nullptr) return false;
  const Rep& a = *rep_;
  const Rep& b = *other.rep_;
  return a.kind == b.kind && a.lexical_size == b.lexical_size &&
         a.datatype_size == b.datatype_size && a.lang_size == b.lang_size &&
         std::memcmp(a.bytes(), b.bytes(),
                     size_t{a.lexical_size} + a.datatype_size + a.lang_size) ==
             0;
}

size_t Term::BlockBytes() const {
  if (rep_ == nullptr) return 0;
  return sizeof(Rep) + rep_->lexical_size + rep_->datatype_size +
         rep_->lang_size;
}

Term Term::Iri(std::string_view iri) {
  return FromFields(TermKind::kIri, iri, {}, {});
}

Term Term::Literal(std::string_view lexical) {
  return FromFields(TermKind::kLiteral, lexical, {}, {});
}

Term Term::TypedLiteral(std::string_view lexical, std::string_view datatype) {
  return FromFields(TermKind::kLiteral, lexical, datatype, {});
}

Term Term::LangLiteral(std::string_view lexical, std::string_view lang) {
  return FromFields(TermKind::kLiteral, lexical, {}, lang);
}

Term Term::Integer(int64_t value) {
  char buf[24];
  const char* end = std::to_chars(buf, buf + sizeof(buf), value).ptr;
  return TypedLiteral(std::string_view(buf, static_cast<size_t>(end - buf)),
                      kXsdInteger);
}

Term Term::Double(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", value);
  return TypedLiteral(buf, kXsdDouble);
}

Term Term::BlankNode(std::string_view label) {
  return FromFields(TermKind::kBlankNode, label, {}, {});
}

bool Term::IsNumeric() const {
  if (!is_literal()) return false;
  const std::string_view dt = datatype();
  return dt == kXsdInteger || dt == kXsdDecimal || dt == kXsdDouble;
}

double Term::AsDouble() const {
  // strtod needs a terminated string; the block's bytes are not.
  return std::strtod(std::string(lexical()).c_str(), nullptr);
}

std::string Term::ToString() const {
  std::string out;
  out.reserve(SerializedSize());
  switch (kind()) {
    case TermKind::kIri:
      out.append("<").append(lexical()).append(">");
      break;
    case TermKind::kBlankNode:
      out.append("_:").append(lexical());
      break;
    case TermKind::kLiteral:
      out.append("\"").append(EscapeLiteral(lexical())).append("\"");
      if (!lang().empty()) {
        out.append("@").append(lang());
      } else if (!datatype().empty()) {
        out.append("^^<").append(datatype()).append(">");
      }
      break;
  }
  return out;
}

size_t Term::SerializedSize() const {
  switch (kind()) {
    case TermKind::kIri:
    case TermKind::kBlankNode:
      return lexical().size() + 2;  // <iri> or _:label
    case TermKind::kLiteral: {
      size_t size = EscapedLiteralSize(lexical()) + 2;
      if (!lang().empty()) {
        size += lang().size() + 1;  // @lang
      } else if (!datatype().empty()) {
        size += datatype().size() + 4;  // ^^<dt>
      }
      return size;
    }
  }
  return 0;
}

Result<Term> Term::Parse(std::string_view token) {
  token = StripWhitespace(token);
  if (token.empty()) {
    return Status::ParseError("empty term token");
  }
  if (token.front() == '<') {
    if (token.back() != '>') {
      return Status::ParseError("unterminated IRI: " + std::string(token));
    }
    return Term::Iri(token.substr(1, token.size() - 2));
  }
  if (StartsWith(token, "_:")) {
    return Term::BlankNode(token.substr(2));
  }
  if (token.front() == '"') {
    // Find the closing quote, honoring backslash escapes.
    size_t close = std::string_view::npos;
    for (size_t i = 1; i < token.size(); ++i) {
      if (token[i] == '\\') {
        ++i;
        continue;
      }
      if (token[i] == '"') {
        close = i;
        break;
      }
    }
    if (close == std::string_view::npos) {
      return Status::ParseError("unterminated literal: " + std::string(token));
    }
    std::string lexical = UnescapeLiteral(token.substr(1, close - 1));
    std::string_view rest = token.substr(close + 1);
    if (rest.empty()) {
      return Term::Literal(lexical);
    }
    if (rest.front() == '@') {
      return Term::LangLiteral(lexical, rest.substr(1));
    }
    if (StartsWith(rest, "^^<") && rest.back() == '>') {
      return Term::TypedLiteral(lexical, rest.substr(3, rest.size() - 4));
    }
    return Status::ParseError("malformed literal suffix: " +
                              std::string(token));
  }
  return Status::ParseError("unrecognized term token: " + std::string(token));
}

bool Term::operator<(const Term& other) const {
  return std::tuple(kind(), lexical(), datatype(), lang()) <
         std::tuple(other.kind(), other.lexical(), other.datatype(),
                    other.lang());
}

namespace {

/// 64x64 -> 128-bit multiply folded to 64 bits: one multiply mixes every
/// input bit into the result.
inline uint64_t Mum(uint64_t a, uint64_t b) {
  unsigned __int128 product = static_cast<unsigned __int128>(a) * b;
  return static_cast<uint64_t>(product) ^
         static_cast<uint64_t>(product >> 64);
}

constexpr uint64_t kHashLength = 0xa0761d6478bd642fULL;
constexpr uint64_t kHashWord = 0xe7037ed1a0b428dbULL;

/// Folds `field`'s length, then its bytes 8 at a time, into `h`.
inline uint64_t HashField(uint64_t h, std::string_view field) {
  const char* p = field.data();
  size_t n = field.size();
  h = Mum(h ^ n, kHashLength);
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t word = 0;
    std::memcpy(&word, p, 8);
    h = Mum(h ^ word, kHashWord);
  }
  if (n > 0) {
    uint64_t word = 0;
    std::memcpy(&word, p, n);
    h = Mum(h ^ word, kHashWord);
  }
  return h;
}

}  // namespace

size_t Term::HashFields(TermKind kind, std::string_view lexical,
                        std::string_view datatype, std::string_view lang) {
  uint64_t h = 0x8ebc6af09c88c6e3ULL ^ static_cast<uint64_t>(kind);
  h = HashField(h, lexical);
  h = HashField(h, datatype);
  h = HashField(h, lang);
  return h;
}

}  // namespace lusail::rdf

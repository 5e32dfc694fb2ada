#include "rdf/term.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <tuple>

#include "common/string_util.h"

namespace lusail::rdf {

Term Term::Iri(std::string iri) {
  Term t;
  t.kind_ = TermKind::kIri;
  t.lexical_ = std::move(iri);
  return t;
}

Term Term::Literal(std::string lexical) {
  Term t;
  t.kind_ = TermKind::kLiteral;
  t.lexical_ = std::move(lexical);
  return t;
}

Term Term::TypedLiteral(std::string lexical, std::string datatype) {
  Term t;
  t.kind_ = TermKind::kLiteral;
  t.lexical_ = std::move(lexical);
  t.datatype_ = std::move(datatype);
  return t;
}

Term Term::LangLiteral(std::string lexical, std::string lang) {
  Term t;
  t.kind_ = TermKind::kLiteral;
  t.lexical_ = std::move(lexical);
  t.lang_ = std::move(lang);
  return t;
}

Term Term::Integer(int64_t value) {
  return TypedLiteral(std::to_string(value), std::string(kXsdInteger));
}

Term Term::Double(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", value);
  return TypedLiteral(buf, std::string(kXsdDouble));
}

Term Term::BlankNode(std::string label) {
  Term t;
  t.kind_ = TermKind::kBlankNode;
  t.lexical_ = std::move(label);
  return t;
}

bool Term::IsNumeric() const {
  return kind_ == TermKind::kLiteral &&
         (datatype_ == kXsdInteger || datatype_ == kXsdDecimal ||
          datatype_ == kXsdDouble);
}

double Term::AsDouble() const { return std::strtod(lexical_.c_str(), nullptr); }

std::string Term::ToString() const {
  switch (kind_) {
    case TermKind::kIri:
      return "<" + lexical_ + ">";
    case TermKind::kBlankNode:
      return "_:" + lexical_;
    case TermKind::kLiteral: {
      std::string out = "\"" + EscapeLiteral(lexical_) + "\"";
      if (!lang_.empty()) {
        out += "@" + lang_;
      } else if (!datatype_.empty()) {
        out += "^^<" + datatype_ + ">";
      }
      return out;
    }
  }
  return "";
}

size_t Term::SerializedSize() const {
  switch (kind_) {
    case TermKind::kIri:
    case TermKind::kBlankNode:
      return lexical_.size() + 2;  // <iri> or _:label
    case TermKind::kLiteral: {
      size_t size = EscapedLiteralSize(lexical_) + 2;
      if (!lang_.empty()) {
        size += lang_.size() + 1;  // @lang
      } else if (!datatype_.empty()) {
        size += datatype_.size() + 4;  // ^^<dt>
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
    return Term::Iri(std::string(token.substr(1, token.size() - 2)));
  }
  if (StartsWith(token, "_:")) {
    return Term::BlankNode(std::string(token.substr(2)));
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
      return Term::Literal(std::move(lexical));
    }
    if (rest.front() == '@') {
      return Term::LangLiteral(std::move(lexical), std::string(rest.substr(1)));
    }
    if (StartsWith(rest, "^^<") && rest.back() == '>') {
      return Term::TypedLiteral(std::move(lexical),
                                std::string(rest.substr(3, rest.size() - 4)));
    }
    return Status::ParseError("malformed literal suffix: " +
                              std::string(token));
  }
  return Status::ParseError("unrecognized term token: " + std::string(token));
}

bool Term::operator<(const Term& other) const {
  return std::tie(kind_, lexical_, datatype_, lang_) <
         std::tie(other.kind_, other.lexical_, other.datatype_, other.lang_);
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
inline uint64_t HashField(uint64_t h, const std::string& field) {
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

size_t Term::Hash() const {
  uint64_t h = 0x8ebc6af09c88c6e3ULL ^ static_cast<uint64_t>(kind_);
  h = HashField(h, lexical_);
  h = HashField(h, datatype_);
  h = HashField(h, lang_);
  return h;
}

}  // namespace lusail::rdf

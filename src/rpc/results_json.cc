#include "rpc/results_json.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <iterator>
#include <unordered_map>
#include <utility>

#include "common/stopwatch.h"
#include "obs/json.h"

namespace lusail::rpc {

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

namespace {

/// Rows resolved per TermSource::TermBatch call, which bounds the
/// cell-pointer scratch of a large answer.
constexpr size_t kWriteBlockRows = 4096;

/// The bytes obs::JsonEscape rewrites: '"', '\\' and the C0 controls.
constexpr std::array<bool, 256> MakeEscapeTable() {
  std::array<bool, 256> table{};
  for (int c = 0; c < 0x20; ++c) table[c] = true;
  table['"'] = true;
  table['\\'] = true;
  return table;
}
constexpr std::array<bool, 256> kNeedsEscape = MakeEscapeTable();

/// Appends `s` as a JSON string body, byte-identical to obs::JsonEscape;
/// runs that need no escape are copied in bulk.
void AppendEscaped(std::string_view s, std::string* out) {
  const char* p = s.data();
  const char* const end = p + s.size();
  while (p < end) {
    const char* run = p;
    while (p < end && !kNeedsEscape[static_cast<unsigned char>(*p)]) ++p;
    out->append(run, static_cast<size_t>(p - run));
    if (p == end) break;
    const auto c = static_cast<unsigned char>(*p++);
    switch (c) {
      case '"': out->append("\\\""); break;
      case '\\': out->append("\\\\"); break;
      case '\n': out->append("\\n"); break;
      case '\r': out->append("\\r"); break;
      case '\t': out->append("\\t"); break;
      case '\b': out->append("\\b"); break;
      case '\f': out->append("\\f"); break;
      default: {
        static constexpr char kHex[] = "0123456789abcdef";
        const char escape[6] = {'\\', 'u', '0', '0', kHex[c >> 4],
                                kHex[c & 0xF]};
        out->append(escape, sizeof(escape));
      }
    }
  }
}

void AppendQuoted(std::string_view s, std::string* out) {
  out->push_back('"');
  AppendEscaped(s, out);
  out->push_back('"');
}

void AppendTerm(const rdf::Term& term, std::string* out) {
  switch (term.kind()) {
    case rdf::TermKind::kIri:
      out->append("{\"type\":\"uri\",\"value\":\"");
      break;
    case rdf::TermKind::kBlankNode:
      out->append("{\"type\":\"bnode\",\"value\":\"");
      break;
    case rdf::TermKind::kLiteral:
      out->append("{\"type\":\"literal\",\"value\":\"");
      break;
  }
  AppendEscaped(term.lexical(), out);
  out->push_back('"');
  if (term.is_literal()) {
    if (!term.lang().empty()) {
      out->append(",\"xml:lang\":");
      AppendQuoted(term.lang(), out);
    } else if (!term.datatype().empty()) {
      out->append(",\"datatype\":");
      AppendQuoted(term.datatype(), out);
    }
  }
  out->push_back('}');
}

/// Each var's `"name":` member prefix, escaped once per call.
std::vector<std::string> MemberKeys(const std::vector<std::string>& vars) {
  std::vector<std::string> keys;
  keys.reserve(vars.size());
  for (const std::string& var : vars) {
    std::string key;
    AppendQuoted(var, &key);
    key.push_back(':');
    keys.push_back(std::move(key));
  }
  return keys;
}

/// Appends rows [0, n) as binding objects. `cell(r, c)` is the term of
/// row r in column c, or null when unbound (the member is omitted).
template <typename CellFn>
void AppendRows(const std::vector<std::string>& keys, size_t n, CellFn cell,
                bool* first, std::string* out) {
  for (size_t r = 0; r < n; ++r) {
    if (!*first) out->push_back(',');
    *first = false;
    out->push_back('{');
    bool first_member = true;
    for (size_t c = 0; c < keys.size(); ++c) {
      const rdf::Term* term = cell(r, c);
      if (term == nullptr) continue;
      if (!first_member) out->push_back(',');
      first_member = false;
      out->append(keys[c]);
      AppendTerm(*term, out);
    }
    out->push_back('}');
  }
}

void AppendResultRows(const sparql::ResultTable& table, bool* first,
                      std::string* out) {
  AppendRows(
      MemberKeys(table.vars), table.rows.size(),
      [&table](size_t r, size_t c) -> const rdf::Term* {
        const auto& row = table.rows[r];
        return c < row.size() && row[c].has_value() ? &*row[c] : nullptr;
      },
      first, out);
}

std::string AskSrj(bool holds) {
  return holds ? "{\"head\":{},\"boolean\":true}"
               : "{\"head\":{},\"boolean\":false}";
}

}  // namespace

std::string SrjStreamPrefix(const std::vector<std::string>& vars) {
  std::string out = "{\"head\":{\"vars\":[";
  for (size_t i = 0; i < vars.size(); ++i) {
    if (i > 0) out.push_back(',');
    AppendQuoted(vars[i], &out);
  }
  out.append("]},\"results\":{\"bindings\":[");
  return out;
}

std::string SrjStreamSuffix() { return "]}}"; }

void AppendSrjBindings(const core::IdTable& batch,
                       const rdf::TermSource& terms, bool* first,
                       std::string* out) {
  Stopwatch timer;
  const size_t n = batch.NumRows();
  const size_t k = batch.NumVars();
  const std::vector<std::string> keys = MemberKeys(batch.vars);
  std::vector<const rdf::Term*> cells(std::min(n, kWriteBlockRows) * k);
  for (size_t begin = 0; begin < n; begin += kWriteBlockRows) {
    const size_t rows = std::min(kWriteBlockRows, n - begin);
    for (size_t c = 0; c < k; ++c) {
      const std::vector<rdf::TermId>& ids = batch.Column(c);
      const rdf::Term** column = cells.data() + c * rows;
      if (ids.empty()) {
        std::fill(column, column + rows, nullptr);  // All-unbound column.
      } else {
        terms.TermBatch(ids.data() + begin, rows, column);
      }
    }
    AppendRows(
        keys, rows,
        [&cells, rows](size_t r, size_t c) { return cells[c * rows + r]; },
        first, out);
  }
  terms.AddDecodeBatch(timer.ElapsedMillis() / 1e3,
                       static_cast<uint64_t>(n * k));
}

std::string IdTableToSrj(const core::IdTable& table,
                         const rdf::TermSource& terms) {
  if (table.vars.empty()) return AskSrj(table.NumRows() > 0);
  std::string out = SrjStreamPrefix(table.vars);
  bool first = true;
  AppendSrjBindings(table, terms, &first, &out);
  out.append(SrjStreamSuffix());
  return out;
}

std::string ResultTableToSrj(const sparql::ResultTable& table) {
  if (table.vars.empty()) return AskSrj(!table.rows.empty());
  std::string out = SrjStreamPrefix(table.vars);
  bool first = true;
  AppendResultRows(table, &first, &out);
  out.append(SrjStreamSuffix());
  return out;
}

std::string SrjStreamBindings(const sparql::ResultTable& batch, bool* first) {
  std::string out;
  AppendResultRows(batch, first, &out);
  return out;
}

// ---------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------

namespace internal {

/// One resumable pass over an SRJ body. The JSON grammar is the one
/// obs::JsonValue::Parse accepts (its whitespace set, its lenient number
/// runs, its escapes), with nesting capped at obs::kJsonMaxDepth; on top
/// of it, each value is read in the role its position gives it (the
/// head's vars, a binding, a term's "value", ...) and values with no
/// role are checked and skipped. Strings are found with memchr and
/// unescaped only when they hold a backslash; a string cut by the end of
/// a Feed is carried into the next one. Term objects in the writer's own
/// shape are matched in one step (FastTerm). A term is interned when its
/// value object closes, and a binding becomes a row when its object
/// closes. Every rejection is kInvalidArgument.
class SrjScanner {
 public:
  explicit SrjScanner(core::TermDictionary* dict) : dict_(dict) {}

  Status Feed(std::string_view bytes) {
    if (!error_.ok()) return error_;
    chunk_ = bytes.data();
    Scan(bytes.data(), bytes.data() + bytes.size());
    offset_ += bytes.size();
    return error_;
  }

  Status Finish() {
    if (error_.ok() && expect_ != Expect::kEnd) {
      chunk_ = nullptr;
      Fail(nullptr, "truncated SRJ document");
    }
    return error_;
  }

  bool vars_known() const { return vars_done_ || complete_; }
  const std::vector<std::string>& vars() const { return vars_; }
  size_t pending_rows() const { return pending_.NumRows(); }
  uint64_t total_rows() const { return total_rows_; }
  uint64_t cells() const { return cells_; }

  core::IdTable TakeRows() {
    core::IdTable out = std::move(pending_);
    pending_ = core::IdTable(vars_);
    return out;
  }

 private:
  /// What the next non-whitespace byte may be, or the token being read.
  enum class Expect : uint8_t {
    kValue,          ///< A value (document start, after ':' or ',').
    kValueOrClose,   ///< After '[': a value or ']'.
    kKeyOrClose,     ///< After '{': a key or '}'.
    kKey,            ///< After ',' in an object.
    kColon,          ///< After a key.
    kCommaOrClose,   ///< After a member or element.
    kEnd,            ///< After the root: whitespace only.
    kString,         ///< Inside a string (key or value).
    kNumber,         ///< Inside a number run.
    kWord,           ///< Inside true / false / null.
  };

  /// What a value means where it stands.
  enum class Role : uint8_t {
    kRoot,
    kHead,
    kBoolean,
    kVars,
    kVar,
    kResults,
    kBindings,
    kBinding,
    kTerm,
    kTermType,
    kTermValue,
    kTermLang,
    kTermDatatype,
    kSkip,  ///< Checked for syntax, otherwise ignored.
  };

  enum class Kind : uint8_t { kObject, kArray, kString, kNumber, kBool, kNull };

  struct Frame {
    bool object;
    Role role;
  };

  static bool IsSpace(unsigned char c) {
    // isspace() in the C locale, as obs::JsonValue::Parse skips it.
    return c == ' ' || (c >= '\t' && c <= '\r');
  }
  static bool IsDigit(unsigned char c) { return c >= '0' && c <= '9'; }
  static bool IsNumberByte(unsigned char c) {
    return IsDigit(c) || c == '.' || c == 'e' || c == 'E' || c == '+' ||
           c == '-';
  }

  /// Records the rejection and returns false (every step returns false
  /// once error_ is set, so the scan stops).
  bool Fail(const char* at, const std::string& what) {
    const size_t offset =
        offset_ + (at != nullptr && chunk_ != nullptr
                       ? static_cast<size_t>(at - chunk_)
                       : 0);
    error_ = Status::InvalidArgument("SRJ parse error at offset " +
                                     std::to_string(offset) + ": " + what);
    return false;
  }

  bool Scan(const char* p, const char* end) {
    while (p < end) {
      const auto c = static_cast<unsigned char>(*p);
      switch (expect_) {
        case Expect::kString:
          if (!ScanString(&p, end)) return false;
          continue;
        case Expect::kNumber:
          if (IsNumberByte(c)) {
            digit_ = digit_ || IsDigit(c);
            ++p;
            continue;
          }
          if (!digit_) return Fail(p, "invalid number");
          AfterValue();
          continue;  // `c` belongs to what follows the number.
        case Expect::kWord:
          if (c != static_cast<unsigned char>(word_[word_pos_])) {
            return Fail(p, "invalid literal");
          }
          ++p;
          if (word_[++word_pos_] == '\0') EndWord();
          continue;
        default:
          break;
      }
      if (IsSpace(c)) {
        ++p;
        continue;
      }
      switch (expect_) {
        case Expect::kValueOrClose:
          if (c == ']') {
            if (!Close(p++)) return false;
            break;
          }
          [[fallthrough]];
        case Expect::kValue:
          if (!BeginValue(&p, end)) return false;
          break;
        case Expect::kKeyOrClose:
          if (c == '}') {
            if (!Close(p++)) return false;
            break;
          }
          [[fallthrough]];
        case Expect::kKey:
          if (c != '"') return Fail(p, "expected object key string");
          BeginString(/*key=*/true);
          ++p;
          break;
        case Expect::kColon:
          if (c != ':') return Fail(p, "expected ':' after object key");
          expect_ = Expect::kValue;
          ++p;
          break;
        case Expect::kCommaOrClose: {
          const Frame& top = stack_.back();
          if (c == ',') {
            expect_ = top.object ? Expect::kKey : Expect::kValue;
            if (!top.object) value_role_ = ElementRole(top.role);
            ++p;
          } else if (c == (top.object ? '}' : ']')) {
            if (!Close(p++)) return false;
          } else {
            return Fail(p, top.object ? "expected ',' or '}' in object"
                                      : "expected ',' or ']' in array");
          }
          break;
        }
        case Expect::kEnd:
          return Fail(p, "trailing characters after JSON value");
        default:
          return Fail(p, "internal scanner state");
      }
    }
    return true;
  }

  bool BeginValue(const char** pp, const char* end) {
    const char* p = *pp;
    const auto c = static_cast<unsigned char>(*p);
    switch (c) {
      case '{':
        if (value_role_ == Role::kTerm) {
          if (const char* after = FastTerm(p, end)) {
            *pp = after;
            return true;
          }
        }
        [[fallthrough]];
      case '[': {
        const bool object = c == '{';
        if (!Admit(object ? Kind::kObject : Kind::kArray, p)) return false;
        if (stack_.size() >= static_cast<size_t>(obs::kJsonMaxDepth)) {
          return Fail(p, "JSON nesting deeper than " +
                             std::to_string(obs::kJsonMaxDepth));
        }
        stack_.push_back(Frame{object, value_role_});
        Open(value_role_);
        expect_ = object ? Expect::kKeyOrClose : Expect::kValueOrClose;
        if (!object) value_role_ = ElementRole(stack_.back().role);
        break;
      }
      case '"':
        if (!Admit(Kind::kString, p)) return false;
        BeginString(/*key=*/false);
        break;
      case 't':
      case 'f':
      case 'n':
        if (!Admit(c == 'n' ? Kind::kNull : Kind::kBool, p)) return false;
        word_ = c == 't' ? "true" : c == 'f' ? "false" : "null";
        word_pos_ = 1;
        expect_ = Expect::kWord;
        break;
      default:
        if (!IsNumberByte(c)) return Fail(p, "invalid number");
        if (!Admit(Kind::kNumber, p)) return false;
        digit_ = IsDigit(c);
        expect_ = Expect::kNumber;
        break;
    }
    *pp = p + 1;
    return true;
  }

  /// The kind of value each role (in Role order) expects, and the
  /// rejection when another kind stands there; with no message, the
  /// value only means "absent" and is skipped.
  struct Expectation {
    Kind kind;
    const char* error;
  };
  static constexpr Expectation kExpected[] = {
      {Kind::kObject, "SRJ document is not a JSON object"},
      {Kind::kObject, "SRJ document has no \"head\" object"},
      {Kind::kBool, nullptr},
      {Kind::kArray, "SRJ head has neither \"vars\" nor a boolean result"},
      {Kind::kString, "SRJ head var is not a string"},
      {Kind::kObject, "SRJ document has no \"results\" object"},
      {Kind::kArray, "SRJ results have no \"bindings\" array"},
      {Kind::kObject, "SRJ binding is not an object"},
      {Kind::kObject, "SRJ binding value is not an object"},
      {Kind::kString, nullptr},
      {Kind::kString, nullptr},
      {Kind::kString, nullptr},
      {Kind::kString, nullptr},
  };
  static_assert(std::size(kExpected) == static_cast<size_t>(Role::kSkip));

  /// Checks a value of `kind` against its role.
  bool Admit(Kind kind, const char* at) {
    if (value_role_ == Role::kSkip) return true;
    const Expectation& expected = kExpected[static_cast<size_t>(value_role_)];
    if (kind == expected.kind) return true;
    if (expected.error != nullptr) return Fail(at, expected.error);
    value_role_ = Role::kSkip;
    return true;
  }

  static Role ElementRole(Role array) {
    switch (array) {
      case Role::kVars: return Role::kVar;
      case Role::kBindings: return Role::kBinding;
      default: return Role::kSkip;
    }
  }

  /// Marks a member as seen; only the first occurrence of a key counts,
  /// as obs::JsonValue::Get returns the first.
  static Role FirstOnly(bool* seen, Role role) {
    if (*seen) return Role::kSkip;
    *seen = true;
    return role;
  }

  bool OnKey(std::string_view key, const char* at) {
    Role role = Role::kSkip;
    switch (stack_.back().role) {
      case Role::kRoot:
        if (key == "head") {
          role = FirstOnly(&seen_head_, Role::kHead);
        } else if (key == "boolean") {
          role = FirstOnly(&seen_boolean_, Role::kBoolean);
        } else if (key == "results") {
          // Once the answer is known to be boolean, the results object is
          // not read (a boolean after it cannot excuse its errors).
          role = FirstOnly(&seen_results_,
                           ask_ ? Role::kSkip : Role::kResults);
        }
        break;
      case Role::kHead:
        if (key == "vars") {
          role = FirstOnly(&seen_vars_, ask_ ? Role::kSkip : Role::kVars);
        }
        break;
      case Role::kResults:
        if (key == "bindings") {
          role = FirstOnly(&seen_bindings_, Role::kBindings);
        }
        break;
      case Role::kBinding:
        if (!ColumnOf(key, at)) return false;
        role = Role::kTerm;
        break;
      case Role::kTerm:
        if (key == "type") {
          role = FirstOnly(&seen_type_, Role::kTermType);
        } else if (key == "value") {
          role = FirstOnly(&seen_value_, Role::kTermValue);
        } else if (key == "xml:lang") {
          role = FirstOnly(&seen_lang_, Role::kTermLang);
        } else if (key == "datatype") {
          role = FirstOnly(&seen_datatype_, Role::kTermDatatype);
        }
        break;
      default:
        break;
    }
    value_role_ = role;
    expect_ = Expect::kColon;
    return true;
  }

  /// Sets col_ to the row slot of binding member `var`: its head column
  /// (the first, if the head repeats it), or a provisional column when
  /// the head's vars have not been seen yet.
  bool ColumnOf(std::string_view var, const char* at) {
    if (!binding_direct_) {
      auto [slot, added] =
          early_cols_.try_emplace(std::string(var), early_.vars.size());
      if (added) early_.vars.emplace_back(var);
      col_ = slot->second;
      if (row_.size() <= col_) row_.resize(col_ + 1, rdf::kInvalidTermId);
      return true;
    }
    // Bindings usually list their vars in head order: try the next one
    // first when the head names each var once.
    if (vars_unique_ && next_col_ < vars_.size() && vars_[next_col_] == var) {
      col_ = next_col_;
    } else {
      auto slot = var_cols_.find(var);
      if (slot == var_cols_.end()) {
        return Fail(at, "SRJ binding references variable \"" +
                            std::string(var) + "\" absent from head");
      }
      col_ = slot->second;
    }
    next_col_ = col_ + 1;
    return true;
  }

  /// Strings up to this long are scanned byte by byte, not with memchr.
  static constexpr ptrdiff_t kShortString = 16;

  void Open(Role role) {
    if (role == Role::kBinding) {
      binding_direct_ = vars_done_;
      row_.assign(binding_direct_ ? vars_.size() : early_.vars.size(),
                  rdf::kInvalidTermId);
      next_col_ = 0;
    } else if (role == Role::kTerm) {
      seen_type_ = seen_value_ = seen_lang_ = seen_datatype_ = false;
      has_type_ = has_value_ = has_lang_ = has_datatype_ = false;
    }
  }

  bool Close(const char* at) {
    const Role role = stack_.back().role;
    stack_.pop_back();
    switch (role) {
      case Role::kVars: {
        vars_done_ = true;
        pending_.vars = vars_;
        // Hashed, so a head of many vars costs no quadratic scan; a
        // repeated var maps to its first column.
        for (size_t i = 0; i < vars_.size(); ++i) {
          var_cols_.try_emplace(vars_[i], i);
        }
        vars_unique_ = var_cols_.size() == vars_.size();
        break;
      }
      case Role::kTerm:
        if (!InternTerm(at)) return false;
        break;
      case Role::kBinding:
        if (binding_direct_) {
          pending_.AppendRow(row_);
          ++total_rows_;
        } else {
          early_.AppendRow(row_);
        }
        break;
      case Role::kRoot:
        if (!Complete(at)) return false;
        break;
      default:
        break;
    }
    AfterValue();
    return true;
  }

  /// Interns the term a value object describes into the current cell,
  /// straight from the views; false for an unknown type.
  bool InternValue(std::string_view type, std::string_view value,
                   bool has_lang, std::string_view lang, bool has_datatype,
                   std::string_view datatype) {
    rdf::TermKind kind;
    std::string_view term_datatype, term_lang;
    if (type == "uri") {
      kind = rdf::TermKind::kIri;
    } else if (type == "bnode") {
      kind = rdf::TermKind::kBlankNode;
    } else if (type == "literal" || type == "typed-literal") {
      // Precedence (see results_json.h): a non-empty language tag wins
      // over a datatype; an empty xml:lang means "no language".
      kind = rdf::TermKind::kLiteral;
      if (has_lang && !lang.empty()) {
        term_lang = lang;
      } else if (has_datatype) {
        term_datatype = datatype;
      }
    } else {
      return false;
    }
    row_[col_] = dict_->InternFields(kind, value, term_datatype, term_lang);
    ++cells_;
    return true;
  }

  bool InternTerm(const char* at) {
    if (!has_type_ || !has_value_) {
      return Fail(at,
                  "SRJ binding value needs string \"type\" and \"value\" "
                  "members");
    }
    if (!InternValue(type_, value_, has_lang_, lang_, has_datatype_,
                     datatype_)) {
      return Fail(at, "unknown SRJ term type \"" + type_ + "\"");
    }
    return true;
  }

  /// `lit` at p: the byte after it, or null.
  static const char* SkipLiteral(const char* p, const char* end,
                                 std::string_view lit) {
    if (static_cast<size_t>(end - p) < lit.size() ||
        std::memcmp(p, lit.data(), lit.size()) != 0) {
      return nullptr;
    }
    return p + lit.size();
  }

  /// The closing quote of a string whose body starts at p, when the body
  /// holds no backslash and ends in [p, end); else null. Keys and term
  /// types are short, so the first bytes are checked in line and longer
  /// bodies go to memchr.
  static const char* PlainStringEnd(const char* p, const char* end) {
    const char* q = p;
    const char* const short_end = end - p > kShortString ? p + kShortString
                                                         : end;
    while (q < short_end && *q != '"' && *q != '\\') ++q;
    if (q < short_end) return *q == '"' ? q : nullptr;
    const auto* quote = static_cast<const char*>(
        std::memchr(q, '"', static_cast<size_t>(end - q)));
    if (quote == nullptr ||
        std::memchr(q, '\\', static_cast<size_t>(quote - q)) != nullptr) {
      return nullptr;
    }
    return quote;
  }

  /// A plain string body at p into *out: the byte after its closing
  /// quote, or null.
  static const char* PlainString(const char* p, const char* end,
                                 std::string_view* out) {
    if (p == nullptr) return nullptr;
    const char* quote = PlainStringEnd(p, end);
    if (quote == nullptr) return nullptr;
    *out = std::string_view(p, static_cast<size_t>(quote - p));
    return quote + 1;
  }

  /// Reads the term object the writer emits — `{"type":"T","value":"V"}`,
  /// optionally with `,"xml:lang":"L"` or `,"datatype":"D"` before the
  /// `}`, with no whitespace or escape, whole in this slice — in one
  /// step. Returns the byte after its `}`, or null when the object has
  /// another shape: the byte-by-byte path then reads it and reports any
  /// error.
  const char* FastTerm(const char* p, const char* end) {
    std::string_view type, value, lang, datatype;
    p = PlainString(SkipLiteral(p, end, "{\"type\":\""), end, &type);
    if (p == nullptr) return nullptr;
    p = PlainString(SkipLiteral(p, end, ",\"value\":\""), end, &value);
    if (p == nullptr) return nullptr;
    bool has_lang = false;
    bool has_datatype = false;
    if (const char* q = SkipLiteral(p, end, ",\"xml:lang\":\"")) {
      p = PlainString(q, end, &lang);
      has_lang = true;
    } else if (const char* r = SkipLiteral(p, end, ",\"datatype\":\"")) {
      p = PlainString(r, end, &datatype);
      has_datatype = true;
    }
    if (p == nullptr || p == end || *p != '}') return nullptr;
    if (!InternValue(type, value, has_lang, lang, has_datatype, datatype)) {
      return nullptr;
    }
    AfterValue();
    return p + 1;
  }

  /// The root closed: settle the answer's shape.
  bool Complete(const char* at) {
    if (!seen_head_) return Fail(at, "SRJ document has no \"head\" object");
    if (ask_) {
      // ASK form: zero-column table with 0 or 1 rows.
      vars_.clear();
      var_cols_.clear();
      pending_ = core::IdTable();
      if (boolean_) pending_.AddEmptyRows(1);
      total_rows_ = pending_.NumRows();
    } else {
      if (!vars_done_) {
        return Fail(at, "SRJ head has neither \"vars\" nor a boolean result");
      }
      if (!seen_results_) {
        return Fail(at, "SRJ document has no \"results\" object");
      }
      if (!seen_bindings_) {
        return Fail(at, "SRJ results have no \"bindings\" array");
      }
      if (!PlaceEarlyRows(at)) return false;
    }
    complete_ = true;
    return true;
  }

  /// Moves the rows of bindings that preceded the head into head order.
  bool PlaceEarlyRows(const char* at) {
    std::vector<size_t> to_head(early_.vars.size());
    for (size_t c = 0; c < early_.vars.size(); ++c) {
      auto slot = var_cols_.find(early_.vars[c]);
      if (slot == var_cols_.end()) {
        return Fail(at, "SRJ binding references variable \"" +
                            early_.vars[c] + "\" absent from head");
      }
      to_head[c] = slot->second;
    }
    for (size_t r = 0; r < early_.NumRows(); ++r) {
      row_.assign(vars_.size(), rdf::kInvalidTermId);
      for (size_t c = 0; c < early_.vars.size(); ++c) {
        const rdf::TermId id = early_.At(r, c);
        if (id != rdf::kInvalidTermId) row_[to_head[c]] = id;
      }
      pending_.AppendRow(row_);
      ++total_rows_;
    }
    early_ = core::IdTable();
    early_cols_.clear();
    return true;
  }

  void AfterValue() {
    expect_ = stack_.empty() ? Expect::kEnd : Expect::kCommaOrClose;
  }

  void EndWord() {
    if (value_role_ == Role::kBoolean) {
      ask_ = true;
      boolean_ = word_[0] == 't';
    }
    AfterValue();
  }

  void BeginString(bool key) {
    string_is_key_ = key;
    carried_ = false;
    escaped_ = false;
    escape_pending_ = false;
    carry_.clear();
    expect_ = Expect::kString;
  }

  bool ScanString(const char** pp, const char* end) {
    const char* p = *pp;
    if (!carried_) {
      // Fast path: the whole string is in this slice, with no escape.
      if (const char* quote = PlainStringEnd(p, end)) {
        *pp = quote + 1;
        return EndString(
            std::string_view(p, static_cast<size_t>(quote - p)), quote);
      }
      carried_ = true;
    }
    // Slow path: the raw bytes collect in carry_, across slices, and are
    // unescaped once when the closing quote arrives.
    while (p < end) {
      if (escape_pending_) {
        carry_.push_back(*p++);
        escape_pending_ = false;
        continue;
      }
      const char* run = p;
      while (p < end && *p != '"' && *p != '\\') ++p;
      carry_.append(run, static_cast<size_t>(p - run));
      if (p == end) break;
      if (*p == '\\') {
        carry_.push_back(*p++);
        escape_pending_ = true;
        escaped_ = true;
        continue;
      }
      *pp = p + 1;
      if (!escaped_) return EndString(carry_, p);
      if (!Unescape(carry_, p)) return false;
      return EndString(unescaped_, p);
    }
    *pp = p;
    return true;
  }

  /// Decodes `raw`'s escapes into unescaped_, as obs::JsonValue::Parse
  /// does (\u escapes become UTF-8, with no surrogate pairing).
  bool Unescape(std::string_view raw, const char* at) {
    unescaped_.clear();
    size_t i = 0;
    while (i < raw.size()) {
      const size_t slash = raw.find('\\', i);
      const size_t stop = slash == std::string_view::npos ? raw.size() : slash;
      unescaped_.append(raw, i, stop - i);
      if (slash == std::string_view::npos) break;
      // A backslash always has a successor: the byte after it was taken
      // as escaped, so it never ends the string.
      const char escape = raw[slash + 1];
      i = slash + 2;
      switch (escape) {
        case '"': unescaped_.push_back('"'); break;
        case '\\': unescaped_.push_back('\\'); break;
        case '/': unescaped_.push_back('/'); break;
        case 'n': unescaped_.push_back('\n'); break;
        case 'r': unescaped_.push_back('\r'); break;
        case 't': unescaped_.push_back('\t'); break;
        case 'b': unescaped_.push_back('\b'); break;
        case 'f': unescaped_.push_back('\f'); break;
        case 'u': {
          if (i + 4 > raw.size()) return Fail(at, "truncated \\u escape");
          unsigned code = 0;
          for (int d = 0; d < 4; ++d) {
            const char h = raw[i++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Fail(at, "bad hex digit in \\u escape");
            }
          }
          if (code < 0x80) {
            unescaped_.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            unescaped_.push_back(static_cast<char>(0xC0 | (code >> 6)));
            unescaped_.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            unescaped_.push_back(static_cast<char>(0xE0 | (code >> 12)));
            unescaped_.push_back(
                static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            unescaped_.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return Fail(at, "unknown escape character");
      }
    }
    return true;
  }

  bool EndString(std::string_view text, const char* at) {
    if (string_is_key_) return OnKey(text, at);
    switch (value_role_) {
      case Role::kVar:
        vars_.emplace_back(text);
        break;
      case Role::kTermType:
        type_.assign(text);
        has_type_ = true;
        break;
      case Role::kTermValue:
        value_.assign(text);
        has_value_ = true;
        break;
      case Role::kTermLang:
        lang_.assign(text);
        has_lang_ = true;
        break;
      case Role::kTermDatatype:
        datatype_.assign(text);
        has_datatype_ = true;
        break;
      default:
        break;
    }
    AfterValue();
    return true;
  }

  core::TermDictionary* dict_;
  Status error_ = Status::OK();
  const char* chunk_ = nullptr;  ///< Start of the slice being scanned.
  size_t offset_ = 0;            ///< Bytes fed before that slice.

  Expect expect_ = Expect::kValue;
  Role value_role_ = Role::kRoot;  ///< Role of the next value.
  std::vector<Frame> stack_;       ///< Open containers.

  // Token state, kept across slices.
  bool string_is_key_ = false;
  bool carried_ = false;         ///< The string's bytes are in carry_.
  bool escaped_ = false;         ///< The string holds a backslash.
  bool escape_pending_ = false;  ///< The slice ended after a backslash.
  std::string carry_;
  std::string unescaped_;
  bool digit_ = false;
  const char* word_ = "";
  size_t word_pos_ = 0;

  // Document state (only the first occurrence of a member counts).
  bool seen_head_ = false;
  bool seen_boolean_ = false;
  bool seen_results_ = false;
  bool seen_vars_ = false;
  bool seen_bindings_ = false;
  bool ask_ = false;      ///< A boolean "boolean" member was read.
  bool boolean_ = false;
  bool vars_done_ = false;
  bool vars_unique_ = false;
  bool complete_ = false;
  std::vector<std::string> vars_;
  /// Each head var's first column; views into vars_, which is final once
  /// the vars array closes.
  std::unordered_map<std::string_view, size_t> var_cols_;

  // The binding and term being read.
  bool binding_direct_ = false;  ///< Columns are the head's vars.
  std::vector<rdf::TermId> row_;
  size_t col_ = 0;
  size_t next_col_ = 0;
  bool seen_type_ = false, seen_value_ = false;
  bool seen_lang_ = false, seen_datatype_ = false;
  bool has_type_ = false, has_value_ = false;
  bool has_lang_ = false, has_datatype_ = false;
  std::string type_, value_, lang_, datatype_;

  core::IdTable pending_;  ///< Rows in head order, not yet taken.
  core::IdTable early_;    ///< Rows of bindings that preceded the head.
  std::unordered_map<std::string, size_t> early_cols_;  ///< Var -> column.
  uint64_t total_rows_ = 0;
  uint64_t cells_ = 0;
};

}  // namespace internal

Result<core::IdTable> ParseSrjToIds(std::string_view text,
                                    core::TermDictionary* dict) {
  Stopwatch timer;
  internal::SrjScanner scanner(dict);
  LUSAIL_RETURN_NOT_OK(scanner.Feed(text));
  LUSAIL_RETURN_NOT_OK(scanner.Finish());
  // The whole parse is the boundary encode: terms go from wire JSON to
  // ids without a federator-side string row ever existing.
  dict->AddEncodeBatch(timer.ElapsedMillis() / 1e3, scanner.cells());
  return scanner.TakeRows();
}

Result<sparql::ResultTable> ParseSrj(std::string_view text) {
  core::TermDictionary terms;
  LUSAIL_ASSIGN_OR_RETURN(core::IdTable ids, ParseSrjToIds(text, &terms));
  return core::DecodeIdTable(ids, terms);
}

SrjChunkDecoder::SrjChunkDecoder(std::shared_ptr<core::TermDictionary> dict)
    : dict_(std::move(dict)),
      scanner_(std::make_unique<internal::SrjScanner>(dict_.get())) {}

SrjChunkDecoder::~SrjChunkDecoder() = default;

Status SrjChunkDecoder::Feed(std::string_view bytes) {
  Stopwatch timer;
  Status fed = scanner_->Feed(bytes);
  decode_seconds_since_take_ += timer.ElapsedMillis() / 1e3;
  return fed;
}

Status SrjChunkDecoder::Finish() { return scanner_->Finish(); }

bool SrjChunkDecoder::HasHead() const { return scanner_->vars_known(); }

const std::vector<std::string>& SrjChunkDecoder::vars() const {
  return scanner_->vars();
}

size_t SrjChunkDecoder::PendingRows() const {
  return scanner_->pending_rows();
}

uint64_t SrjChunkDecoder::TotalRows() const { return scanner_->total_rows(); }

core::IdTable SrjChunkDecoder::TakeIds() {
  const uint64_t cells = scanner_->cells();
  if (cells > cells_taken_) {
    // Streamed decoding is the boundary encode, batch-timed like
    // ParseSrjToIds.
    dict_->AddEncodeBatch(decode_seconds_since_take_, cells - cells_taken_);
    cells_taken_ = cells;
    decode_seconds_since_take_ = 0.0;
  }
  return scanner_->TakeRows();
}

}  // namespace lusail::rpc

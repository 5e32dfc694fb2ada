#include "obs/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace lusail::obs {

namespace {

const JsonValue& NullValue() {
  static const JsonValue null;
  return null;
}

/// Shortest decimal form that parses back to exactly the same double;
/// integers within the exact range print without an exponent or fraction.
std::string NumberToString(double d) {
  if (!std::isfinite(d)) return "0";
  double integral;
  if (std::modf(d, &integral) == 0.0 && std::fabs(d) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", d);
    return buf;
  }
  char buf[40];
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, d);
    if (std::strtod(buf, nullptr) == d) break;
  }
  return buf;
}

}  // namespace

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

const JsonValue& JsonValue::Get(const std::string& key) const {
  for (const auto& [k, v] : members_) {
    if (k == key) return v;
  }
  return NullValue();
}

void JsonValue::SerializeTo(std::string* out, int indent, int depth) const {
  auto newline = [&](int d) {
    if (indent <= 0) return;
    out->push_back('\n');
    out->append(static_cast<size_t>(indent * d), ' ');
  };
  switch (type_) {
    case Type::kNull:
      *out += "null";
      break;
    case Type::kBool:
      *out += bool_ ? "true" : "false";
      break;
    case Type::kNumber:
      *out += NumberToString(number_);
      break;
    case Type::kString:
      out->push_back('"');
      *out += JsonEscape(string_);
      out->push_back('"');
      break;
    case Type::kArray: {
      out->push_back('[');
      for (size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) out->push_back(',');
        newline(depth + 1);
        array_[i].SerializeTo(out, indent, depth + 1);
      }
      if (!array_.empty()) newline(depth);
      out->push_back(']');
      break;
    }
    case Type::kObject: {
      out->push_back('{');
      for (size_t i = 0; i < members_.size(); ++i) {
        if (i > 0) out->push_back(',');
        newline(depth + 1);
        out->push_back('"');
        *out += JsonEscape(members_[i].first);
        *out += indent > 0 ? "\": " : "\":";
        members_[i].second.SerializeTo(out, indent, depth + 1);
      }
      if (!members_.empty()) newline(depth);
      out->push_back('}');
      break;
    }
  }
}

std::string JsonValue::Serialize() const {
  std::string out;
  SerializeTo(&out, 0, 0);
  return out;
}

std::string JsonValue::Pretty() const {
  std::string out;
  SerializeTo(&out, 2, 0);
  return out;
}

bool JsonValue::operator==(const JsonValue& other) const {
  if (type_ != other.type_) return false;
  switch (type_) {
    case Type::kNull: return true;
    case Type::kBool: return bool_ == other.bool_;
    case Type::kNumber: return number_ == other.number_;
    case Type::kString: return string_ == other.string_;
    case Type::kArray: return array_ == other.array_;
    case Type::kObject: return members_ == other.members_;
  }
  return false;
}

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Result<JsonValue> Parse() {
    LUSAIL_ASSIGN_OR_RETURN(JsonValue v, ParseValue());
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON value");
    }
    return v;
  }

 private:
  Status Error(const std::string& what) const {
    return Status::InvalidArgument("JSON parse error at offset " +
                                   std::to_string(pos_) + ": " + what);
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeWord(const char* word) {
    size_t n = std::char_traits<char>::length(word);
    if (text_.compare(pos_, n, word) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }

  Result<JsonValue> ParseValue() {
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    char c = text_[pos_];
    if (c == '{' || c == '[') {
      if (depth_ >= kJsonMaxDepth) {
        return Error("nesting deeper than " + std::to_string(kJsonMaxDepth));
      }
      ++depth_;
      Result<JsonValue> container = c == '{' ? ParseObject() : ParseArray();
      --depth_;
      return container;
    }
    if (c == '"') {
      LUSAIL_ASSIGN_OR_RETURN(std::string s, ParseString());
      return JsonValue(std::move(s));
    }
    if (ConsumeWord("true")) return JsonValue(true);
    if (ConsumeWord("false")) return JsonValue(false);
    if (ConsumeWord("null")) return JsonValue();
    return ParseNumber();
  }

  Result<JsonValue> ParseObject() {
    ++pos_;  // '{'
    JsonValue obj = JsonValue::Object();
    SkipWhitespace();
    if (Consume('}')) return obj;
    while (true) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected object key string");
      }
      LUSAIL_ASSIGN_OR_RETURN(std::string key, ParseString());
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':' after object key");
      LUSAIL_ASSIGN_OR_RETURN(JsonValue v, ParseValue());
      obj.Set(std::move(key), std::move(v));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume('}')) return obj;
      return Error("expected ',' or '}' in object");
    }
  }

  Result<JsonValue> ParseArray() {
    ++pos_;  // '['
    JsonValue arr = JsonValue::Array();
    SkipWhitespace();
    if (Consume(']')) return arr;
    while (true) {
      LUSAIL_ASSIGN_OR_RETURN(JsonValue v, ParseValue());
      arr.Append(std::move(v));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume(']')) return arr;
      return Error("expected ',' or ']' in array");
    }
  }

  Result<std::string> ParseString() {
    ++pos_;  // opening quote
    std::string out;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return Error("bad hex digit in \\u escape");
          }
          // UTF-8 encode (no surrogate-pair handling; the observability
          // layer never emits non-BMP escapes).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return Error("unknown escape character");
      }
    }
    return Error("unterminated string");
  }

  Result<JsonValue> ParseNumber() {
    size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    bool digits = false;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      if (std::isdigit(static_cast<unsigned char>(text_[pos_]))) digits = true;
      ++pos_;
    }
    if (!digits) return Error("invalid number");
    return JsonValue(std::strtod(text_.substr(start, pos_ - start).c_str(),
                                 nullptr));
  }

  const std::string& text_;
  size_t pos_ = 0;
  int depth_ = 0;  ///< Containers open around pos_.
};

}  // namespace

Result<JsonValue> JsonValue::Parse(const std::string& text) {
  return Parser(text).Parse();
}

}  // namespace lusail::obs

#ifndef LUSAIL_OBS_JSON_H_
#define LUSAIL_OBS_JSON_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace lusail::obs {

/// Deepest array/object nesting JsonValue::Parse (and the rpc layer's SRJ
/// scanner) accepts. Both read bytes off the network, so the recursion
/// needs a bound well above any document this repo writes.
inline constexpr int kJsonMaxDepth = 256;

/// A minimal JSON document tree used by the observability layer: the
/// Chrome trace exporter, EXPLAIN's machine-readable form, the endpoint
/// statistics reports, and the bench metric dumps. Objects preserve
/// insertion order so serialized output is deterministic; numbers are
/// doubles serialized with enough digits to round-trip exactly.
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() : type_(Type::kNull) {}
  JsonValue(bool b) : type_(Type::kBool), bool_(b) {}
  JsonValue(double d) : type_(Type::kNumber), number_(d) {}
  JsonValue(int i) : type_(Type::kNumber), number_(i) {}
  JsonValue(int64_t i) : type_(Type::kNumber),
                         number_(static_cast<double>(i)) {}
  JsonValue(uint64_t u) : type_(Type::kNumber),
                          number_(static_cast<double>(u)) {}
  JsonValue(std::string s) : type_(Type::kString), string_(std::move(s)) {}
  JsonValue(const char* s) : type_(Type::kString), string_(s) {}

  static JsonValue Array() {
    JsonValue v;
    v.type_ = Type::kArray;
    return v;
  }
  static JsonValue Object() {
    JsonValue v;
    v.type_ = Type::kObject;
    return v;
  }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }

  bool AsBool() const { return bool_; }
  double AsDouble() const { return number_; }
  int64_t AsInt() const { return static_cast<int64_t>(number_); }
  uint64_t AsUint() const { return static_cast<uint64_t>(number_); }
  const std::string& AsString() const { return string_; }

  // --- Array access ---
  void Append(JsonValue v) { array_.push_back(std::move(v)); }
  size_t size() const {
    return type_ == Type::kObject ? members_.size() : array_.size();
  }
  const JsonValue& operator[](size_t i) const { return array_[i]; }
  const std::vector<JsonValue>& items() const { return array_; }

  // --- Object access ---
  void Set(std::string key, JsonValue v) {
    members_.emplace_back(std::move(key), std::move(v));
  }
  /// Null reference when the key is absent.
  const JsonValue& Get(const std::string& key) const;
  bool Has(const std::string& key) const { return !Get(key).is_null(); }
  const std::vector<std::pair<std::string, JsonValue>>& members() const {
    return members_;
  }

  /// Compact serialization (no whitespace).
  std::string Serialize() const;

  /// Indented serialization for humans.
  std::string Pretty() const;

  /// Parses a JSON document. Numbers become doubles; objects keep the
  /// source key order. Fails with kInvalidArgument on malformed input and
  /// on nesting deeper than kJsonMaxDepth.
  static Result<JsonValue> Parse(const std::string& text);

  bool operator==(const JsonValue& other) const;

 private:
  void SerializeTo(std::string* out, int indent, int depth) const;

  Type type_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// Escapes `s` as a JSON string literal body (no surrounding quotes).
std::string JsonEscape(const std::string& s);

}  // namespace lusail::obs

#endif  // LUSAIL_OBS_JSON_H_

// The repo's one JSON parser.
//
// It parses one RFC 8259 document into a small value tree so the
// analyzer, tools/tagnn_report and the serve request plane can consume
// metrics snapshots, run reports, ledger lines and request bodies
// without an external JSON library; obs/jsonv.hpp's "is this
// well-formed?" is a parse through it. Object key order is preserved
// (reports are written with deliberate ordering); duplicate keys keep
// the last occurrence on lookup, mirroring common JSON library
// behaviour.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tagnn::obs::analyze {

class JsonValue;

using JsonArray = std::vector<JsonValue>;
using JsonMember = std::pair<std::string, JsonValue>;
using JsonObject = std::vector<JsonMember>;

class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool as_bool(bool fallback = false) const {
    return is_bool() ? bool_ : fallback;
  }
  double as_number(double fallback = 0.0) const {
    return is_number() ? number_ : fallback;
  }
  const std::string& as_string() const { return string_; }
  const JsonArray& as_array() const { return array_; }
  const JsonObject& as_object() const { return object_; }

  /// Object member lookup (last occurrence wins); null when this is not
  /// an object or the key is absent.
  const JsonValue* find(std::string_view key) const;
  /// Dotted-path convenience: find("metrics.tagnn\\.accel\\.x") is not
  /// supported — keys contain dots here, so this walks one level per
  /// call site instead. Kept simple on purpose.
  /// Number at `key`, or fallback when absent / not a number.
  double number_at(std::string_view key, double fallback = 0.0) const;
  /// String at `key`, or fallback when absent / not a string.
  std::string string_at(std::string_view key,
                        std::string_view fallback = "") const;

  static JsonValue make_null() { return JsonValue(); }
  static JsonValue make_bool(bool b);
  static JsonValue make_number(double d);
  static JsonValue make_string(std::string s);
  static JsonValue make_array(JsonArray a);
  static JsonValue make_object(JsonObject o);

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  JsonArray array_;
  JsonObject object_;
};

/// Parses exactly one JSON document (surrounding whitespace allowed).
/// Returns false and fills `error` (if non-null) on malformed input;
/// `out` is left default-constructed in that case. NaN / Infinity
/// tokens are rejected. obs::json_valid is this call with a discarded
/// value.
bool json_parse(std::string_view text, JsonValue* out,
                std::string* error = nullptr);

}  // namespace tagnn::obs::analyze

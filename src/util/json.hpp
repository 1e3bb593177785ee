/// \file json.hpp
/// \brief The tree's one JSON codec: a minimal value type with a strict
///        parser and a canonical dump, plus the string and number encoders
///        every JSON producer writes with (the `qrc serve` wire, span
///        trees, `/debugz`, JSON log lines, training curves). Standard
///        library only, so every layer may include it.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace qrc::util {

/// A parsed JSON value. Objects keep their members sorted by key (std::map)
/// so dump() output is canonical regardless of input order.
class JsonValue {
 public:
  using Array = std::vector<JsonValue>;
  using Object = std::map<std::string, JsonValue>;

  JsonValue() : v_(nullptr) {}
  JsonValue(std::nullptr_t) : v_(nullptr) {}
  JsonValue(bool b) : v_(b) {}
  JsonValue(double d) : v_(d) {}
  JsonValue(std::string s) : v_(std::move(s)) {}
  JsonValue(const char* s) : v_(std::string(s)) {}
  JsonValue(Array a) : v_(std::move(a)) {}
  JsonValue(Object o) : v_(std::move(o)) {}

  [[nodiscard]] bool is_null() const {
    return std::holds_alternative<std::nullptr_t>(v_);
  }
  [[nodiscard]] bool is_bool() const {
    return std::holds_alternative<bool>(v_);
  }
  [[nodiscard]] bool is_number() const {
    return std::holds_alternative<double>(v_);
  }
  [[nodiscard]] bool is_string() const {
    return std::holds_alternative<std::string>(v_);
  }
  [[nodiscard]] bool is_array() const {
    return std::holds_alternative<Array>(v_);
  }
  [[nodiscard]] bool is_object() const {
    return std::holds_alternative<Object>(v_);
  }

  /// Typed accessors; throw std::runtime_error on a kind mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] const Object& as_object() const;

  /// Parses exactly one JSON value spanning the whole text (trailing
  /// whitespace allowed, trailing garbage rejected). Strings must be valid
  /// UTF-8, raw or escaped: no stray continuation bytes, overlong forms,
  /// surrogates, code points past U+10FFFF or truncated sequences.
  /// \throws std::runtime_error with a byte offset on malformed input.
  static JsonValue parse(std::string_view text);

  /// Compact canonical serialisation (no whitespace, sorted object keys,
  /// numbers via json_number()).
  [[nodiscard]] std::string dump() const;

 private:
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> v_;
};

/// `s` as a JSON string literal: surrounding quotes plus escapes for
/// quote, backslash, and control characters.
[[nodiscard]] std::string json_quote(std::string_view s);

/// `d` as a JSON number: integral values below 2^53 in magnitude as bare
/// integers (so -0 is "0"), everything else with round-trip precision,
/// and NaN or infinity, which JSON cannot express, as null.
[[nodiscard]] std::string json_number(double d);

}  // namespace qrc::util

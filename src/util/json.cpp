#include "util/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace qrc::util {

namespace {

[[noreturn]] void fail(std::size_t pos, const std::string& what) {
  throw std::runtime_error("json: " + what + " at offset " +
                           std::to_string(pos));
}

/// Strict recursive-descent JSON parser (RFC 8259 subset: no extensions,
/// no trailing commas). Depth-capped so adversarial input cannot blow the
/// stack.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse() {
    const JsonValue v = value(0);
    skip_ws();
    if (pos_ != text_.size()) {
      fail(pos_, "trailing characters");
    }
    return v;
  }

 private:
  static constexpr int kMaxDepth = 128;

  JsonValue value(int depth) {
    if (depth > kMaxDepth) {
      fail(pos_, "nesting too deep");
    }
    skip_ws();
    switch (peek()) {
      case '{':
        return object(depth);
      case '[':
        return array(depth);
      case '"':
        return JsonValue(string());
      case 't':
        expect_word("true");
        return JsonValue(true);
      case 'f':
        expect_word("false");
        return JsonValue(false);
      case 'n':
        expect_word("null");
        return JsonValue(nullptr);
      default:
        return JsonValue(number());
    }
  }

  JsonValue object(int depth) {
    ++pos_;  // '{'
    JsonValue::Object out;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return JsonValue(std::move(out));
    }
    for (;;) {
      skip_ws();
      if (peek() != '"') {
        fail(pos_, "expected object key");
      }
      std::string key = string();
      skip_ws();
      if (peek() != ':') {
        fail(pos_, "expected ':'");
      }
      ++pos_;
      out[std::move(key)] = value(depth + 1);
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        return JsonValue(std::move(out));
      }
      fail(pos_, "expected ',' or '}'");
    }
  }

  JsonValue array(int depth) {
    ++pos_;  // '['
    JsonValue::Array out;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return JsonValue(std::move(out));
    }
    for (;;) {
      out.push_back(value(depth + 1));
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        return JsonValue(std::move(out));
      }
      fail(pos_, "expected ',' or ']'");
    }
  }

  std::string string() {
    ++pos_;  // '"'
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) {
        fail(pos_, "unterminated string");
      }
      const char c = text_[pos_++];
      if (c == '"') {
        return out;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        fail(pos_ - 1, "raw control character in string");
      }
      if (static_cast<unsigned char>(c) >= 0x80) {
        raw_utf8(out, pos_ - 1);
        continue;
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) {
        fail(pos_, "unterminated escape");
      }
      const char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': unicode_escape(out); break;
        default: fail(pos_ - 1, "bad escape");
      }
    }
  }

  /// Copies the multi-byte UTF-8 sequence whose lead byte is at `lead`
  /// after checking it is well formed (RFC 3629 table 3-7): the lead
  /// byte fixes the length and the range of the first continuation byte,
  /// which rules out overlong forms, surrogates and code points past
  /// U+10FFFF.
  void raw_utf8(std::string& out, std::size_t lead) {
    const auto b0 = static_cast<unsigned char>(text_[lead]);
    std::size_t len = 0;
    unsigned char lo = 0x80;
    unsigned char hi = 0xBF;
    if (b0 >= 0xC2 && b0 <= 0xDF) {
      len = 2;
    } else if (b0 >= 0xE0 && b0 <= 0xEF) {
      len = 3;
      lo = b0 == 0xE0 ? 0xA0 : 0x80;
      hi = b0 == 0xED ? 0x9F : 0xBF;
    } else if (b0 >= 0xF0 && b0 <= 0xF4) {
      len = 4;
      lo = b0 == 0xF0 ? 0x90 : 0x80;
      hi = b0 == 0xF4 ? 0x8F : 0xBF;
    } else {
      fail(lead, "invalid UTF-8");
    }
    if (text_.size() - lead < len) {
      fail(lead, "invalid UTF-8");
    }
    for (std::size_t i = 1; i < len; ++i) {
      const auto b = static_cast<unsigned char>(text_[lead + i]);
      if (b < lo || b > hi) {
        fail(lead, "invalid UTF-8");
      }
      lo = 0x80;
      hi = 0xBF;
    }
    out.append(text_.substr(lead, len));
    pos_ = lead + len;
  }

  void unicode_escape(std::string& out) {
    unsigned int code = hex4();
    if (code >= 0xD800 && code <= 0xDBFF) {
      // High surrogate: a low surrogate must follow.
      if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
          text_[pos_ + 1] != 'u') {
        fail(pos_, "unpaired surrogate");
      }
      pos_ += 2;
      const unsigned int low = hex4();
      if (low < 0xDC00 || low > 0xDFFF) {
        fail(pos_, "invalid low surrogate");
      }
      code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
    } else if (code >= 0xDC00 && code <= 0xDFFF) {
      fail(pos_, "unpaired surrogate");
    }
    // UTF-8 encode.
    if (code < 0x80) {
      out.push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (code >> 6)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (code >> 12)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (code >> 18)));
      out.push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  unsigned int hex4() {
    if (pos_ + 4 > text_.size()) {
      fail(pos_, "truncated \\u escape");
    }
    unsigned int value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value += static_cast<unsigned int>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value += static_cast<unsigned int>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value += static_cast<unsigned int>(c - 'A' + 10);
      } else {
        fail(pos_ - 1, "bad hex digit in \\u escape");
      }
    }
    return value;
  }

  double number() {
    const std::size_t start = pos_;
    if (peek() == '-') {
      ++pos_;
    }
    if (!std::isdigit(static_cast<unsigned char>(peek()))) {
      fail(pos_, "expected value");
    }
    while (std::isdigit(static_cast<unsigned char>(peek()))) {
      ++pos_;
    }
    if (peek() == '.') {
      ++pos_;
      if (!std::isdigit(static_cast<unsigned char>(peek()))) {
        fail(pos_, "expected digit after '.'");
      }
      while (std::isdigit(static_cast<unsigned char>(peek()))) {
        ++pos_;
      }
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') {
        ++pos_;
      }
      if (!std::isdigit(static_cast<unsigned char>(peek()))) {
        fail(pos_, "expected exponent digit");
      }
      while (std::isdigit(static_cast<unsigned char>(peek()))) {
        ++pos_;
      }
    }
    const std::string token(text_.substr(start, pos_ - start));
    return std::strtod(token.c_str(), nullptr);
  }

  void expect_word(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) {
      fail(pos_, "expected value");
    }
    pos_ += word.size();
  }

  [[nodiscard]] char peek() const {
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

bool JsonValue::as_bool() const {
  if (!is_bool()) {
    throw std::runtime_error("json: not a bool");
  }
  return std::get<bool>(v_);
}

double JsonValue::as_number() const {
  if (!is_number()) {
    throw std::runtime_error("json: not a number");
  }
  return std::get<double>(v_);
}

const std::string& JsonValue::as_string() const {
  if (!is_string()) {
    throw std::runtime_error("json: not a string");
  }
  return std::get<std::string>(v_);
}

const JsonValue::Array& JsonValue::as_array() const {
  if (!is_array()) {
    throw std::runtime_error("json: not an array");
  }
  return std::get<Array>(v_);
}

const JsonValue::Object& JsonValue::as_object() const {
  if (!is_object()) {
    throw std::runtime_error("json: not an object");
  }
  return std::get<Object>(v_);
}

JsonValue JsonValue::parse(std::string_view text) {
  return Parser(text).parse();
}

std::string JsonValue::dump() const {
  if (is_null()) {
    return "null";
  }
  if (is_bool()) {
    return as_bool() ? "true" : "false";
  }
  if (is_number()) {
    return json_number(as_number());
  }
  if (is_string()) {
    return json_quote(as_string());
  }
  if (is_array()) {
    std::string out = "[";
    for (const auto& v : as_array()) {
      if (out.size() > 1) {
        out += ",";
      }
      out += v.dump();
    }
    return out + "]";
  }
  std::string out = "{";
  for (const auto& [key, v] : as_object()) {
    if (out.size() > 1) {
      out += ",";
    }
    out += json_quote(key) + ":" + v.dump();
  }
  return out + "}";
}

std::string json_quote(std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  std::size_t run = 0;  // start of the pending run of unescaped bytes
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') {
      continue;
    }
    out.append(s, run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        out += "\\u00";
        out += kHex[c >> 4];
        out += kHex[c & 0xF];
    }
  }
  out.append(s, run);
  out += '"';
  return out;
}

std::string json_number(double d) {
  if (!std::isfinite(d)) {
    return "null";  // JSON has no Inf/NaN
  }
  if (d == std::floor(d) && std::abs(d) < 9.007199254740992e15) {
    return std::to_string(static_cast<long long>(d));
  }
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", d);
  return buffer;
}

}  // namespace qrc::util

#include "service/jsonl.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "ir/qasm.hpp"
#include "verify/equivalence.hpp"

namespace qrc::service {

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

std::string dump_number(double d) {
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
    return dump_number(as_number());
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

namespace {

[[noreturn]] void bad_request(const std::string& what) {
  throw ServiceError(ErrorCode::kBadRequest, what);
}

}  // namespace

ServeRequest parse_serve_request(std::string_view line) {
  JsonValue v;
  try {
    v = JsonValue::parse(line);
  } catch (const std::exception& e) {
    bad_request(e.what());
  }
  if (!v.is_object()) {
    bad_request("request must be a JSON object");
  }
  const auto& obj = v.as_object();

  ServeRequest request;
  // Envelope first. A line without "v":1 is refused with its own code, so
  // an old or future client gets a machine-readable signal.
  if (const auto it = obj.find("v");
      it == obj.end() || !it->second.is_number() ||
      it->second.as_number() != 1.0) {
    throw ServiceError(ErrorCode::kUnsupportedVersion,
                       "unsupported protocol version; this server speaks "
                       "v1 only (add \"v\":1)");
  }
  if (const auto it = obj.find("op"); it != obj.end()) {
    if (!it->second.is_string()) {
      bad_request("'op' must be a string");
    }
    const std::string& op = it->second.as_string();
    if (op == "compile") {
      request.op = ServeOp::kCompile;
    } else if (op == "stats") {
      request.op = ServeOp::kStats;
    } else if (op == "ping") {
      request.op = ServeOp::kPing;
    } else if (op == "metrics") {
      request.op = ServeOp::kMetrics;
    } else if (op == "debug_dump") {
      request.op = ServeOp::kDebugDump;
    } else if (op == "profile") {
      request.op = ServeOp::kProfile;
    } else {
      bad_request("unknown op '" + op +
                  "' (expected compile, stats, ping, metrics, "
                  "debug_dump or profile)");
    }
  }

  // Unknown fields are hard errors: a client typo ("verifi": true) must
  // surface as an error line, not silently change behaviour. Control
  // ops accept the envelope fields only.
  const bool compile = request.op == ServeOp::kCompile;
  const bool profile = request.op == ServeOp::kProfile;
  for (const auto& [key, value] : obj) {
    if (key == "id" || key == "v" || key == "op") {
      continue;
    }
    if (compile && (key == "model" || key == "qasm" || key == "verify" ||
                    key == "search" || key == "deadline_ms" ||
                    key == "trace")) {
      continue;
    }
    if (profile && (key == "seconds" || key == "hz")) {
      continue;
    }
    bad_request("unknown request field '" + key +
                (compile ? "' (expected v, op, id, model, qasm, verify, "
                           "search, deadline_ms, trace)"
                 : profile
                     ? "' (a profile op takes only v, op, id, seconds, hz)"
                     : "' (a control op takes only v, op, id)"));
  }
  if (const auto it = obj.find("id"); it != obj.end()) {
    if (it->second.is_string()) {
      request.id = it->second.as_string();
    } else if (it->second.is_number()) {
      request.id = dump_number(it->second.as_number());
    } else {
      bad_request("'id' must be a string or number");
    }
  }
  if (profile) {
    // Bounds mirror obs::Profiler's: the wire surface must fail loudly
    // (typed bad_request) before a session ever starts.
    if (const auto it = obj.find("seconds"); it != obj.end()) {
      if (!it->second.is_number() || !(it->second.as_number() > 0.0) ||
          it->second.as_number() > 60.0) {
        bad_request("'seconds' must be a number in (0, 60]");
      }
      request.profile_seconds = it->second.as_number();
    }
    if (const auto it = obj.find("hz"); it != obj.end()) {
      if (!it->second.is_number() || it->second.as_number() < 1.0 ||
          it->second.as_number() > 1000.0 ||
          it->second.as_number() != std::floor(it->second.as_number())) {
        bad_request("'hz' must be an integer in [1, 1000]");
      }
      request.profile_hz = static_cast<int>(it->second.as_number());
    }
    return request;
  }
  if (!compile) {
    return request;
  }
  if (const auto it = obj.find("model"); it != obj.end()) {
    if (!it->second.is_string()) {
      bad_request("'model' must be a string");
    }
    request.model = it->second.as_string();
  }
  if (const auto it = obj.find("verify"); it != obj.end()) {
    if (!it->second.is_bool()) {
      bad_request("'verify' must be a boolean");
    }
    request.verify = it->second.as_bool();
  }
  if (const auto it = obj.find("trace"); it != obj.end()) {
    if (!it->second.is_bool()) {
      bad_request("'trace' must be a boolean");
    }
    request.trace = it->second.as_bool();
  }
  if (const auto it = obj.find("search"); it != obj.end()) {
    if (!it->second.is_string()) {
      bad_request("'search' must be a string like \"beam:8\" or "
                  "\"mcts:400\"");
    }
    try {
      request.search = search::parse_spec(it->second.as_string());
    } catch (const std::exception& e) {
      bad_request(e.what());
    }
  }
  if (const auto it = obj.find("deadline_ms"); it != obj.end()) {
    if (!request.search.has_value()) {
      bad_request("'deadline_ms' requires 'search'");
    }
    // Bounded above so the double-to-int64 cast cannot overflow (and a
    // client cannot request a year-long deadline by typo).
    constexpr double kMaxDeadlineMs = 1e9;  // ~11.5 days
    if (!it->second.is_number() || it->second.as_number() < 1.0 ||
        it->second.as_number() > kMaxDeadlineMs ||
        it->second.as_number() !=
            std::floor(it->second.as_number())) {
      bad_request("'deadline_ms' must be a positive integer <= 1e9");
    }
    request.search->deadline_ms =
        static_cast<std::int64_t>(it->second.as_number());
  }
  const auto it = obj.find("qasm");
  if (it == obj.end() || !it->second.is_string()) {
    bad_request("missing required string field 'qasm'");
  }
  request.qasm = it->second.as_string();
  return request;
}

std::string extract_request_id(std::string_view line) {
  try {
    const JsonValue v = JsonValue::parse(line);
    if (!v.is_object()) {
      return "";
    }
    const auto& obj = v.as_object();
    const auto it = obj.find("id");
    if (it == obj.end()) {
      return "";
    }
    if (it->second.is_string()) {
      return it->second.as_string();
    }
    if (it->second.is_number()) {
      return dump_number(it->second.as_number());
    }
  } catch (const std::exception&) {
    // Malformed line: no id to recover.
  }
  return "";
}

std::string serve_response_line(const ServiceResponse& r) {
  std::string out = "{\"id\":" + json_quote(r.id) +
                    ",\"type\":\"result\",\"model\":" + json_quote(r.model);
  out += ",\"qasm\":" + json_quote(ir::to_qasm(r.result.circuit));
  out += ",\"reward\":" + dump_number(r.result.reward);
  out += ",\"device\":";
  out += r.result.device != nullptr ? json_quote(r.result.device->name())
                                    : "null";
  out += ",\"used_fallback\":";
  out += r.result.used_fallback ? "true" : "false";
  out += ",\"cached\":";
  out += r.cached ? "true" : "false";
  out += ",\"latency_us\":" + std::to_string(r.latency_us);
  if (r.result.verification.has_value()) {
    const auto& v = *r.result.verification;
    out += ",\"verdict\":" + json_quote(verify::verdict_name(v.verdict));
    out += ",\"verify_method\":" + json_quote(verify::method_name(v.method));
    out += ",\"verify_confidence\":" + dump_number(v.confidence);
  }
  if (r.result.search_stats.has_value()) {
    const auto& s = *r.result.search_stats;
    out += ",\"search\":" +
           json_quote(std::string(search::strategy_name(s.strategy)) + ":" +
                      std::to_string(s.budget));
    out += ",\"search_nodes\":" + std::to_string(s.nodes_expanded);
    out += ",\"search_improved\":";
    out += s.improved ? "true" : "false";
    out += ",\"search_deadline_hit\":";
    out += s.deadline_hit ? "true" : "false";
    out += ",\"search_reward_delta\":" +
           dump_number(r.result.reward - s.baseline_reward);
  }
  if (r.trace != nullptr) {
    out += ",\"trace\":" + r.trace->to_json();
  }
  return out + "}";
}

std::string serve_partial_line(std::string_view id,
                               const search::SearchProgress& progress) {
  std::string out = "{\"id\":" + json_quote(id);
  out += ",\"type\":\"partial\"";
  out += ",\"strategy\":" +
         json_quote(search::strategy_name(progress.strategy));
  out += ",\"quantum\":" + std::to_string(progress.quantum);
  out += ",\"nodes\":" + std::to_string(progress.nodes_expanded);
  out += ",\"found_terminal\":";
  out += progress.found_terminal ? "true" : "false";
  out += ",\"best_reward\":" + dump_number(progress.best_reward);
  out += ",\"elapsed_us\":" + std::to_string(progress.elapsed_us);
  return out + "}";
}

std::string serve_error_line(std::string_view id, ErrorCode code,
                             std::string_view message) {
  return "{\"id\":" + json_quote(id) +
         ",\"type\":\"error\",\"error\":{\"code\":" +
         json_quote(error_code_name(code)) +
         ",\"message\":" + json_quote(message) + "}}";
}

std::string serve_pong_line(std::string_view id) {
  return "{\"id\":" + json_quote(id) +
         ",\"type\":\"result\",\"op\":\"ping\"}";
}

std::string serve_metrics_line(std::string_view id,
                               std::string_view exposition) {
  return "{\"id\":" + json_quote(id) +
         ",\"type\":\"result\",\"op\":\"metrics\"" +
         ",\"content_type\":\"text/plain; version=0.0.4\"" +
         ",\"body\":" + json_quote(exposition) + "}";
}

std::string serve_debug_dump_line(std::string_view id,
                                  std::string_view events_json) {
  return "{\"id\":" + json_quote(id) +
         ",\"type\":\"result\",\"op\":\"debug_dump\",\"events\":" +
         std::string(events_json) + "}";
}

std::string serve_profile_line(std::string_view id, std::string_view folded,
                               std::uint64_t samples) {
  return "{\"id\":" + json_quote(id) +
         ",\"type\":\"result\",\"op\":\"profile\",\"samples\":" +
         std::to_string(samples) + ",\"folded\":" + json_quote(folded) + "}";
}

}  // namespace qrc::service

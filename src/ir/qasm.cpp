#include "ir/qasm.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "la/complex.hpp"

namespace qrc::ir {

namespace {

void append_int(std::string& out, int v) {
  char buffer[16];
  const auto res = std::to_chars(buffer, buffer + sizeof(buffer), v);
  out.append(buffer, res.ptr);
}

/// `%.15g`, the text an ostream prints at precision(15).
void append_param(std::string& out, double v) {
  char buffer[32];
  const auto res = std::to_chars(buffer, buffer + sizeof(buffer), v,
                                 std::chars_format::general, 15);
  out.append(buffer, res.ptr);
}

/// The text an ostream prints under std::hexfloat, which libstdc++ takes
/// from printf's `%a` in the C locale.
void append_hexfloat(std::string& out, double v) {
  char buffer[32];
  const int n = std::snprintf(buffer, sizeof(buffer), "%a", v);
  out.append(buffer, static_cast<std::size_t>(n));
}

void append_qubit(std::string& out, int q) {
  out += "q[";
  append_int(out, q);
  out += ']';
}

}  // namespace

std::string to_qasm(const Circuit& circuit) {
  std::string out;
  out.reserve(64 + 32 * circuit.ops().size());
  out += "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[";
  append_int(out, circuit.num_qubits());
  out += "];\ncreg c[";
  append_int(out, circuit.num_qubits());
  out += "];\n";
  for (const Operation& op : circuit.ops()) {
    if (op.kind() == GateKind::kBarrier) {
      out += "barrier q;\n";
      continue;
    }
    if (op.kind() == GateKind::kMeasure) {
      out += "measure ";
      append_qubit(out, op.qubit(0));
      out += " -> c[";
      append_int(out, op.qubit(0));
      out += "];\n";
      continue;
    }
    if (op.kind() == GateKind::kReset) {
      out += "reset ";
      append_qubit(out, op.qubit(0));
      out += ";\n";
      continue;
    }
    out += gate_name(op.kind());
    if (op.num_params() > 0) {
      out += '(';
      for (int i = 0; i < op.num_params(); ++i) {
        if (i > 0) {
          out += ',';
        }
        append_param(out, op.param(i));
      }
      out += ')';
    }
    out += ' ';
    for (int i = 0; i < op.num_qubits(); ++i) {
      if (i > 0) {
        out += ',';
      }
      append_qubit(out, op.qubit(i));
    }
    out += ";\n";
  }
  return out;
}

std::string canonical_key(const Circuit& circuit) {
  std::string out;
  out.reserve(32 + 24 * circuit.ops().size());
  // -0.0 == 0.0 under Circuit::operator==, so fold the sign away to keep
  // the key-equality <-> circuit-equality contract.
  const auto canonical = [](double v) { return v == 0.0 ? 0.0 : v; };
  out += 'q';
  append_int(out, circuit.num_qubits());
  out += ";gp";
  append_hexfloat(out, canonical(circuit.global_phase()));
  out += ';';
  for (const Operation& op : circuit.ops()) {
    out += gate_name(op.kind());
    if (op.num_params() > 0) {
      out += '(';
      for (int i = 0; i < op.num_params(); ++i) {
        if (i > 0) {
          out += ',';
        }
        append_hexfloat(out, canonical(op.param(i)));
      }
      out += ')';
    }
    for (int i = 0; i < op.num_qubits(); ++i) {
      out += i > 0 ? ',' : ' ';
      append_int(out, op.qubit(i));
    }
    out += ';';
  }
  return out;
}

namespace {

// The C locale's character classes, the only locale the library runs in.
constexpr bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}
constexpr bool is_alpha(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}
constexpr bool is_digit(char c) { return c >= '0' && c <= '9'; }
/// A byte that can continue an identifier.
constexpr bool is_word(char c) {
  return is_alpha(c) || is_digit(c) || c == '_';
}

/// True if `s` opens with the keyword `word`, whole: `cregs` and `qregq`
/// do not open with `creg` and `qreg`.
bool starts_with_keyword(std::string_view s, std::string_view word) {
  return s.starts_with(word) &&
         (s.size() == word.size() || !is_word(s[word.size()]));
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && is_space(s.front())) {
    s.remove_prefix(1);
  }
  while (!s.empty() && is_space(s.back())) {
    s.remove_suffix(1);
  }
  return s;
}

/// Recursive-descent parser for one parameter expression:
///   expr := term (('+'|'-') term)*
///   term := factor (('*'|'/') factor)*
///   factor := number | 'pi' | ('-'|'+') factor | '(' expr ')'
/// Parentheses and unary signs nest at most kMaxDepth levels deep, so
/// hostile input cannot exhaust the stack, and every intermediate value
/// must be finite: a gate angle of NaN or infinity has no meaning.
/// Numbers are decimal reals read by std::from_chars in place, so the
/// parse is linear in the length of the expression.
class ExprParser {
 public:
  explicit ExprParser(std::string_view text) : text_(text) {}

  double parse() {
    const double v = expr();
    skip_ws();
    if (pos_ != text_.size()) {
      throw std::runtime_error("trailing characters in expression: " +
                               std::string(text_));
    }
    return v;
  }

 private:
  static constexpr int kMaxDepth = 128;

  static double finite(double v) {
    if (!std::isfinite(v)) {
      throw std::runtime_error("expression value is not finite");
    }
    return v;
  }

  double expr() {
    double v = term();
    for (;;) {
      skip_ws();
      if (peek() == '+') {
        ++pos_;
        v = finite(v + term());
      } else if (peek() == '-') {
        ++pos_;
        v = finite(v - term());
      } else {
        return v;
      }
    }
  }

  double term() {
    double v = factor();
    for (;;) {
      skip_ws();
      if (peek() == '*') {
        ++pos_;
        v = finite(v * factor());
      } else if (peek() == '/') {
        ++pos_;
        v = finite(v / factor());
      } else {
        return v;
      }
    }
  }

  /// The outermost factor is level 0; each parenthesis or unary sign
  /// opens one more.
  double factor() {
    if (depth_ > kMaxDepth) {
      throw std::runtime_error("expression nested deeper than " +
                               std::to_string(kMaxDepth) + " levels");
    }
    ++depth_;
    const double v = nested_factor();
    --depth_;
    return v;
  }

  double nested_factor() {
    skip_ws();
    if (peek() == '-') {
      ++pos_;
      return -factor();
    }
    if (peek() == '+') {
      ++pos_;
      return factor();
    }
    if (peek() == '(') {
      ++pos_;
      const double v = expr();
      skip_ws();
      if (peek() != ')') {
        throw std::runtime_error("expected ')'");
      }
      ++pos_;
      return v;
    }
    if (is_alpha(peek())) {
      const std::size_t begin = pos_;
      while (pos_ < text_.size() && is_alpha(text_[pos_])) {
        ++pos_;
      }
      const std::string_view word = text_.substr(begin, pos_ - begin);
      if (word == "pi") {
        return la::kPi;
      }
      throw std::runtime_error("unknown identifier '" + std::string(word) +
                               "'");
    }
    return number();
  }

  /// A decimal real: digits with an optional fraction and exponent (1,
  /// 1., .5, 2.5E+2). Subnormal values parse; values that overflow or
  /// round to zero are out of range, and C hex floats are not OpenQASM 2.
  double number() {
    const std::string_view rest = text_.substr(pos_);
    if (rest.size() >= 2 && rest[0] == '0' &&
        (rest[1] == 'x' || rest[1] == 'X')) {
      throw std::runtime_error("hexadecimal number in '" + std::string(rest) +
                               "' (OpenQASM 2 reals are decimal)");
    }
    double v = 0.0;
    const auto [end, ec] =
        std::from_chars(rest.data(), rest.data() + rest.size(), v);
    if (ec == std::errc::result_out_of_range) {
      throw std::runtime_error("number out of range: '" + std::string(rest) +
                               "'");
    }
    if (ec != std::errc()) {
      throw std::runtime_error("expected number, got '" + std::string(rest) +
                               "'");
    }
    pos_ += static_cast<std::size_t>(end - rest.data());
    return v;
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < text_.size() && is_space(text_[pos_])) {
      ++pos_;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

/// The ','-separated items of a parameter or operand list, each trimmed;
/// commas inside parentheses do not separate. A list has at least one
/// item, so an empty list is one empty item.
class ListItems {
 public:
  explicit ListItems(std::string_view list) : list_(list) {}

  /// The next item, or false after the last.
  bool next(std::string_view& item) {
    if (done()) {
      return false;
    }
    int depth = 0;
    std::size_t end = pos_;
    for (; end < list_.size(); ++end) {
      const char c = list_[end];
      if (c == '(') {
        ++depth;
      } else if (c == ')') {
        --depth;
      } else if (c == ',' && depth == 0) {
        break;
      }
    }
    item = trim(list_.substr(pos_, end - pos_));
    pos_ = end + 1;
    return true;
  }

  [[nodiscard]] bool done() const { return pos_ > list_.size(); }

 private:
  std::string_view list_;
  std::size_t pos_ = 0;
};

/// Cuts the source into statements in one forward pass. A statement runs
/// to the next ';' or to the end of the text, `//` comments run to the end
/// of their line and are dropped, and the line of a statement's first
/// character is kept for error messages. A statement is a view into the
/// source unless a comment sits inside it; then it is copied without the
/// comment into a buffer that the lexer reuses.
class Lexer {
 public:
  explicit Lexer(std::string_view source) : src_(source) {}

  /// The next non-empty statement, trimmed, and its line; false at the
  /// end of the source.
  bool next(std::string_view& statement, int& line) {
    for (;;) {
      skip_blanks();
      if (pos_ == src_.size()) {
        return false;
      }
      if (src_[pos_] != ';') {
        break;
      }
      ++pos_;
    }
    line = line_;
    const std::size_t begin = pos_;
    bool commented = false;
    while (pos_ < src_.size() && src_[pos_] != ';') {
      if (comment_at(src_, pos_)) {
        commented = true;
        pos_ = comment_end(src_, pos_);
        continue;
      }
      if (src_[pos_] == '\n') {
        ++line_;
      }
      ++pos_;
    }
    statement = src_.substr(begin, pos_ - begin);
    if (pos_ < src_.size()) {
      ++pos_;  // the ';'
    }
    if (commented) {
      statement = without_comments(statement);
    }
    statement = trim(statement);
    return true;
  }

 private:
  static bool comment_at(std::string_view text, std::size_t i) {
    return text[i] == '/' && i + 1 < text.size() && text[i + 1] == '/';
  }
  /// The newline that ends the comment at `i`, or the end of `text`.
  static std::size_t comment_end(std::string_view text, std::size_t i) {
    const std::size_t nl = text.find('\n', i);
    return nl == std::string_view::npos ? text.size() : nl;
  }

  void skip_blanks() {
    while (pos_ < src_.size()) {
      if (comment_at(src_, pos_)) {
        pos_ = comment_end(src_, pos_);
      } else if (is_space(src_[pos_])) {
        line_ += src_[pos_] == '\n' ? 1 : 0;
        ++pos_;
      } else {
        return;
      }
    }
  }

  std::string_view without_comments(std::string_view text) {
    buffer_.clear();
    for (std::size_t i = 0; i < text.size(); ++i) {
      if (comment_at(text, i)) {
        i = comment_end(text, i);
        if (i == text.size()) {
          break;
        }
      }
      buffer_ += text[i];
    }
    return buffer_;
  }

  std::string_view src_;
  std::size_t pos_ = 0;
  int line_ = 1;
  std::string buffer_;
};

/// Upper bound on register sizes and qubit indices accepted by the parser
/// (documented in qasm.hpp); rejects absurd declarations before they turn
/// into gigabyte allocations.
constexpr long kMaxRegisterIndex = 1000000;

/// Strictly parses a non-negative register index: digits only, bounded.
int register_index(std::string_view token, const char* what) {
  const std::string_view t = trim(token);
  if (t.empty()) {
    throw std::runtime_error(std::string("empty ") + what);
  }
  long value = 0;
  for (const char c : t) {
    if (!is_digit(c)) {
      throw std::runtime_error(std::string("bad ") + what + " '" +
                               std::string(t) +
                               "' (expected a non-negative integer)");
    }
    value = value * 10 + (c - '0');
    if (value > kMaxRegisterIndex) {
      throw std::runtime_error(std::string(what) + " '" + std::string(t) +
                               "' out of range");
    }
  }
  return static_cast<int>(value);
}

/// Recursive-descent statement parser over the lexer's statements. The
/// parameter and qubit buffers are reused from statement to statement, so
/// a parse allocates only the circuit it builds.
class Parser {
 public:
  Circuit parse(std::string_view text) {
    Lexer lexer(text);
    std::string_view stmt;
    int line = 0;
    while (lexer.next(stmt, line)) {
      // Every statement-level failure is rethrown with the source line and
      // the statement text, so malformed input produces an actionable
      // parse error.
      try {
        statement(stmt);
      } catch (const std::exception& e) {
        throw std::runtime_error("qasm: parse error at line " +
                                 std::to_string(line) + ": " + e.what() +
                                 " [in statement '" + std::string(stmt) +
                                 "']");
      }
    }
    return std::move(circuit_);
  }

 private:
  void statement(std::string_view s) {
    if (starts_with_keyword(s, "OPENQASM") ||
        starts_with_keyword(s, "include") || starts_with_keyword(s, "creg")) {
      return;
    }
    if (starts_with_keyword(s, "qreg")) {
      qreg(s);
      return;
    }
    if (!have_qreg_) {
      throw std::runtime_error("statement before qreg");
    }
    if (starts_with_keyword(s, "barrier")) {
      circuit_.barrier();
      return;
    }
    if (starts_with_keyword(s, "measure")) {
      measure(s);
      return;
    }
    gate(s);
  }

  /// qreg name[size]
  void qreg(std::string_view s) {
    if (have_qreg_) {
      throw std::runtime_error(
          "unsupported construct: a second 'qreg' (one register only)");
    }
    const std::size_t lb = s.find('[');
    const std::size_t rb = s.find(']');
    if (lb == std::string_view::npos || rb == std::string_view::npos ||
        rb < lb) {
      throw std::runtime_error("bad qreg statement");
    }
    const std::string_view name = trim(s.substr(4, lb - 4));
    if (name.empty()) {
      throw std::runtime_error("qreg needs a register name");
    }
    circuit_ = Circuit(register_index(s.substr(lb + 1, rb - lb - 1),
                                      "qreg size"));
    reg_ = name;
    have_qreg_ = true;
  }

  /// measure q[i] -> c[i], or measure q -> c over the whole register.
  void measure(std::string_view s) {
    const std::size_t arrow = s.find("->");
    const std::string_view source = trim(s.substr(
        7, (arrow == std::string_view::npos ? s.size() : arrow) - 7));
    if (source == reg_) {
      circuit_.measure_all();  // register broadcast: q[i] -> c[i]
    } else {
      circuit_.measure(qubit(source));
    }
  }

  /// name[(params)] operand[, ...] — reset included.
  void gate(std::string_view s) {
    std::size_t name_end = 0;
    while (name_end < s.size() &&
           (is_alpha(s[name_end]) || is_digit(s[name_end]))) {
      ++name_end;
    }
    std::string_view name = s.substr(0, name_end);
    if (name == "opaque") {
      throw std::runtime_error(
          "unsupported construct: 'opaque' gate declarations");
    }
    if (name == "if") {
      throw std::runtime_error(
          "unsupported construct: classically controlled 'if' statements");
    }
    std::string_view operands = s.substr(name_end);
    params_.clear();
    if (!operands.empty() && operands.front() == '(') {
      const std::size_t close = s.rfind(')');
      if (close == std::string_view::npos || close < name_end) {
        throw std::runtime_error("unbalanced parameter list");
      }
      ListItems items(s.substr(name_end + 1, close - name_end - 1));
      for (std::string_view item; items.next(item);) {
        params_.push_back(ExprParser(item).parse());
      }
      operands = s.substr(close + 1);
    }

    // Aliases.
    if (name == "u1") {
      name = "p";
    } else if (name == "u2") {
      if (params_.size() != 2) {
        throw std::runtime_error("u2 needs 2 params");
      }
      params_.insert(params_.begin(), la::kPi / 2.0);
      name = "u3";
    } else if (name == "u") {
      name = "u3";
    } else if (name == "cnot") {
      name = "cx";
    }

    const auto kind = gate_from_name(name);
    if (!kind.has_value()) {
      throw std::runtime_error("unknown gate '" + std::string(name) + "'");
    }
    ListItems refs(operands);
    std::string_view ref;
    (void)refs.next(ref);
    if (refs.done() && ref == reg_ && gate_info(*kind).num_qubits == 1) {
      // Register broadcast: `h q;` / `reset q;` act on every qubit of q.
      for (int q = 0; q < circuit_.num_qubits(); ++q) {
        circuit_.append(*kind, std::span<const int>(&q, 1), params_);
      }
      return;
    }
    qubits_.clear();
    do {
      qubits_.push_back(qubit(ref));
    } while (refs.next(ref));
    circuit_.append(*kind, qubits_, params_);
  }

  /// reg[index] -> index; the ']' ends the operand.
  int qubit(std::string_view ref) const {
    const std::size_t lb = ref.find('[');
    const std::size_t rb = ref.find(']');
    if (lb == std::string_view::npos || rb == std::string_view::npos ||
        rb + 1 != ref.size() || rb < lb || ref.substr(0, lb) != reg_) {
      throw std::runtime_error("bad qubit reference '" + std::string(ref) +
                               "'");
    }
    return register_index(ref.substr(lb + 1, rb - lb - 1), "qubit index");
  }

  Circuit circuit_;
  std::string reg_;
  bool have_qreg_ = false;
  std::vector<double> params_;
  std::vector<int> qubits_;
};

}  // namespace

Circuit from_qasm(const std::string& text) { return Parser().parse(text); }

}  // namespace qrc::ir

#include "ir/qasm.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <sstream>
#include <stdexcept>
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
  std::ostringstream os;
  os << std::hexfloat;
  // -0.0 == 0.0 under Circuit::operator==, so fold the sign away to keep
  // the key-equality <-> circuit-equality contract.
  const auto canonical = [](double v) { return v == 0.0 ? 0.0 : v; };
  os << "q" << circuit.num_qubits() << ";gp"
     << canonical(circuit.global_phase()) << ";";
  for (const Operation& op : circuit.ops()) {
    os << gate_name(op.kind());
    if (op.num_params() > 0) {
      os << "(";
      for (int i = 0; i < op.num_params(); ++i) {
        if (i > 0) {
          os << ",";
        }
        os << canonical(op.param(i));
      }
      os << ")";
    }
    for (int i = 0; i < op.num_qubits(); ++i) {
      os << (i > 0 ? "," : " ") << op.qubit(i);
    }
    os << ";";
  }
  return os.str();
}

namespace {

/// Minimal recursive-descent parser for parameter expressions:
///   expr := term (('+'|'-') term)*
///   term := factor (('*'|'/') factor)*
///   factor := number | 'pi' | ('-'|'+') factor | '(' expr ')'
/// Parentheses and unary signs nest at most kMaxDepth levels deep, so
/// hostile input cannot exhaust the stack, and every intermediate value
/// must be finite: a gate angle of NaN or infinity has no meaning.
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
    if (std::isalpha(static_cast<unsigned char>(peek())) != 0) {
      std::string word;
      while (pos_ < text_.size() &&
             std::isalpha(static_cast<unsigned char>(text_[pos_])) != 0) {
        word += text_[pos_++];
      }
      if (word == "pi") {
        return la::kPi;
      }
      throw std::runtime_error("unknown identifier '" + word + "'");
    }
    // std::stod accepts plain, decimal and scientific notation (1e-3,
    // 2.5E+2); it throws std::invalid_argument on garbage, which we map to
    // a parse error naming the offending text instead of an uncaught
    // "stod" exception.
    std::size_t consumed = 0;
    double v = 0.0;
    try {
      v = std::stod(std::string(text_.substr(pos_)), &consumed);
    } catch (const std::out_of_range&) {
      throw std::runtime_error("number out of range: '" +
                               std::string(text_.substr(pos_)) + "'");
    } catch (const std::exception&) {
      throw std::runtime_error("expected number, got '" +
                               std::string(text_.substr(pos_)) + "'");
    }
    if (consumed == 0) {
      throw std::runtime_error("expected number");
    }
    pos_ += consumed;
    return v;
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

std::string strip(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) {
    ++b;
  }
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) {
    --e;
  }
  return s.substr(b, e - b);
}

/// Upper bound on register sizes and qubit indices accepted by the parser
/// (documented in qasm.hpp); rejects absurd declarations before they turn
/// into gigabyte allocations.
constexpr long kMaxRegisterIndex = 1000000;

/// Strictly parses a non-negative register index: digits only, bounded.
/// std::stoi would silently accept "1abc" (-> 1) and throw uncaught
/// std::invalid_argument / std::out_of_range on "abc" or huge values.
int parse_register_index(const std::string& token, const char* what) {
  const std::string t = strip(token);
  if (t.empty()) {
    throw std::runtime_error(std::string("empty ") + what);
  }
  long value = 0;
  for (const char c : t) {
    if (std::isdigit(static_cast<unsigned char>(c)) == 0) {
      throw std::runtime_error(std::string("bad ") + what + " '" + t +
                               "' (expected a non-negative integer)");
    }
    value = value * 10 + (c - '0');
    if (value > kMaxRegisterIndex) {
      throw std::runtime_error(std::string(what) + " '" + t +
                               "' out of range");
    }
  }
  return static_cast<int>(value);
}

/// Parses "q[3]" -> 3.
int parse_qubit_ref(const std::string& token, const std::string& reg_name) {
  const std::string t = strip(token);
  const std::size_t lb = t.find('[');
  const std::size_t rb = t.find(']');
  if (lb == std::string::npos || rb == std::string::npos || rb < lb ||
      t.substr(0, lb) != reg_name) {
    throw std::runtime_error("bad qubit reference '" + t + "'");
  }
  return parse_register_index(t.substr(lb + 1, rb - lb - 1), "qubit index");
}

std::vector<std::string> split(const std::string& s, char delim) {
  std::vector<std::string> out;
  std::string cur;
  int depth = 0;
  for (const char c : s) {
    if (c == '(') {
      ++depth;
    }
    if (c == ')') {
      --depth;
    }
    if (c == delim && depth == 0) {
      out.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  out.push_back(cur);
  return out;
}

/// A ';'-terminated statement plus the 1-based source line it starts on
/// (the line of its first non-whitespace character), for error context.
struct Statement {
  std::string text;
  int line = 0;
};

/// Strips //-comments and splits the source into statements, tracking
/// line numbers through both.
std::vector<Statement> split_statements(const std::string& text) {
  std::vector<Statement> out;
  std::string cur;
  int line = 1;
  int stmt_line = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '/' && i + 1 < text.size() && text[i + 1] == '/') {
      while (i < text.size() && text[i] != '\n') {
        ++i;
      }
      if (i >= text.size()) {
        break;
      }
    }
    const char c = text[i];
    if (c == '\n') {
      ++line;
    }
    if (c == ';') {
      const std::string stmt = strip(cur);
      if (!stmt.empty()) {
        out.push_back({stmt, stmt_line == 0 ? line : stmt_line});
      }
      cur.clear();
      stmt_line = 0;
    } else {
      if (stmt_line == 0 && std::isspace(static_cast<unsigned char>(c)) == 0) {
        stmt_line = line;
      }
      cur += c;
    }
  }
  const std::string tail = strip(cur);
  if (!tail.empty()) {
    out.push_back({tail, stmt_line == 0 ? line : stmt_line});
  }
  return out;
}

}  // namespace

Circuit from_qasm(const std::string& text) {
  Circuit circuit;
  std::string qreg_name = "q";
  bool have_qreg = false;

  for (const Statement& statement : split_statements(text)) {
    const std::string& stmt = statement.text;
    // Every statement-level failure is rethrown with the source line and
    // the statement text, so malformed input produces an actionable parse
    // error instead of an uncaught std::stoi/std::stod exception.
    try {
      if (stmt.rfind("OPENQASM", 0) == 0 || stmt.rfind("include", 0) == 0 ||
          stmt.rfind("creg", 0) == 0) {
        continue;
      }
      if (stmt.rfind("qreg", 0) == 0) {
        if (have_qreg) {
          throw std::runtime_error(
              "unsupported construct: a second 'qreg' (one register only)");
        }
        const std::size_t lb = stmt.find('[');
        const std::size_t rb = stmt.find(']');
        if (lb == std::string::npos || rb == std::string::npos || rb < lb) {
          throw std::runtime_error("bad qreg statement");
        }
        qreg_name = strip(stmt.substr(4, lb - 4));
        if (qreg_name.empty()) {
          throw std::runtime_error("qreg needs a register name");
        }
        const int n = parse_register_index(
            stmt.substr(lb + 1, rb - lb - 1), "qreg size");
        circuit = Circuit(n);
        have_qreg = true;
        continue;
      }
      if (!have_qreg) {
        throw std::runtime_error("statement before qreg");
      }
      if (stmt.rfind("barrier", 0) == 0) {
        circuit.barrier();
        continue;
      }
      if (stmt.rfind("measure", 0) == 0) {
        const std::size_t arrow = stmt.find("->");
        const std::string src = strip(stmt.substr(
            7, (arrow == std::string::npos ? stmt.size() : arrow) - 7));
        if (src == qreg_name) {
          circuit.measure_all();  // register broadcast: q[i] -> c[i]
        } else {
          circuit.measure(parse_qubit_ref(src, qreg_name));
        }
        continue;
      }
      // Gate statement (reset included): name[(params)] operand[, ...]
      std::size_t name_end = 0;
      while (name_end < stmt.size() &&
             (std::isalnum(static_cast<unsigned char>(stmt[name_end])) !=
              0)) {
        ++name_end;
      }
      std::string name = stmt.substr(0, name_end);
      if (name == "opaque") {
        throw std::runtime_error(
            "unsupported construct: 'opaque' gate declarations");
      }
      if (name == "if") {
        throw std::runtime_error(
            "unsupported construct: classically controlled 'if' statements");
      }
      std::size_t rest_begin = name_end;
      std::vector<double> params;
      if (rest_begin < stmt.size() && stmt[rest_begin] == '(') {
        const std::size_t close = stmt.rfind(')');
        if (close == std::string::npos || close < rest_begin) {
          throw std::runtime_error("unbalanced parameter list");
        }
        for (const std::string& p :
             split(stmt.substr(rest_begin + 1, close - rest_begin - 1),
                   ',')) {
          params.push_back(ExprParser(strip(p)).parse());
        }
        rest_begin = close + 1;
      }
      const std::vector<std::string> operands =
          split(stmt.substr(rest_begin), ',');

      // Aliases.
      if (name == "u1") {
        name = "p";
      } else if (name == "u2") {
        if (params.size() != 2) {
          throw std::runtime_error("u2 needs 2 params");
        }
        params = {la::kPi / 2.0, params[0], params[1]};
        name = "u3";
      } else if (name == "u") {
        name = "u3";
      } else if (name == "cnot") {
        name = "cx";
      }

      const auto kind = gate_from_name(name);
      if (!kind.has_value()) {
        throw std::runtime_error("unknown gate '" + name + "'");
      }
      if (operands.size() == 1 && strip(operands.front()) == qreg_name &&
          gate_info(*kind).num_qubits == 1) {
        // Register broadcast: `h q;` / `reset q;` act on every qubit of q.
        for (int q = 0; q < circuit.num_qubits(); ++q) {
          circuit.append(*kind, std::span<const int>(&q, 1), params);
        }
        continue;
      }
      std::vector<int> qubits;
      for (const std::string& qref : operands) {
        qubits.push_back(parse_qubit_ref(qref, qreg_name));
      }
      circuit.append(*kind, qubits, params);
    } catch (const std::exception& e) {
      throw std::runtime_error("qasm: parse error at line " +
                               std::to_string(statement.line) + ": " +
                               e.what() + " [in statement '" + stmt + "']");
    }
  }
  return circuit;
}

}  // namespace qrc::ir

/// \file qasm.hpp
/// \brief OpenQASM-2-style text serialisation of circuits: dump any Circuit
///        and parse back the subset the library emits (plus the common
///        u1/u2/u aliases), and the canonical content key. The front end of
///        every served request, so both directions work in one pass without
///        iostreams: the parser is a lexer plus a recursive-descent
///        statement parser over views of the text, with numbers read by
///        std::from_chars in place, and time linear in the input.
#pragma once

#include <string>

#include "ir/circuit.hpp"

namespace qrc::ir {

/// Serialises the circuit as OpenQASM 2.0 text.
[[nodiscard]] std::string to_qasm(const Circuit& circuit);

/// Parses OpenQASM 2.0 text. Supports the gate vocabulary of this library,
/// the aliases u1 (-> p), u2(phi, lambda) (-> u3(pi/2, phi, lambda)) and
/// u (-> u3), a single qreg, an optional creg, measure, barrier and reset.
/// Single-qubit gates, reset and measure broadcast over the register when
/// given its name (`h q;`, `reset q;`, `measure q -> c;`).
/// Parameter expressions may use decimal reals (1, 1., .5, 2.5e-2, 1E+2),
/// "pi", unary plus/minus, + - * / and parentheses, nested at most 128
/// levels deep; every value an expression computes on the way must be
/// finite (`0/0`, `1/0` and overflows are rejected). A literal that
/// overflows or rounds to zero is "out of range"; subnormal literals parse
/// (to_qasm prints them, e.g. 4.94065645841247e-324), and C hex floats
/// such as 0x1p3 are rejected, since OpenQASM 2 reals are decimal.
/// Register sizes and qubit indices are capped at 1,000,000 (declarations
/// beyond that are rejected rather than allocated). A second `qreg`,
/// `opaque` declarations and classically controlled `if` statements are
/// rejected with an error that names them as unsupported.
/// \throws std::runtime_error on malformed input, with the source line and
///         offending statement in the message.
[[nodiscard]] Circuit from_qasm(const std::string& text);

/// Canonical content fingerprint of a circuit, suitable as an exact cache
/// key: the to_qasm() statement grammar with bit-exact (hex-float, the
/// text of printf's `%a`) parameters, prefixed with the qubit count and
/// global phase, written into one string without iostreams. Two
/// circuits share a key iff they are structurally identical
/// (Circuit::operator==); the name is excluded, so differently-labelled
/// copies of the same circuit hit the same cache entry. The key is the
/// full text, not a hash — no collisions.
[[nodiscard]] std::string canonical_key(const Circuit& circuit);

}  // namespace qrc::ir

/// \file gate.hpp
/// \brief Gate vocabulary: kinds, static metadata (arity, names, algebraic
///        properties) and gate matrices. The single source of truth for what
///        a gate *is*; everything else (passes, simulators, devices) keys on
///        GateKind.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <span>
#include <string_view>

#include "la/mat2.hpp"
#include "la/mat4.hpp"

namespace qrc::ir {

/// All gate kinds known to the IR. Non-unitary circuit elements (measure,
/// barrier, reset) are included so a Circuit can represent a full program.
enum class GateKind : std::uint8_t {
  kI,
  kX,
  kY,
  kZ,
  kH,
  kS,
  kSdg,
  kT,
  kTdg,
  kSX,
  kSXdg,
  kRX,
  kRY,
  kRZ,
  kP,
  kU3,
  kCX,
  kCY,
  kCZ,
  kCH,
  kCP,
  kCRX,
  kCRY,
  kCRZ,
  kSWAP,
  kISWAP,
  kECR,
  kRXX,
  kRYY,
  kRZZ,
  kRZX,
  kCCX,
  kCCZ,
  kCSWAP,
  kMeasure,
  kBarrier,
  kReset,
};

/// Number of distinct gate kinds (for table sizing).
inline constexpr int kNumGateKinds = static_cast<int>(GateKind::kReset) + 1;

/// A set of gate kinds, one bit per kind: membership is a shift and a
/// mask. Enumerate it in kind order by testing each kind.
class GateSet {
 public:
  constexpr GateSet(std::initializer_list<GateKind> kinds) {
    for (const GateKind kind : kinds) {
      bits_ |= bit(kind);
    }
  }

  [[nodiscard]] constexpr bool contains(GateKind kind) const {
    return (bits_ & bit(kind)) != 0;
  }

 private:
  static constexpr std::uint64_t bit(GateKind kind) {
    return std::uint64_t{1} << static_cast<unsigned>(kind);
  }

  std::uint64_t bits_ = 0;
};
static_assert(kNumGateKinds <= 64, "GateSet holds one bit per kind");

/// Static per-kind metadata.
struct GateInfo {
  std::string_view name;  ///< lowercase mnemonic, e.g. "cx"
  int num_qubits = 1;     ///< operand count (Barrier is variadic: 0 here)
  int num_params = 0;     ///< rotation-angle count
  bool is_unitary = true;
  bool is_diagonal = false;   ///< diagonal in the computational basis
  bool is_symmetric = false;  ///< invariant under operand exchange (2q)
  bool is_clifford = false;   ///< Clifford for all parameter values
};

/// \returns metadata for `kind`.
[[nodiscard]] const GateInfo& gate_info(GateKind kind);

/// \returns the mnemonic, e.g. "cx".
[[nodiscard]] std::string_view gate_name(GateKind kind);

/// \returns the kind for a mnemonic or std::nullopt if unknown.
[[nodiscard]] std::optional<GateKind> gate_from_name(std::string_view name);

/// 2x2 matrix of a single-qubit gate. Preconditions: gate_info(kind)
/// .num_qubits == 1 and is_unitary; params must carry num_params angles.
[[nodiscard]] la::Mat2 gate_matrix_1q(GateKind kind,
                                      std::span<const double> params);

/// 4x4 matrix of a two-qubit gate in the |q1 q0> basis where operand 0 of
/// the gate is qubit 0 (low bit) and operand 1 is qubit 1 (high bit).
/// For kCX the control is operand 0 and the target operand 1.
[[nodiscard]] la::Mat4 gate_matrix_2q(GateKind kind,
                                      std::span<const double> params);

/// The inverse gate expressed as a (kind, params) pair. All gates in the
/// vocabulary have inverses within the vocabulary.
struct InverseGate {
  GateKind kind;
  std::array<double, 3> params;
};
[[nodiscard]] InverseGate gate_inverse(GateKind kind,
                                       std::span<const double> params);

/// True if the gate (with the given parameters) acts as the identity up to
/// global phase (e.g. rz(0), p(2*pi)).
[[nodiscard]] bool gate_is_identity(GateKind kind,
                                    std::span<const double> params,
                                    double atol = 1e-9);

}  // namespace qrc::ir

/// \file device.hpp
/// \brief Quantum device model: platform, native gate set (a bitmask over
///        GateKind, so the MDP's per-op nativeness test is one AND),
///        connectivity and calibration data (gate/readout error rates) used
///        by the expected-fidelity reward.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "device/coupling_map.hpp"
#include "ir/circuit.hpp"

namespace qrc::device {

/// Hardware vendor / platform: fixes the native gate set.
enum class Platform : std::uint8_t {
  kIBM,      ///< superconducting, {rz, sx, x, cx}
  kRigetti,  ///< superconducting, {rx, rz, cz}
  kIonQ,     ///< trapped ion, {rx, ry, rz, rxx}
  kOQC,      ///< superconducting, {rz, sx, x, ecr}
};

[[nodiscard]] std::string_view platform_name(Platform p);

/// Native single- and two-qubit gate kinds of a platform (non-unitary ops
/// and barriers are always allowed).
[[nodiscard]] ir::GateSet native_gates(Platform p);

/// True if every unitary gate of the circuit is native on platform `p`:
/// the one nativeness rule behind Device::circuit_is_native and the MDP's
/// OnlyNativeGates state.
[[nodiscard]] bool circuit_is_native(Platform p, const ir::Circuit& circuit);

/// Synthetic calibration data: deterministic per device name, magnitudes
/// modeled on 2022-era published medians per platform.
struct Calibration {
  std::vector<double> readout_error;           ///< per qubit
  std::vector<double> single_qubit_error;      ///< per qubit
  std::map<std::pair<int, int>, double> two_qubit_error;  ///< per edge (a<b)
};

/// An executable target: platform + topology + calibration.
class Device {
 public:
  Device(std::string name, Platform platform, CouplingMap coupling,
         std::uint64_t calibration_seed);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] Platform platform() const { return platform_; }
  [[nodiscard]] int num_qubits() const { return coupling_.num_qubits(); }
  [[nodiscard]] const CouplingMap& coupling() const { return coupling_; }
  [[nodiscard]] const Calibration& calibration() const { return calibration_; }

  /// True if `kind` can execute natively on this platform.
  [[nodiscard]] bool is_native(ir::GateKind kind) const;

  /// True if every unitary gate of the circuit is native.
  [[nodiscard]] bool circuit_is_native(const ir::Circuit& circuit) const;

  /// True if every multi-qubit gate acts on a coupled pair. Gates on
  /// more than 2 qubits always fail (they must be synthesised first).
  [[nodiscard]] bool circuit_respects_topology(
      const ir::Circuit& circuit) const;

  /// Error rate of executing `op` on this device: per-qubit rates for 1q
  /// gates and measures, per-edge rates for 2q gates. Uncoupled 2q pairs
  /// return 1.0 (certain failure) — callers should have routed first.
  [[nodiscard]] double op_error(const ir::Operation& op) const;

 private:
  std::string name_;
  Platform platform_;
  CouplingMap coupling_;
  Calibration calibration_;
};

}  // namespace qrc::device

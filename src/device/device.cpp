#include "device/device.hpp"

#include <random>
#include <stdexcept>

namespace qrc::device {

std::string_view platform_name(Platform p) {
  switch (p) {
    case Platform::kIBM:
      return "ibm";
    case Platform::kRigetti:
      return "rigetti";
    case Platform::kIonQ:
      return "ionq";
    case Platform::kOQC:
      return "oqc";
  }
  return "unknown";
}

ir::GateSet native_gates(Platform p) {
  using ir::GateKind;
  switch (p) {
    case Platform::kIBM:
      return {GateKind::kRZ, GateKind::kSX, GateKind::kX, GateKind::kCX,
              GateKind::kI};
    case Platform::kRigetti:
      return {GateKind::kRX, GateKind::kRZ, GateKind::kCZ, GateKind::kI};
    case Platform::kIonQ:
      return {GateKind::kRX, GateKind::kRY, GateKind::kRZ, GateKind::kRXX,
              GateKind::kI};
    case Platform::kOQC:
      return {GateKind::kRZ, GateKind::kSX, GateKind::kX, GateKind::kECR,
              GateKind::kI};
  }
  throw std::invalid_argument("native_gates: unknown platform");
}

bool circuit_is_native(Platform p, const ir::Circuit& circuit) {
  const ir::GateSet native = native_gates(p);
  for (const ir::Operation& op : circuit.ops()) {
    // Measures, barriers and resets are not unitary: they run everywhere.
    if (op.is_unitary() && !native.contains(op.kind())) {
      return false;
    }
  }
  return true;
}

namespace {

/// Platform-typical error magnitudes (medians of 2022-era published
/// calibration data); per-qubit/per-edge values scatter around these by a
/// seeded lognormal-ish factor in [0.5, 2.5].
struct ErrorProfile {
  double single_qubit;
  double two_qubit;
  double readout;
};

ErrorProfile profile_for(Platform p) {
  switch (p) {
    case Platform::kIBM:
      return {3.0e-4, 1.1e-2, 2.2e-2};
    case Platform::kRigetti:
      return {1.6e-3, 2.4e-2, 4.5e-2};
    case Platform::kIonQ:
      return {4.0e-4, 7.5e-3, 1.8e-2};
    case Platform::kOQC:
      return {8.0e-4, 2.6e-2, 5.0e-2};
  }
  throw std::invalid_argument("profile_for: unknown platform");
}

Calibration synthesize_calibration(Platform platform,
                                   const CouplingMap& coupling,
                                   std::uint64_t seed) {
  const ErrorProfile profile = profile_for(platform);
  std::mt19937_64 rng(seed);
  // Multiplicative scatter factor: exp(N(0, 0.35)) clamped to [0.4, 3.0]
  // mirrors the heavy right tail of real calibration snapshots.
  std::normal_distribution<double> gauss(0.0, 0.35);
  const auto scatter = [&]() {
    const double f = std::exp(gauss(rng));
    return std::min(3.0, std::max(0.4, f));
  };
  Calibration cal;
  const int n = coupling.num_qubits();
  cal.readout_error.reserve(static_cast<std::size_t>(n));
  cal.single_qubit_error.reserve(static_cast<std::size_t>(n));
  for (int q = 0; q < n; ++q) {
    cal.single_qubit_error.push_back(profile.single_qubit * scatter());
    cal.readout_error.push_back(profile.readout * scatter());
  }
  for (const auto& edge : coupling.edges()) {
    cal.two_qubit_error[edge] = profile.two_qubit * scatter();
  }
  return cal;
}

}  // namespace

Device::Device(std::string name, Platform platform, CouplingMap coupling,
               std::uint64_t calibration_seed)
    : name_(std::move(name)),
      platform_(platform),
      coupling_(std::move(coupling)),
      calibration_(
          synthesize_calibration(platform, coupling_, calibration_seed)) {}

bool Device::is_native(ir::GateKind kind) const {
  if (!ir::gate_info(kind).is_unitary) {
    return true;  // measures / barriers / resets execute everywhere
  }
  return native_gates(platform_).contains(kind);
}

bool Device::circuit_is_native(const ir::Circuit& circuit) const {
  return device::circuit_is_native(platform_, circuit);
}

bool Device::circuit_respects_topology(const ir::Circuit& circuit) const {
  if (circuit.num_qubits() > num_qubits()) {
    return false;
  }
  for (const ir::Operation& op : circuit.ops()) {
    if (!op.is_unitary()) {
      continue;
    }
    if (op.num_qubits() > 2) {
      return false;
    }
    if (op.num_qubits() == 2 &&
        !coupling_.are_coupled(op.qubit(0), op.qubit(1))) {
      return false;
    }
  }
  return true;
}

double Device::op_error(const ir::Operation& op) const {
  if (op.kind() == ir::GateKind::kBarrier) {
    return 0.0;
  }
  if (op.kind() == ir::GateKind::kMeasure) {
    return calibration_.readout_error[static_cast<std::size_t>(op.qubit(0))];
  }
  if (op.kind() == ir::GateKind::kReset) {
    return calibration_.readout_error[static_cast<std::size_t>(op.qubit(0))] *
           0.5;
  }
  if (op.num_qubits() == 1) {
    return calibration_
        .single_qubit_error[static_cast<std::size_t>(op.qubit(0))];
  }
  if (op.num_qubits() == 2) {
    int a = op.qubit(0);
    int b = op.qubit(1);
    if (a > b) {
      std::swap(a, b);
    }
    const auto it = calibration_.two_qubit_error.find({a, b});
    if (it == calibration_.two_qubit_error.end()) {
      return 1.0;  // uncoupled pair: cannot execute
    }
    return it->second;
  }
  return 1.0;  // 3+ qubit gates are never directly executable
}

}  // namespace qrc::device

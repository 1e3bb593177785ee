#include "passes/synthesis/basis_translator.hpp"

#include <stdexcept>
#include <vector>

#include "la/euler.hpp"
#include "passes/synthesis/euler_synth.hpp"

namespace qrc::passes {

namespace {

using ir::GateKind;
using ir::Operation;
using la::kPi;

Operation g1(GateKind kind, int q) {
  const std::array<int, 1> qs{q};
  return Operation(kind, qs);
}

Operation g1p(GateKind kind, double p, int q) {
  const std::array<int, 1> qs{q};
  const std::array<double, 1> ps{p};
  return Operation(kind, qs, ps);
}

Operation g2(GateKind kind, int a, int b) {
  const std::array<int, 2> qs{a, b};
  return Operation(kind, qs);
}

Operation g2p(GateKind kind, double p, int a, int b) {
  const std::array<int, 2> qs{a, b};
  const std::array<double, 1> ps{p};
  return Operation(kind, qs, ps);
}

/// Controlled-U via the ABC decomposition (Nielsen & Chuang 4.2): with
/// U = e^{i alpha} Rz(beta) Ry(gamma) Rz(delta),
/// CU = P(alpha)_c Rz(beta)_t Ry(gamma/2)_t CX Ry(-gamma/2)_t
///      Rz(-(delta+beta)/2)_t CX Rz((delta-beta)/2)_t  (rightmost first).
void controlled_1q(std::vector<Operation>& out, const la::Mat2& u, int c,
                   int t) {
  const auto zyz = la::zyz_decompose(u);
  out.push_back(g1p(GateKind::kRZ, (zyz.delta - zyz.beta) / 2.0, t));
  out.push_back(g2(GateKind::kCX, c, t));
  out.push_back(g1p(GateKind::kRZ, -(zyz.delta + zyz.beta) / 2.0, t));
  out.push_back(g1p(GateKind::kRY, -zyz.gamma / 2.0, t));
  out.push_back(g2(GateKind::kCX, c, t));
  out.push_back(g1p(GateKind::kRY, zyz.gamma / 2.0, t));
  out.push_back(g1p(GateKind::kRZ, zyz.beta, t));
  if (!la::angle_is_zero(zyz.phase)) {
    out.push_back(g1p(GateKind::kP, zyz.phase, c));
  }
}

/// One-level lowering of a non-native gate. Multi-qubit gates lower toward
/// {CX, 1q}; CX lowers to the platform entangler; 1q gates are handled by
/// the Euler stage (returns empty optional here).
std::optional<std::vector<Operation>> lower_step(
    const Operation& op, const device::Platform platform) {
  std::vector<Operation> out;
  const int a = op.num_qubits() > 0 ? op.qubit(0) : 0;
  const int b = op.num_qubits() > 1 ? op.qubit(1) : 0;
  switch (op.kind()) {
    case GateKind::kCCX: {
      const int c1 = op.qubit(0);
      const int c2 = op.qubit(1);
      const int t = op.qubit(2);
      // Standard 6-CX Toffoli.
      out.push_back(g1(GateKind::kH, t));
      out.push_back(g2(GateKind::kCX, c2, t));
      out.push_back(g1(GateKind::kTdg, t));
      out.push_back(g2(GateKind::kCX, c1, t));
      out.push_back(g1(GateKind::kT, t));
      out.push_back(g2(GateKind::kCX, c2, t));
      out.push_back(g1(GateKind::kTdg, t));
      out.push_back(g2(GateKind::kCX, c1, t));
      out.push_back(g1(GateKind::kT, c2));
      out.push_back(g1(GateKind::kT, t));
      out.push_back(g1(GateKind::kH, t));
      out.push_back(g2(GateKind::kCX, c1, c2));
      out.push_back(g1(GateKind::kT, c1));
      out.push_back(g1(GateKind::kTdg, c2));
      out.push_back(g2(GateKind::kCX, c1, c2));
      return out;
    }
    case GateKind::kCCZ: {
      const int t = op.qubit(2);
      out.push_back(g1(GateKind::kH, t));
      const std::array<int, 3> qs{op.qubit(0), op.qubit(1), t};
      out.push_back(Operation(GateKind::kCCX, qs));
      out.push_back(g1(GateKind::kH, t));
      return out;
    }
    case GateKind::kCSWAP: {
      const int c = op.qubit(0);
      const int x = op.qubit(1);
      const int y = op.qubit(2);
      out.push_back(g2(GateKind::kCX, y, x));
      const std::array<int, 3> qs{c, x, y};
      out.push_back(Operation(GateKind::kCCX, qs));
      out.push_back(g2(GateKind::kCX, y, x));
      return out;
    }
    case GateKind::kCY:
      out.push_back(g1(GateKind::kSdg, b));
      out.push_back(g2(GateKind::kCX, a, b));
      out.push_back(g1(GateKind::kS, b));
      return out;
    case GateKind::kCZ:
      out.push_back(g1(GateKind::kH, b));
      out.push_back(g2(GateKind::kCX, a, b));
      out.push_back(g1(GateKind::kH, b));
      return out;
    case GateKind::kCH:
      controlled_1q(out, la::h_mat(), a, b);
      return out;
    case GateKind::kCP: {
      const double l = op.param(0);
      out.push_back(g1p(GateKind::kP, l / 2.0, a));
      out.push_back(g2(GateKind::kCX, a, b));
      out.push_back(g1p(GateKind::kP, -l / 2.0, b));
      out.push_back(g2(GateKind::kCX, a, b));
      out.push_back(g1p(GateKind::kP, l / 2.0, b));
      return out;
    }
    case GateKind::kCRZ: {
      const double l = op.param(0);
      out.push_back(g1p(GateKind::kRZ, l / 2.0, b));
      out.push_back(g2(GateKind::kCX, a, b));
      out.push_back(g1p(GateKind::kRZ, -l / 2.0, b));
      out.push_back(g2(GateKind::kCX, a, b));
      return out;
    }
    case GateKind::kCRY: {
      const double l = op.param(0);
      out.push_back(g1p(GateKind::kRY, l / 2.0, b));
      out.push_back(g2(GateKind::kCX, a, b));
      out.push_back(g1p(GateKind::kRY, -l / 2.0, b));
      out.push_back(g2(GateKind::kCX, a, b));
      return out;
    }
    case GateKind::kCRX:
      out.push_back(g1(GateKind::kH, b));
      out.push_back(g2p(GateKind::kCRZ, op.param(0), a, b));
      out.push_back(g1(GateKind::kH, b));
      return out;
    case GateKind::kSWAP:
      out.push_back(g2(GateKind::kCX, a, b));
      out.push_back(g2(GateKind::kCX, b, a));
      out.push_back(g2(GateKind::kCX, a, b));
      return out;
    case GateKind::kISWAP:
      // iSWAP = (S (x) S) CZ SWAP.
      out.push_back(g2(GateKind::kSWAP, a, b));
      out.push_back(g2(GateKind::kCZ, a, b));
      out.push_back(g1(GateKind::kS, a));
      out.push_back(g1(GateKind::kS, b));
      return out;
    case GateKind::kECR:
      if (platform == device::Platform::kOQC) {
        return std::nullopt;  // native
      }
      // ECR = X_a SX_b S_a CX(a, b) up to global phase.
      out.push_back(g2(GateKind::kCX, a, b));
      out.push_back(g1(GateKind::kS, a));
      out.push_back(g1(GateKind::kSX, b));
      out.push_back(g1(GateKind::kX, a));
      return out;
    case GateKind::kRZZ: {
      out.push_back(g2(GateKind::kCX, a, b));
      out.push_back(g1p(GateKind::kRZ, op.param(0), b));
      out.push_back(g2(GateKind::kCX, a, b));
      return out;
    }
    case GateKind::kRXX:
      if (platform == device::Platform::kIonQ) {
        return std::nullopt;  // native
      }
      out.push_back(g1(GateKind::kH, a));
      out.push_back(g1(GateKind::kH, b));
      out.push_back(g2p(GateKind::kRZZ, op.param(0), a, b));
      out.push_back(g1(GateKind::kH, a));
      out.push_back(g1(GateKind::kH, b));
      return out;
    case GateKind::kRYY:
      out.push_back(g1p(GateKind::kRX, -kPi / 2.0, a));
      out.push_back(g1p(GateKind::kRX, -kPi / 2.0, b));
      out.push_back(g2p(GateKind::kRZZ, op.param(0), a, b));
      out.push_back(g1p(GateKind::kRX, kPi / 2.0, a));
      out.push_back(g1p(GateKind::kRX, kPi / 2.0, b));
      return out;
    case GateKind::kRZX:
      out.push_back(g1(GateKind::kH, b));
      out.push_back(g2p(GateKind::kRZZ, op.param(0), a, b));
      out.push_back(g1(GateKind::kH, b));
      return out;
    case GateKind::kCX:
      // Convert to the platform entangler.
      switch (platform) {
        case device::Platform::kIBM:
          return std::nullopt;  // native
        case device::Platform::kRigetti:
          out.push_back(g1(GateKind::kH, b));
          out.push_back(g2(GateKind::kCZ, a, b));
          out.push_back(g1(GateKind::kH, b));
          return out;
        case device::Platform::kIonQ:
          // Moelmer-Soerensen construction:
          // CX(c,t) = Ry(pi/2)_c RXX(pi/2) Rx(-pi/2)_c Rx(-pi/2)_t
          //           Ry(-pi/2)_c  (rightmost first).
          out.push_back(g1p(GateKind::kRY, kPi / 2.0, a));
          out.push_back(g2p(GateKind::kRXX, kPi / 2.0, a, b));
          out.push_back(g1p(GateKind::kRX, -kPi / 2.0, a));
          out.push_back(g1p(GateKind::kRX, -kPi / 2.0, b));
          out.push_back(g1p(GateKind::kRY, -kPi / 2.0, a));
          return out;
        case device::Platform::kOQC:
          // CX = Sdg_a SXdg_b X_a ECR(a, b) up to global phase.
          out.push_back(g2(GateKind::kECR, a, b));
          out.push_back(g1(GateKind::kX, a));
          out.push_back(g1(GateKind::kSXdg, b));
          out.push_back(g1(GateKind::kSdg, a));
          return out;
      }
      return std::nullopt;
    default:
      return std::nullopt;  // 1q gates handled by the Euler stage
  }
}

}  // namespace

bool BasisTranslator::run(ir::Circuit& circuit, const PassContext& ctx) const {
  if (ctx.device == nullptr) {
    throw std::invalid_argument("BasisTranslator requires a target device");
  }
  const device::Platform platform = ctx.device->platform();
  const ir::GateSet native = device::native_gates(platform);

  bool changed = false;
  for (int round = 0; round < 16; ++round) {
    bool round_changed = false;
    double phase = 0.0;
    std::vector<Operation> next;
    next.reserve(circuit.size());
    for (const Operation& op : circuit.ops()) {
      if (!op.is_unitary() || op.kind() == ir::GateKind::kBarrier ||
          native.contains(op.kind())) {
        next.push_back(op);
        continue;
      }
      const auto lowered = lower_step(op, platform);
      if (lowered.has_value()) {
        next.insert(next.end(), lowered->begin(), lowered->end());
        round_changed = true;
        continue;
      }
      if (op.num_qubits() == 1) {
        const la::Mat2 u = ir::gate_matrix_1q(op.kind(), op.params());
        const auto synth = synthesize_1q_native(u, op.qubit(0), platform,
                                                phase);
        next.insert(next.end(), synth.begin(), synth.end());
        round_changed = true;
        continue;
      }
      throw std::logic_error("BasisTranslator: no rule for gate " +
                             std::string(ir::gate_name(op.kind())));
    }
    if (!round_changed) {
      break;
    }
    ir::Circuit rebuilt(circuit.num_qubits(), circuit.name());
    rebuilt.add_global_phase(circuit.global_phase() + phase);
    for (const Operation& op : next) {
      rebuilt.append(op);
    }
    circuit = std::move(rebuilt);
    changed = true;
  }
  if (!ctx.device->circuit_is_native(circuit)) {
    throw std::logic_error("BasisTranslator failed to reach the native set");
  }
  return changed;
}

}  // namespace qrc::passes

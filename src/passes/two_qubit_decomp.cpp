#include "passes/two_qubit_decomp.hpp"

#include <cmath>

#include "la/euler.hpp"
#include "la/weyl.hpp"

namespace qrc::passes {

namespace {

using la::cplx;
using la::kPi;
using la::Mat2;
using la::Mat4;

/// Appends `m` as a u3 gate on `q` unless it is the identity (up to phase);
/// the dropped phase is folded into the circuit's global phase.
void emit_1q(ir::Circuit& circuit, const Mat2& m, int q) {
  const auto u3 = la::u3_decompose(m);
  circuit.add_global_phase(u3.phase);
  if (la::angle_is_zero(u3.theta) && la::angle_is_zero(u3.phi + u3.lambda)) {
    // Diagonal with equal phases = identity up to the tracked phase; but
    // rz-like residue may remain: check matrix form directly.
    const Mat2 residue = la::u3_mat(u3.theta, u3.phi, u3.lambda);
    if (residue.approx_equal(Mat2::identity(), 1e-9)) {
      return;
    }
  }
  circuit.u3(u3.theta, u3.phi, u3.lambda, q);
}

/// N(x, 0, z) = CX * (Rx(-2x) on q0, Rz(-2z) on q1) * CX as a circuit,
/// with CX = cx(q0, q1) (control operand 0).
void emit_canonical_x0z(ir::Circuit& c, double x, double z) {
  c.cx(0, 1);
  if (!la::angle_is_zero(-2.0 * x)) {
    c.rx(-2.0 * x, 0);
  }
  if (!la::angle_is_zero(-2.0 * z)) {
    c.rz(-2.0 * z, 1);
  }
  c.cx(0, 1);
}

/// The canonicalised KAK of a constant gate, computed once.
const la::KakDecomposition& canonical_cx() {
  static const la::KakDecomposition kCx = [] {
    auto kak = la::kak_decompose(la::cx01_mat());
    kak->canonicalize();
    return *kak;
  }();
  return kCx;
}

const la::KakDecomposition& canonical_swap() {
  static const la::KakDecomposition kSwap = [] {
    auto kak = la::kak_decompose(la::swap_mat());
    kak->canonicalize();
    return *kak;
  }();
  return kSwap;
}

bool coords_match(double x, double y, double z,
                  const la::KakDecomposition& b) {
  return std::abs(x - b.x) < kCoordTol && std::abs(y - b.y) < kCoordTol &&
         std::abs(z - b.z) < kCoordTol;
}

/// The circuit of a canonicalised KAK in its tier, before verification.
/// Every 1q gate goes through emit_1q(), which may drop it; everything
/// else is always emitted, which is what tier_floor() counts.
ir::Circuit emit_tier(const la::KakDecomposition& kak, ResynthTier tier) {
  ir::Circuit out(2, "resynth");
  out.add_global_phase(kak.phase);
  switch (tier) {
    case ResynthTier::kLocal:
      emit_1q(out, kak.k1_q0 * kak.k2_q0, 0);
      emit_1q(out, kak.k1_q1 * kak.k2_q1, 1);
      break;
    case ResynthTier::kCx: {
      // Locally equivalent to CX. With U = K1 N K2 and CX = L1 N L2 (same
      // canonical N): U = K1 L1^dag CX L2^dag K2.
      const auto& cx = canonical_cx();
      emit_1q(out, cx.k2_q0.adjoint() * kak.k2_q0, 0);
      emit_1q(out, cx.k2_q1.adjoint() * kak.k2_q1, 1);
      out.cx(0, 1);
      emit_1q(out, kak.k1_q0 * cx.k1_q0.adjoint(), 0);
      emit_1q(out, kak.k1_q1 * cx.k1_q1.adjoint(), 1);
      out.add_global_phase(-cx.phase);
      break;
    }
    case ResynthTier::kSwap: {
      const auto& sw = canonical_swap();
      emit_1q(out, sw.k2_q0.adjoint() * kak.k2_q0, 0);
      emit_1q(out, sw.k2_q1.adjoint() * kak.k2_q1, 1);
      out.cx(0, 1);
      out.cx(1, 0);
      out.cx(0, 1);
      emit_1q(out, kak.k1_q0 * sw.k1_q0.adjoint(), 0);
      emit_1q(out, kak.k1_q1 * sw.k1_q1.adjoint(), 1);
      out.add_global_phase(-sw.phase);
      break;
    }
    case ResynthTier::kZeroZ: {
      // N(x, y, 0) = (V^dag (x) V^dag) N(x, 0, y) (V (x) V) with
      // V = Rx(pi/2): 2 CX.
      const Mat2 v = la::rx_mat(kPi / 2.0);
      const Mat2 vd = v.adjoint();
      emit_1q(out, v * kak.k2_q0, 0);
      emit_1q(out, v * kak.k2_q1, 1);
      emit_canonical_x0z(out, kak.x, kak.y);
      emit_1q(out, kak.k1_q0 * vd, 0);
      emit_1q(out, kak.k1_q1 * vd, 1);
      break;
    }
    case ResynthTier::kGeneric: {
      // N(x, y, z) = N(x, y, 0) * N(0, 0, z); the parts commute, so emit
      // N(0, 0, z) first (it is applied first). The two V = Rx(pi/2)
      // between them are never the identity.
      const Mat2 v = la::rx_mat(kPi / 2.0);
      const Mat2 vd = v.adjoint();
      emit_1q(out, kak.k2_q0, 0);
      emit_1q(out, kak.k2_q1, 1);
      emit_canonical_x0z(out, 0.0, kak.z);  // N(0, 0, z)
      emit_1q(out, v, 0);
      emit_1q(out, v, 1);
      emit_canonical_x0z(out, kak.x, kak.y);
      emit_1q(out, kak.k1_q0 * vd, 0);
      emit_1q(out, kak.k1_q1 * vd, 1);
      break;
    }
  }
  return out;
}

}  // namespace

ResynthTier resynth_tier(double x, double y, double z) {
  const bool x_zero = std::abs(x) < kCoordTol;
  const bool y_zero = std::abs(y) < kCoordTol;
  const bool z_zero = std::abs(z) < kCoordTol;
  if (x_zero && y_zero && z_zero) {
    return ResynthTier::kLocal;
  }
  if (coords_match(x, y, z, canonical_cx())) {
    return ResynthTier::kCx;
  }
  if (coords_match(x, y, z, canonical_swap())) {
    return ResynthTier::kSwap;
  }
  return z_zero ? ResynthTier::kZeroZ : ResynthTier::kGeneric;
}

bool fewer_gates(GateCounts a, GateCounts b) {
  return a.two_qubit < b.two_qubit ||
         (a.two_qubit == b.two_qubit && a.total < b.total);
}

GateCounts tier_floor(ResynthTier tier) {
  // Indexed by ResynthTier: the CX gates of each emit_tier() branch, plus
  // the two Rx(pi/2) the generic tier always emits.
  constexpr GateCounts kFloors[] = {{0, 0}, {1, 1}, {2, 2}, {3, 3}, {4, 6}};
  return kFloors[static_cast<int>(tier)];
}

la::Mat4 two_qubit_circuit_unitary(const ir::Circuit& circuit) {
  Mat4 u = Mat4::identity();
  for (const ir::Operation& op : circuit.ops()) {
    Mat4 g;
    if (op.num_qubits() == 1) {
      const Mat2 m = ir::gate_matrix_1q(op.kind(), op.params());
      g = (op.qubit(0) == 0) ? la::kron(Mat2::identity(), m)
                             : la::kron(m, Mat2::identity());
    } else {
      const Mat4 m = ir::gate_matrix_2q(op.kind(), op.params());
      if (op.qubit(0) == 0) {
        g = m;
      } else {
        // Gate operands are (1, 0): conjugate by SWAP.
        g = la::swap_mat() * m * la::swap_mat();
      }
    }
    u = g * u;
  }
  return u * std::exp(cplx{0.0, circuit.global_phase()});
}

std::optional<ir::Circuit> decompose_two_qubit_unitary(const la::Mat4& u) {
  auto kak = la::kak_decompose(u);
  if (!kak.has_value()) {
    return std::nullopt;
  }
  kak->canonicalize();
  ir::Circuit out = emit_tier(*kak, resynth_tier(kak->x, kak->y, kak->z));

  // Verification gate: never hand back a wrong circuit.
  const Mat4 rebuilt = two_qubit_circuit_unitary(out);
  if (!rebuilt.equal_up_to_phase(u, 1e-6)) {
    return std::nullopt;
  }
  return out;
}

StagedResynthesis::StagedResynthesis(const la::Mat4& u)
    : u_(u), core_(la::kak_core(u)) {
  if (core_.has_value()) {
    const la::WeylMoves moves = la::weyl_moves(core_->x, core_->y, core_->z);
    tier_ = resynth_tier(moves.x, moves.y, moves.z);
  }
}

const ir::Circuit* StagedResynthesis::replacement(GateCounts cost) {
  if (!core_.has_value() || !fewer_gates(tier_floor(tier_), cost)) {
    return nullptr;
  }
  if (!counted_) {
    counted_ = true;
    auto kak = la::kak_factor_locals(*core_);
    if (kak.has_value()) {
      kak->canonicalize();
      const ir::Circuit c = emit_tier(*kak, tier_);
      counts_ = GateCounts{c.two_qubit_gate_count(), c.gate_count()};
    }
  }
  if (!counts_.has_value() || !fewer_gates(*counts_, cost)) {
    return nullptr;
  }
  if (!decomposed_) {
    decomposed_ = true;
    circuit_ = decompose_two_qubit_unitary(u_);
  }
  return circuit_.has_value() ? &*circuit_ : nullptr;
}

}  // namespace qrc::passes

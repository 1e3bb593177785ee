// Tests for the circuit IR: gate metadata and matrices, Operation/Circuit
// invariants, DAG links, statevector simulation, equivalence checking and
// QASM round-trips.

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "bench_suite/benchmarks.hpp"
#include "device/library.hpp"
#include "ir/circuit.hpp"
#include "ir/dag.hpp"
#include "ir/gate.hpp"
#include "ir/qasm.hpp"
#include "ir/sim.hpp"
#include "la/weyl.hpp"
#include "passes/synthesis/basis_translator.hpp"

namespace {

using qrc::ir::Circuit;
using qrc::ir::GateKind;
using qrc::ir::Operation;
using qrc::ir::Statevector;
using qrc::la::cplx;
using qrc::la::kPi;

// ---------------------------------------------------------------- Gate ----

TEST(GateTest, NamesRoundTrip) {
  for (int i = 0; i < qrc::ir::kNumGateKinds; ++i) {
    const auto kind = static_cast<GateKind>(i);
    const auto back = qrc::ir::gate_from_name(qrc::ir::gate_name(kind));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, kind);
  }
}

TEST(GateTest, UnknownNameRejected) {
  EXPECT_FALSE(qrc::ir::gate_from_name("notagate").has_value());
}

TEST(GateTest, AllSingleQubitMatricesUnitary) {
  std::mt19937_64 rng(2);
  std::uniform_real_distribution<double> ang(-kPi, kPi);
  for (int i = 0; i < qrc::ir::kNumGateKinds; ++i) {
    const auto kind = static_cast<GateKind>(i);
    const auto& info = qrc::ir::gate_info(kind);
    if (!info.is_unitary || info.num_qubits != 1) {
      continue;
    }
    std::vector<double> params;
    for (int p = 0; p < info.num_params; ++p) {
      params.push_back(ang(rng));
    }
    EXPECT_TRUE(qrc::ir::gate_matrix_1q(kind, params).is_unitary())
        << info.name;
  }
}

TEST(GateTest, AllTwoQubitMatricesUnitary) {
  std::mt19937_64 rng(3);
  std::uniform_real_distribution<double> ang(-kPi, kPi);
  for (int i = 0; i < qrc::ir::kNumGateKinds; ++i) {
    const auto kind = static_cast<GateKind>(i);
    const auto& info = qrc::ir::gate_info(kind);
    if (!info.is_unitary || info.num_qubits != 2) {
      continue;
    }
    std::vector<double> params;
    for (int p = 0; p < info.num_params; ++p) {
      params.push_back(ang(rng));
    }
    EXPECT_TRUE(qrc::ir::gate_matrix_2q(kind, params).is_unitary())
        << info.name;
  }
}

TEST(GateTest, DiagonalFlagMatchesMatrix) {
  std::mt19937_64 rng(5);
  std::uniform_real_distribution<double> ang(-kPi, kPi);
  for (int i = 0; i < qrc::ir::kNumGateKinds; ++i) {
    const auto kind = static_cast<GateKind>(i);
    const auto& info = qrc::ir::gate_info(kind);
    if (!info.is_unitary || !info.is_diagonal || info.num_qubits > 2) {
      continue;
    }
    std::vector<double> params;
    for (int p = 0; p < info.num_params; ++p) {
      params.push_back(ang(rng));
    }
    if (info.num_qubits == 1) {
      const auto m = qrc::ir::gate_matrix_1q(kind, params);
      EXPECT_NEAR(std::abs(m(0, 1)), 0.0, 1e-12) << info.name;
      EXPECT_NEAR(std::abs(m(1, 0)), 0.0, 1e-12) << info.name;
    } else {
      const auto m = qrc::ir::gate_matrix_2q(kind, params);
      for (int r = 0; r < 4; ++r) {
        for (int c = 0; c < 4; ++c) {
          if (r != c) {
            EXPECT_NEAR(std::abs(m(r, c)), 0.0, 1e-12) << info.name;
          }
        }
      }
    }
  }
}

TEST(GateTest, InverseComposesToIdentity1q) {
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> ang(-kPi, kPi);
  for (int i = 0; i < qrc::ir::kNumGateKinds; ++i) {
    const auto kind = static_cast<GateKind>(i);
    const auto& info = qrc::ir::gate_info(kind);
    if (!info.is_unitary || info.num_qubits != 1) {
      continue;
    }
    std::vector<double> params;
    for (int p = 0; p < info.num_params; ++p) {
      params.push_back(ang(rng));
    }
    const auto inv = qrc::ir::gate_inverse(kind, params);
    const auto m = qrc::ir::gate_matrix_1q(kind, params);
    const auto mi = qrc::ir::gate_matrix_1q(
        inv.kind,
        std::span<const double>(inv.params.data(),
                                static_cast<std::size_t>(
                                    qrc::ir::gate_info(inv.kind).num_params)));
    EXPECT_TRUE((m * mi).equal_up_to_phase(qrc::la::Mat2::identity(), 1e-9))
        << info.name;
  }
}

TEST(GateTest, InverseComposesToIdentity2q) {
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<double> ang(-kPi, kPi);
  for (int i = 0; i < qrc::ir::kNumGateKinds; ++i) {
    const auto kind = static_cast<GateKind>(i);
    const auto& info = qrc::ir::gate_info(kind);
    if (!info.is_unitary || info.num_qubits != 2 ||
        kind == GateKind::kISWAP) {
      continue;  // iSWAP handled by Circuit::inverse specially
    }
    std::vector<double> params;
    for (int p = 0; p < info.num_params; ++p) {
      params.push_back(ang(rng));
    }
    const auto inv = qrc::ir::gate_inverse(kind, params);
    const auto m = qrc::ir::gate_matrix_2q(kind, params);
    const auto mi = qrc::ir::gate_matrix_2q(
        inv.kind,
        std::span<const double>(inv.params.data(),
                                static_cast<std::size_t>(
                                    qrc::ir::gate_info(inv.kind).num_params)));
    EXPECT_TRUE((m * mi).equal_up_to_phase(qrc::la::Mat4::identity(), 1e-9))
        << info.name;
  }
}

TEST(GateTest, EcrLocallyEquivalentToCx) {
  const auto ecr = qrc::ir::gate_matrix_2q(GateKind::kECR, {});
  EXPECT_TRUE(ecr.is_unitary());
  EXPECT_TRUE(qrc::la::local_invariants(ecr).approx_equal(
      qrc::la::local_invariants(qrc::la::cx01_mat()), 1e-6));
}

TEST(GateTest, RxxAtHalfPiLocallyEquivalentToCx) {
  const std::array<double, 1> half_pi{kPi / 2.0};
  const auto rxx = qrc::ir::gate_matrix_2q(GateKind::kRXX, half_pi);
  EXPECT_TRUE(qrc::la::local_invariants(rxx).approx_equal(
      qrc::la::local_invariants(qrc::la::cx01_mat()), 1e-6));
}

TEST(GateTest, IdentityDetection) {
  const std::array<double, 1> zero{0.0};
  const std::array<double, 1> two_pi{2.0 * kPi};
  const std::array<double, 1> half{0.5};
  EXPECT_TRUE(qrc::ir::gate_is_identity(GateKind::kRZ, zero));
  EXPECT_TRUE(qrc::ir::gate_is_identity(GateKind::kRZ, two_pi));
  EXPECT_FALSE(qrc::ir::gate_is_identity(GateKind::kRZ, half));
  EXPECT_FALSE(qrc::ir::gate_is_identity(GateKind::kX, {}));
}

// ----------------------------------------------------------- Operation ----

TEST(OperationTest, RejectsWrongArity) {
  const std::array<int, 1> one{0};
  EXPECT_THROW(Operation(GateKind::kCX, one), std::invalid_argument);
}

TEST(OperationTest, RejectsWrongParamCount) {
  const std::array<int, 1> one{0};
  EXPECT_THROW(Operation(GateKind::kRZ, one), std::invalid_argument);
}

TEST(OperationTest, RejectsDuplicateQubits) {
  const std::array<int, 2> dup{1, 1};
  EXPECT_THROW(Operation(GateKind::kCX, dup), std::invalid_argument);
}

TEST(OperationTest, OverlapDetection) {
  const std::array<int, 2> q01{0, 1};
  const std::array<int, 2> q12{1, 2};
  const std::array<int, 2> q23{2, 3};
  const Operation a(GateKind::kCX, q01);
  const Operation b(GateKind::kCX, q12);
  const Operation c(GateKind::kCX, q23);
  EXPECT_TRUE(a.overlaps(b));
  EXPECT_FALSE(a.overlaps(c));
}

// ------------------------------------------------------------- Circuit ----

TEST(CircuitTest, AppendValidatesRange) {
  Circuit c(2);
  EXPECT_THROW(c.h(2), std::out_of_range);
  EXPECT_THROW(c.cx(0, 5), std::out_of_range);
}

TEST(CircuitTest, DepthOfSerialAndParallel) {
  Circuit serial(1);
  serial.h(0);
  serial.x(0);
  serial.z(0);
  EXPECT_EQ(serial.depth(), 3);

  Circuit parallel(3);
  parallel.h(0);
  parallel.h(1);
  parallel.h(2);
  EXPECT_EQ(parallel.depth(), 1);
}

TEST(CircuitTest, DepthWithTwoQubitGates) {
  Circuit c(3);
  c.h(0);
  c.cx(0, 1);
  c.cx(1, 2);
  EXPECT_EQ(c.depth(), 3);
  EXPECT_EQ(c.multi_qubit_depth(), 2);
}

TEST(CircuitTest, BarrierSynchronisesWithoutLevel) {
  Circuit c(2);
  c.h(0);
  c.barrier();
  c.h(1);
  // h(1) must start after the barrier, i.e. at level of h(0).
  EXPECT_EQ(c.depth(), 2);
}

TEST(CircuitTest, GateCountsExcludeNonUnitary) {
  Circuit c(2);
  c.h(0);
  c.cx(0, 1);
  c.measure_all();
  c.barrier();
  EXPECT_EQ(c.gate_count(), 2);
  EXPECT_EQ(c.two_qubit_gate_count(), 1);
  const auto counts = c.count_ops();
  EXPECT_EQ(counts.at("h"), 1);
  EXPECT_EQ(counts.at("cx"), 1);
  EXPECT_EQ(counts.at("measure"), 2);
}

TEST(CircuitTest, InverseIsUnitaryInverse) {
  std::mt19937_64 rng(13);
  std::uniform_real_distribution<double> ang(-kPi, kPi);
  Circuit c(3);
  c.h(0);
  c.rz(ang(rng), 1);
  c.cx(0, 1);
  c.u3(ang(rng), ang(rng), ang(rng), 2);
  c.iswap(1, 2);
  c.t(0);
  c.ecr(2, 0);
  c.rxx(ang(rng), 0, 1);

  Circuit combined(3);
  combined.extend(c);
  combined.extend(c.inverse());

  Circuit empty(3);
  EXPECT_TRUE(qrc::ir::circuits_equivalent(combined, empty));
}

TEST(CircuitTest, RemapMovesOperands) {
  Circuit c(2);
  c.h(0);
  c.cx(0, 1);
  const Circuit r = c.remapped({3, 1}, 4);
  EXPECT_EQ(r.num_qubits(), 4);
  EXPECT_EQ(r.ops()[0].qubit(0), 3);
  EXPECT_EQ(r.ops()[1].qubit(0), 3);
  EXPECT_EQ(r.ops()[1].qubit(1), 1);
}

TEST(CircuitTest, ActiveQubits) {
  Circuit c(5);
  c.h(1);
  c.cx(1, 3);
  const auto active = c.active_qubits();
  ASSERT_EQ(active.size(), 2U);
  EXPECT_EQ(active[0], 1);
  EXPECT_EQ(active[1], 3);
}

TEST(CircuitTest, RemoveOpsKeepsOrder) {
  Circuit c(1);
  c.h(0);
  c.x(0);
  c.z(0);
  c.remove_ops({false, true, false});
  ASSERT_EQ(c.size(), 2U);
  EXPECT_EQ(c.ops()[0].kind(), GateKind::kH);
  EXPECT_EQ(c.ops()[1].kind(), GateKind::kZ);
}

// ----------------------------------------------------------------- DAG ----

TEST(DagTest, LinearChainLinks) {
  Circuit c(2);
  c.h(0);       // 0
  c.cx(0, 1);   // 1
  c.x(1);       // 2
  const qrc::ir::DagCircuit dag(c);
  EXPECT_EQ(dag.first_on_qubit(0), 0);
  EXPECT_EQ(dag.first_on_qubit(1), 1);
  EXPECT_EQ(dag.next_on_qubit(0, 0), 1);
  EXPECT_EQ(dag.prev_on_qubit(1, 0), 0);
  EXPECT_EQ(dag.prev_on_qubit(1, 1), -1);
  EXPECT_EQ(dag.next_on_qubit(1, 1), 2);
  EXPECT_EQ(dag.last_on_qubit(1), 2);
  EXPECT_EQ(dag.next_on_qubit(2, 1), -1);
}

TEST(DagTest, BarrierBlocksAllQubits) {
  Circuit c(2);
  c.h(0);      // 0
  c.barrier(); // 1
  c.x(1);      // 2
  const qrc::ir::DagCircuit dag(c);
  EXPECT_EQ(dag.next_on_qubit(0, 0), 1);
  EXPECT_EQ(dag.prev_on_qubit(2, 1), 1);
  EXPECT_EQ(dag.prev_on_qubit(1, 0), 0);
  EXPECT_EQ(dag.prev_on_qubit(1, 1), -1);
  EXPECT_EQ(dag.next_on_qubit(1, 1), 2);
}

// ----------------------------------------------------------- Simulator ----

TEST(SimTest, BellState) {
  Circuit c(2);
  c.h(0);
  c.cx(0, 1);
  Statevector s(2);
  s.apply(c);
  const auto& amp = s.amplitudes();
  const double inv_sqrt2 = 1.0 / std::sqrt(2.0);
  EXPECT_NEAR(std::abs(amp[0]), inv_sqrt2, 1e-12);
  EXPECT_NEAR(std::abs(amp[3]), inv_sqrt2, 1e-12);
  EXPECT_NEAR(std::abs(amp[1]), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(amp[2]), 0.0, 1e-12);
}

TEST(SimTest, GhzState) {
  Circuit c(4);
  c.h(0);
  for (int i = 0; i < 3; ++i) {
    c.cx(i, i + 1);
  }
  Statevector s(4);
  s.apply(c);
  const auto& amp = s.amplitudes();
  EXPECT_NEAR(std::abs(amp[0]), 1.0 / std::sqrt(2.0), 1e-12);
  EXPECT_NEAR(std::abs(amp[15]), 1.0 / std::sqrt(2.0), 1e-12);
}

TEST(SimTest, CcxTruthTable) {
  // |110> (q0=0? operands: ccx(0,1,2) with controls 0,1, target 2).
  Circuit c(3);
  c.x(0);
  c.x(1);
  c.ccx(0, 1, 2);
  Statevector s(3);
  s.apply(c);
  // Expect |111> = index 7.
  EXPECT_NEAR(std::abs(s.amplitudes()[7]), 1.0, 1e-12);
}

TEST(SimTest, CswapExchangesTargets) {
  // control q0 = 1, q1 = 1, q2 = 0 -> after cswap(0,1,2): q1 = 0, q2 = 1.
  Circuit c(3);
  c.x(0);
  c.x(1);
  c.cswap(0, 1, 2);
  Statevector s(3);
  s.apply(c);
  // Expect |101> = q2=1,q1=0,q0=1 = index 5.
  EXPECT_NEAR(std::abs(s.amplitudes()[5]), 1.0, 1e-12);
}

TEST(SimTest, SwapEqualsThreeCx) {
  Circuit a(2);
  a.swap(0, 1);
  Circuit b(2);
  b.cx(0, 1);
  b.cx(1, 0);
  b.cx(0, 1);
  EXPECT_TRUE(qrc::ir::circuits_equivalent(a, b));
}

TEST(SimTest, HZHEqualsX) {
  Circuit a(1);
  a.h(0);
  a.z(0);
  a.h(0);
  Circuit b(1);
  b.x(0);
  EXPECT_TRUE(qrc::ir::circuits_equivalent(a, b));
}

TEST(SimTest, InequivalentCircuitsDetected) {
  Circuit a(2);
  a.cx(0, 1);
  Circuit b(2);
  b.cx(1, 0);
  EXPECT_FALSE(qrc::ir::circuits_equivalent(a, b));
}

TEST(SimTest, GlobalPhaseConsistencyEnforced) {
  // rz(t) differs from p(t) by a global phase: still equivalent.
  Circuit a(1);
  a.rz(0.7, 0);
  Circuit b(1);
  b.p(0.7, 0);
  EXPECT_TRUE(qrc::ir::circuits_equivalent(a, b));
  // But s followed by rz(-pi/2) is identity only up to phase; compare
  // against true identity.
  Circuit c(1);
  c.s(0);
  c.rz(-kPi / 2.0, 0);
  Circuit empty(1);
  EXPECT_TRUE(qrc::ir::circuits_equivalent(c, empty));
}

TEST(SimTest, PermutationAwareEquivalence) {
  // The permutation semantics match routing: U_b == P * U_a where P
  // relabels output qubit q of `a` to final_permutation[q]. A circuit that
  // ends in an explicit SWAP is equivalent to the swap-free circuit under
  // the {1, 0} permutation.
  Circuit a(2);
  a.h(0);
  a.t(1);
  Circuit b(2);
  b.h(0);
  b.t(1);
  b.swap(0, 1);
  EXPECT_FALSE(qrc::ir::circuits_equivalent(a, b));
  EXPECT_TRUE(qrc::ir::circuits_equivalent(a, b, 4, 12345, {1, 0}));
}

TEST(SimTest, MappedEquivalenceWithLayout) {
  // Logical bell pair on (0, 1) mapped to physical (2, 0) of a 3-qubit
  // device, no routing (final layout = initial layout).
  Circuit logical(2);
  logical.h(0);
  logical.cx(0, 1);
  Circuit physical(3);
  physical.h(2);
  physical.cx(2, 0);
  EXPECT_TRUE(qrc::ir::mapped_circuit_equivalent(logical, physical, {2, 0},
                                                 {2, 0}));
  EXPECT_FALSE(qrc::ir::mapped_circuit_equivalent(logical, physical, {0, 1},
                                                  {0, 1}));
}

TEST(SimTest, RandomStateIsNormalised) {
  const Statevector s = Statevector::random(6, 99);
  EXPECT_NEAR(s.norm(), 1.0, 1e-12);
}

TEST(SimTest, NonUnitaryOpsSkippedSilently) {
  // Only measure/barrier/reset may be silently ignored — they are the
  // known non-unitary circuit elements and equivalence checking concerns
  // the unitary part. Everything else must throw (see the next test).
  Circuit c(2);
  c.h(0);
  c.measure(0);
  c.barrier();
  c.reset(1);
  Statevector with_markers(2);
  with_markers.apply(c);
  Circuit bare(2);
  bare.h(0);
  Statevector reference(2);
  reference.apply(bare);
  EXPECT_NEAR(std::abs(with_markers.inner_product(reference)), 1.0, 1e-12);
}

TEST(SimTest, ApplyMatrixMatchesNamedGates) {
  // The raw-matrix entry points (used by the verifier's conjugated-gate
  // application) must agree with the GateKind path.
  Statevector via_gate(3);
  Circuit c(3);
  c.h(1);
  c.cx(1, 2);
  via_gate.apply(c);
  Statevector via_matrix(3);
  via_matrix.apply_matrix(qrc::la::h_mat(), 1);
  via_matrix.apply_matrix(
      qrc::ir::gate_matrix_2q(qrc::ir::GateKind::kCX, {}), 1, 2);
  EXPECT_NEAR(std::abs(via_gate.inner_product(via_matrix)), 1.0, 1e-12);
}

TEST(SimTest, PermuteAndEmbedArePublic) {
  // permute_qubits: qubit q of the input becomes qubit perm[q].
  Statevector s(2);
  Circuit c(2);
  c.x(0);
  s.apply(c);  // |01> = index 1
  const Statevector permuted = qrc::ir::permute_qubits(s, {1, 0});
  EXPECT_NEAR(std::abs(permuted.amplitudes()[2]), 1.0, 1e-12);
  // embed_state: logical qubit 0 at physical wire 2 of a 3-qubit register.
  const Statevector embedded = qrc::ir::embed_state(
      s, 3, std::vector<int>{2, 0});
  EXPECT_NEAR(std::abs(embedded.amplitudes()[4]), 1.0, 1e-12);
}

// ---------------------------------------------------------------- QASM ----

TEST(QasmTest, RoundTripSmallCircuit) {
  Circuit c(3, "demo");
  c.h(0);
  c.cx(0, 1);
  c.rz(kPi / 3.0, 2);
  c.u3(0.1, 0.2, 0.3, 1);
  c.ccx(0, 1, 2);
  c.swap(0, 2);
  c.measure_all();
  const std::string text = qrc::ir::to_qasm(c);
  const Circuit back = qrc::ir::from_qasm(text);
  ASSERT_EQ(back.num_qubits(), 3);
  ASSERT_EQ(back.size(), c.size());
  EXPECT_TRUE(qrc::ir::circuits_equivalent(c, back));
}

TEST(QasmTest, ParsesPiExpressions) {
  const std::string text = R"(OPENQASM 2.0;
include "qelib1.inc";
qreg q[1];
rz(pi/2) q[0];
rz(-pi/4) q[0];
rz(2*pi/3) q[0];
rz((pi+1)/2) q[0];
)";
  const Circuit c = qrc::ir::from_qasm(text);
  ASSERT_EQ(c.size(), 4U);
  EXPECT_NEAR(c.ops()[0].param(0), kPi / 2.0, 1e-12);
  EXPECT_NEAR(c.ops()[1].param(0), -kPi / 4.0, 1e-12);
  EXPECT_NEAR(c.ops()[2].param(0), 2.0 * kPi / 3.0, 1e-12);
  EXPECT_NEAR(c.ops()[3].param(0), (kPi + 1.0) / 2.0, 1e-12);
}

TEST(QasmTest, ParsesAliases) {
  const std::string text = R"(OPENQASM 2.0;
qreg q[2];
u1(0.5) q[0];
u2(0.1,0.2) q[0];
u(0.1,0.2,0.3) q[1];
cnot q[0],q[1];
)";
  const Circuit c = qrc::ir::from_qasm(text);
  ASSERT_EQ(c.size(), 4U);
  EXPECT_EQ(c.ops()[0].kind(), GateKind::kP);
  EXPECT_EQ(c.ops()[1].kind(), GateKind::kU3);
  EXPECT_NEAR(c.ops()[1].param(0), kPi / 2.0, 1e-12);
  EXPECT_EQ(c.ops()[2].kind(), GateKind::kU3);
  EXPECT_EQ(c.ops()[3].kind(), GateKind::kCX);
}

TEST(QasmTest, RejectsUnknownGate) {
  const std::string text = "qreg q[1];\nfoo q[0];\n";
  EXPECT_THROW((void)qrc::ir::from_qasm(text), std::runtime_error);
}

TEST(QasmTest, IgnoresComments) {
  const std::string text =
      "// header comment\nqreg q[1];\nh q[0]; // apply hadamard\n";
  const Circuit c = qrc::ir::from_qasm(text);
  ASSERT_EQ(c.size(), 1U);
  EXPECT_EQ(c.ops()[0].kind(), GateKind::kH);
}

TEST(QasmTest, ParsesScientificAndSignedParameters) {
  const std::string text = R"(OPENQASM 2.0;
qreg q[1];
rx(1e-3) q[0];
rz(-2.5E+1) q[0];
ry(+0.5) q[0];
rx(1.5e2/3) q[0];
)";
  const Circuit c = qrc::ir::from_qasm(text);
  ASSERT_EQ(c.size(), 4U);
  EXPECT_NEAR(c.ops()[0].param(0), 1e-3, 1e-15);
  EXPECT_NEAR(c.ops()[1].param(0), -25.0, 1e-12);
  EXPECT_NEAR(c.ops()[2].param(0), 0.5, 1e-15);
  EXPECT_NEAR(c.ops()[3].param(0), 50.0, 1e-12);
}

TEST(QasmTest, EmitsTheWireTextExactly) {
  // Parameters print as printf's %.15g; served results carry this text, so
  // every byte is pinned.
  Circuit c(2, "pinned");
  c.rz(-0.0, 0);
  c.rz(1e-300, 1);
  c.p(5e-324, 0);
  c.u3(1e18, 0.1 + 0.2, 1.0 / 3, 1);
  c.rzz(2.0 * kPi, 0, 1);
  c.cx(0, 1);
  c.barrier();
  c.measure(0);
  c.reset(1);
  EXPECT_EQ(qrc::ir::to_qasm(c),
            "OPENQASM 2.0;\n"
            "include \"qelib1.inc\";\n"
            "qreg q[2];\n"
            "creg c[2];\n"
            "rz(-0) q[0];\n"
            "rz(1e-300) q[1];\n"
            "p(4.94065645841247e-324) q[0];\n"
            "u3(1e+18,0.3,0.333333333333333) q[1];\n"
            "rzz(6.28318530717959) q[0],q[1];\n"
            "cx q[0],q[1];\n"
            "barrier q;\n"
            "measure q[0] -> c[0];\n"
            "reset q[1];\n");
}

TEST(QasmTest, MalformedIndexReportsLineContext) {
  const std::string text =
      "OPENQASM 2.0;\n"
      "qreg q[2];\n"
      "cx q[zero],q[1];\n";
  try {
    (void)qrc::ir::from_qasm(text);
    FAIL() << "expected a parse error";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
    EXPECT_NE(msg.find("cx q[zero]"), std::string::npos) << msg;
  }
}

TEST(QasmTest, RejectsMalformedInputWithoutUncaughtStdExceptions) {
  // Every case used to escape as std::invalid_argument/out_of_range from
  // std::stoi/std::stod (or be silently misparsed); all must surface as a
  // qasm parse error now.
  const std::vector<std::string> bad = {
      "qreg q[two];\n",               // non-numeric register size
      "qreg q[];\n",                  // empty register size
      "qreg q[99999999];\n",          // absurd register size
      "qreg q[2];\nh q[1abc];\n",     // trailing garbage in index
      "qreg q[2];\nh q[-1];\n",       // negative index
      "qreg q[2];\nrx(0.5bad) q[0];\n",   // trailing garbage in param
      "qreg q[2];\nrx(.) q[0];\n",        // no digits
      "qreg q[2];\nrx((pi q[0];\n",       // unbalanced parens
      "qreg q[2];\nmeasure q[x] -> c[0];\n",
  };
  for (const std::string& text : bad) {
    EXPECT_THROW((void)qrc::ir::from_qasm(text), std::runtime_error)
        << text;
  }
}

TEST(QasmTest, ExpressionNestingIsCappedAt128Levels) {
  // Parentheses and unary signs recurse; without a cap, 50,000 nested
  // parentheses or 300,000 minus signs overflowed the stack.
  const auto rz_of = [](const std::string& expr) {
    return "OPENQASM 2.0;\nqreg q[1];\nrz(" + expr + ") q[0];\n";
  };
  const auto parens = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '(') + "0.5" +
           std::string(static_cast<std::size_t>(depth), ')');
  };
  const auto minuses = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '-') + "0.5";
  };
  Circuit c = qrc::ir::from_qasm(rz_of(parens(128)));
  ASSERT_EQ(c.size(), 1U);
  EXPECT_EQ(c.ops()[0].param(0), 0.5);
  c = qrc::ir::from_qasm(rz_of(minuses(128)));
  ASSERT_EQ(c.size(), 1U);
  EXPECT_EQ(c.ops()[0].param(0), 0.5);
  c = qrc::ir::from_qasm(rz_of("-(" + minuses(126) + ")"));
  EXPECT_EQ(c.ops()[0].param(0), -0.5);

  for (const std::string& expr :
       {parens(129), minuses(129), parens(20000), parens(50000),
        minuses(300000), "-(" + minuses(127) + ")"}) {
    try {
      (void)qrc::ir::from_qasm(rz_of(expr));
      ADD_FAILURE() << "expected a parse error for depth " << expr.size();
    } catch (const std::runtime_error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("qasm: parse error at line 3"), std::string::npos)
          << msg.substr(0, 200);
      EXPECT_NE(msg.find("nested deeper than 128"), std::string::npos)
          << msg.substr(0, 200);
    }
  }
}

TEST(QasmTest, NonFiniteParametersAreRejected) {
  // These used to parse to NaN or +-inf; the compile then dropped the
  // gates and verification still called the result equivalent.
  for (const char* stmt :
       {"rz(0/0) q[0];", "cp(1/0) q[0],q[1];", "rz(-1e308*10) q[0];",
        "rz(1e308+1e308) q[0];", "rz(1/(1/0)) q[0];",
        "u3(0.1,-1e308-1e308,0.2) q[1];", "rx(pi/0*0) q[0];"}) {
    const std::string text =
        std::string("OPENQASM 2.0;\nqreg q[2];\n") + stmt + "\n";
    try {
      (void)qrc::ir::from_qasm(text);
      ADD_FAILURE() << "expected a parse error for " << stmt;
    } catch (const std::runtime_error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("qasm: parse error at line 3"), std::string::npos)
          << msg;
      EXPECT_NE(msg.find("not finite"), std::string::npos) << msg;
    }
  }
  // Large finite values still parse.
  const Circuit c = qrc::ir::from_qasm(
      "OPENQASM 2.0;\nqreg q[1];\nrz(1e308*1.5-1e308) q[0];\n");
  ASSERT_EQ(c.size(), 1U);
  EXPECT_TRUE(std::isfinite(c.ops()[0].param(0)));
}

TEST(QasmTest, MeasureOfAWholeRegisterBroadcasts) {
  // Qiskit and MQT Bench exports end with `measure q -> c;`.
  const Circuit c = qrc::ir::from_qasm(
      "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\ncreg c[3];\n"
      "h q[0];\nmeasure q -> c;\n");
  Circuit want(3);
  want.h(0);
  want.measure_all();
  EXPECT_TRUE(c == want) << qrc::ir::to_qasm(c);
  EXPECT_THROW((void)qrc::ir::from_qasm("qreg q[2];\nmeasure r -> c;\n"),
               std::runtime_error);
}

TEST(QasmTest, SingleQubitGatesAndResetBroadcastOverTheRegister) {
  // OpenQASM 2 applies a gate named on a whole register to every qubit.
  const Circuit c = qrc::ir::from_qasm(
      "OPENQASM 2.0;\nqreg r[3];\ncreg c[3];\nh r;\nrz(0.25) r;\n"
      "cx r[0], r[2];\nreset r;\nmeasure r -> c;\n");
  Circuit want(3);
  for (int q = 0; q < 3; ++q) {
    want.h(q);
  }
  for (int q = 0; q < 3; ++q) {
    want.rz(0.25, q);
  }
  want.cx(0, 2);
  for (int q = 0; q < 3; ++q) {
    want.reset(q);
  }
  want.measure_all();
  EXPECT_TRUE(c == want) << qrc::ir::to_qasm(c);

  // A multi-qubit gate over the one register would repeat a qubit.
  for (const char* text : {"qreg q[2];\ncx q;\n",
                           "qreg q[2];\ncx q, q[1];\n",
                           "qreg q[2];\nh p;\n"}) {
    EXPECT_THROW((void)qrc::ir::from_qasm(text), std::runtime_error)
        << text;
  }
}

TEST(QasmTest, ErrorsCarryTheQasmParseErrorPrefix) {
  try {
    (void)qrc::ir::from_qasm("qreg q[1];\nfoo q[0];\n");
    FAIL() << "expected a parse error";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("qasm: parse error at line 2"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("unknown gate 'foo'"), std::string::npos) << msg;
  }
}

TEST(QasmTest, UnsupportedConstructsAreNamedInTheError) {
  // Without a dedicated check these failed on an unrelated token:
  // "bad qubit reference 'foo q'" and "unknown identifier 'c'".
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"qreg q[2];\nopaque foo q;\n", "'opaque'"},
      {"qreg q[2];\nopaque bar(theta) a, b;\n", "'opaque'"},
      {"qreg q[2];\ncreg c[2];\nif(c==1) x q[1];\n",
       "classically controlled 'if'"},
      {"qreg q[2];\ncreg c[2];\nif (c == 3) cx q[0], q[1];\n",
       "classically controlled 'if'"},
      // A second register used to restart the circuit, silently dropping
      // every gate before it.
      {"qreg a[2];\nx a[0];\ncx a[0],a[1];\nqreg b[3];\nh b[0];\n",
       "second 'qreg'"},
  };
  for (const auto& [text, construct] : cases) {
    try {
      (void)qrc::ir::from_qasm(text);
      ADD_FAILURE() << "expected a parse error for " << text;
    } catch (const std::runtime_error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("qasm: parse error at line"), std::string::npos)
          << msg;
      EXPECT_NE(msg.find("unsupported"), std::string::npos) << msg;
      EXPECT_NE(msg.find(construct), std::string::npos) << msg;
    }
  }
}

TEST(QasmTest, LongExpressionParsesInLinearTime) {
  // Each number used to copy the rest of its expression, so a 1 MiB
  // `rz(1+1+...)` frame (the serve default --max-frame-bytes) took the
  // parser about ten seconds; numbers are now read in place.
  constexpr int kTerms = 524000;
  std::string text = "OPENQASM 2.0;\nqreg q[1];\nrz(1";
  text.reserve(2 * kTerms + 64);
  for (int i = 1; i < kTerms; ++i) {
    text += "+1";
  }
  text += ") q[0];\n";
  ASSERT_LT(text.size(), std::size_t{1} << 20);
  const auto start = std::chrono::steady_clock::now();
  const Circuit c = qrc::ir::from_qasm(text);
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  ASSERT_EQ(c.size(), 1U);
  EXPECT_EQ(c.ops()[0].param(0), static_cast<double>(kTerms));
  EXPECT_LT(seconds, 2.0);
}

/// The angle of `rz(<expr>) q[0];`, or the parse error's message.
std::string parse_angle(const std::string& expr, double* angle) {
  try {
    const Circuit c =
        qrc::ir::from_qasm("qreg q[1];\nrz(" + expr + ") q[0];\n");
    *angle = c.ops()[0].param(0);
    return "";
  } catch (const std::runtime_error& e) {
    return e.what();
  }
}

TEST(QasmTest, NumberLiteralsKeepTheirValuesAndErrors) {
  const std::vector<std::pair<std::string, double>> values = {
      {"1.", 1.0}, {".5", 0.5}, {"00012", 12.0}, {"1E2", 100.0},
      {"1e+2", 100.0}, {"2.5e-2", 0.025}, {"1.7976931348623157e308",
                                            1.7976931348623157e308}};
  for (const auto& [text, want] : values) {
    double got = 0.0;
    EXPECT_EQ(parse_angle(text, &got), "") << text;
    EXPECT_EQ(got, want) << text;
  }
  const std::vector<std::pair<std::string, std::string>> errors = {
      {"1e999", "number out of range: '1e999'"},
      {"1e-400", "number out of range: '1e-400'"},
      {"1e-324", "number out of range: '1e-324'"},
      {"2*1e999+1", "number out of range: '1e999+1'"},
      {".", "expected number, got '.'"},
      {"0.5bad", "trailing characters in expression: 0.5bad"},
      {"1e", "trailing characters in expression: 1e"},
      {"1_0", "trailing characters in expression: 1_0"},
  };
  for (const auto& [text, want] : errors) {
    double unused = 0.0;
    const std::string msg = parse_angle(text, &unused);
    EXPECT_NE(msg.find("qasm: parse error at line 2: " + want),
              std::string::npos)
        << text << " -> " << msg;
  }
}

TEST(QasmTest, SubnormalLiteralsParse) {
  // to_qasm prints the smallest subnormal as 4.94065645841247e-324
  // (pinned by EmitsTheWireTextExactly); its own output must read back.
  double got = 0.0;
  EXPECT_EQ(parse_angle("4.94065645841247e-324", &got), "");
  EXPECT_EQ(got, std::numeric_limits<double>::denorm_min());
  EXPECT_EQ(parse_angle("2.2250738585072009e-308", &got), "");
  EXPECT_EQ(got, 2.2250738585072009e-308);
  Circuit c(1);
  c.p(5e-324, 0);
  c.rz(-1e-310, 0);
  EXPECT_TRUE(qrc::ir::from_qasm(qrc::ir::to_qasm(c)) == c);
}

TEST(QasmTest, HexFloatLiteralsAreRejected) {
  // OpenQASM 2 reals are decimal; C's 0x1p3 used to read as 8.
  for (const std::string text : {"0x1p3", "0X1P3", "-0x10", "0x.8"}) {
    double unused = 0.0;
    const std::string msg = parse_angle(text, &unused);
    EXPECT_NE(msg.find("hexadecimal number"), std::string::npos)
        << text << " -> " << msg;
    EXPECT_NE(msg.find("OpenQASM 2 reals are decimal"), std::string::npos)
        << msg;
  }
}

/// The error from_qasm raises on `text`, or "" when it parses.
std::string qasm_error(const std::string& text) {
  try {
    (void)qrc::ir::from_qasm(text);
    return "";
  } catch (const std::runtime_error& e) {
    return e.what();
  }
}

TEST(QasmTest, TextAfterAnOperandIsAnError) {
  // Text after an operand's ']' used to be dropped: `h q[0] q[1];` applied
  // h to q[0] alone, and `cx q[0](,)x,q[1];` read as `cx q[0],q[1]`.
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"qreg q[2];\nh q[0] q[1];\n", "bad qubit reference 'q[0] q[1]'"},
      {"qreg q[2];\ncx q[0](,)x,q[1];\n", "bad qubit reference 'q[0](,)x'"},
  };
  for (const auto& [text, want] : cases) {
    const std::string msg = qasm_error(text);
    EXPECT_NE(msg.find("qasm: parse error at line 2"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find(want), std::string::npos) << msg;
  }
  // Blanks around an operand are not text after it.
  EXPECT_EQ(qrc::ir::from_qasm("qreg q[2];\ncx  q[0] , q[1] ;\n").size(), 1U);
}

TEST(QasmTest, KeywordsEndAtAWordBoundary) {
  // Keywords used to match as prefixes: `cregs garbage!;` was skipped
  // unread, and `qregq[2];` declared the register q.
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"qreg q[1];\ncregs garbage!;\n", "unknown gate 'cregs'"},
      {"qregq[2];\nh q[0];\n", "statement before qreg"},
  };
  for (const auto& [text, want] : cases) {
    const std::string msg = qasm_error(text);
    EXPECT_NE(msg.find(want), std::string::npos) << msg;
  }
  // Any byte that cannot continue an identifier ends a keyword.
  const Circuit c = qrc::ir::from_qasm(
      "OPENQASM 2.0;\ninclude\"qelib1.inc\";\nqreg\tq[2];\ncreg c[2];\n"
      "h q[0];\nbarrier q;\nmeasure q[0]->c[0];\n");
  ASSERT_EQ(c.num_qubits(), 2);
  EXPECT_EQ(c.size(), 3U);
}

// ------------------------------------------------- QASM golden digests ----

/// FNV-1a-64 over what from_qasm built: the qubit count, then per op its
/// kind, qubits and parameter bit patterns, then the global-phase bits.
/// Bytes are fed in a fixed order, so the digest does not depend on the
/// platform's byte order.
class ParseDigest {
 public:
  void add(std::uint64_t bits) {
    for (int i = 0; i < 8; ++i) {
      hash_ = (hash_ ^ ((bits >> (8 * i)) & 0xffU)) * 0x100000001b3ULL;
    }
  }
  void add(const Circuit& c) {
    add(static_cast<std::uint64_t>(c.num_qubits()));
    add(static_cast<std::uint64_t>(c.size()));
    for (const Operation& op : c.ops()) {
      add(static_cast<std::uint64_t>(op.kind()));
      for (const int q : op.qubits()) {
        add(static_cast<std::uint64_t>(q));
      }
      for (const double p : op.params()) {
        add(std::bit_cast<std::uint64_t>(p));
      }
    }
    add(std::bit_cast<std::uint64_t>(c.global_phase()));
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Hand-written inputs in the forms real exports take: comments, CRLF
/// line ends, tabs, the u1/u2/u/cnot aliases, register broadcasts,
/// `measure q -> c` and nested pi expressions.
const std::vector<std::string>& hand_written_qasm() {
  static const std::vector<std::string> kTexts = {
      "// Generated by hand\r\nOPENQASM 2.0;\r\ninclude \"qelib1.inc\";\r\n"
      "// two qubits\r\nqreg q[2];\r\ncreg c[2];\r\nh q[0]; // hadamard\r\n"
      "cx q[0],q[1];\r\nmeasure q -> c;\r\n",
      "OPENQASM 2.0;\n\tqreg\tq[3];\n\th\tq[0];\n\trz( pi / 4 )\tq[1];\n"
      "\tcx q[0] ,\tq[2];\n  u3( 0.1 , -0.2 ,\t0.3 ) q[2] ;\n",
      "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nu1(0.5) q[0];\n"
      "u2(0.1,pi) q[1];\nu(0.1,0.2,0.3) q[0];\ncnot q[1],q[0];\n"
      "u1(-pi/8) q[1];\n",
      "OPENQASM 2.0;\nqreg r[4];\ncreg m[4];\nh r;\nrz(0.25) r;\nx r[3];\n"
      "barrier r;\nreset r;\nsx r;\nbarrier r[0],r[1];\nmeasure r -> m;\n",
      "OPENQASM 2.0;\nqreg q[3];\nrz(-(pi/2)*(1+1/3)) q[0];\n"
      "u3(pi/2, -pi/(2*2), ((pi))) q[1];\ncp(2*pi/3 - 1e-3) q[0],q[1];\n"
      "p(+-pi) q[2];\nrzz((pi+1)/2*-(0.5-pi)) q[2],q[0];\n"
      "rx(1.5e2/3) q[1];\nry(.5) q[0];\nrz(1.) q[1];\nrz(00012) q[2];\n"
      "rz(2.5E+1) q[0];\nrz(1e-3) q[0];\ncrz(pi*pi/(pi+pi)) q[1],q[2];\n",
      "OPENQASM 2.0; qreg q[5]; creg c[5]; h q[0]; cx q[0],\n   q[1];;\n"
      "ccx q[0],q[1],q[2];\ncswap q[2],q[3],q[4];\nswap q[ 3 ],q[04];\n"
      "sdg q[1]; tdg q[2]; id q[3]; ecr q[0],q[4]; rxx(0.1) q[1],q[2];\n"
      "measure q[1] -> c[1];\nmeasure q[2]->c[2];\nreset q[0];\nh q[4]",
  };
  return kTexts;
}

TEST(QasmGoldenTest, ParsesTheCorpusToRecordedDigests) {
  // The parsed circuits of the wire texts of the 22 families at six
  // widths, raw and lowered to ibmq_washington's native gates (the inputs
  // of PassGoldenTest), and of the hand-written texts above. The digests
  // were recorded with the earlier statement-splitting parser, which pins
  // the one-pass front end to its circuits bit for bit.
  qrc::passes::PassContext native_ctx;
  native_ctx.device =
      &qrc::device::get_device(qrc::device::DeviceId::kIbmqWashington);
  ParseDigest raw_digest;
  ParseDigest native_digest;
  for (const auto family : qrc::bench::all_families()) {
    for (const int n : {2, 3, 5, 8, 13, 20}) {
      const Circuit raw = qrc::bench::make_benchmark(family, n, 1);
      Circuit native = raw;
      (void)qrc::passes::BasisTranslator().run(native, native_ctx);
      raw_digest.add(qrc::ir::from_qasm(qrc::ir::to_qasm(raw)));
      native_digest.add(qrc::ir::from_qasm(qrc::ir::to_qasm(native)));
    }
  }
  ParseDigest hand_digest;
  for (const std::string& text : hand_written_qasm()) {
    hand_digest.add(qrc::ir::from_qasm(text));
  }
  EXPECT_EQ(raw_digest.value(), 0x027c04d5017d73c7ULL)
      << "raw digest 0x" << std::hex << raw_digest.value();
  EXPECT_EQ(native_digest.value(), 0xccfe112a18095262ULL)
      << "native digest 0x" << std::hex << native_digest.value();
  EXPECT_EQ(hand_digest.value(), 0x40158cb971dbcadeULL)
      << "hand-written digest 0x" << std::hex << hand_digest.value();
}

// ----------------------------------------- equality and canonical keys ----

namespace keys {

Circuit sample() {
  Circuit c(3, "sample");
  c.h(0);
  c.rz(0.25, 1);
  c.cx(0, 1);
  c.cx(1, 2);
  c.measure_all();
  return c;
}

}  // namespace keys

TEST(CircuitEqualityTest, DifferentBuildPathsCompareEqual) {
  // Typed helpers vs raw Operation appends must produce equal circuits
  // with equal canonical keys.
  const Circuit a = keys::sample();
  Circuit b(3, "completely different name");
  b.append(Operation(GateKind::kH, std::array<int, 1>{0}));
  b.append(Operation(GateKind::kRZ, std::array<int, 1>{1},
                     std::array<double, 1>{0.25}));
  b.append(Operation(GateKind::kCX, std::array<int, 2>{0, 1}));
  b.append(Operation(GateKind::kCX, std::array<int, 2>{1, 2}));
  for (int q = 0; q < 3; ++q) {
    b.measure(q);
  }
  EXPECT_TRUE(a == b);
  EXPECT_EQ(qrc::ir::canonical_key(a), qrc::ir::canonical_key(b));
}

TEST(CircuitEqualityTest, NameIsMetadataNotContent) {
  Circuit a = keys::sample();
  Circuit b = keys::sample();
  b.set_name("other");
  EXPECT_TRUE(a == b);
  EXPECT_EQ(qrc::ir::canonical_key(a), qrc::ir::canonical_key(b));
}

TEST(CircuitEqualityTest, PerturbationsAreDetected) {
  const Circuit base = keys::sample();
  const std::string base_key = qrc::ir::canonical_key(base);

  // Different gate kind.
  Circuit gate = keys::sample();
  gate.mutable_ops()[0] = Operation(GateKind::kX, std::array<int, 1>{0});
  EXPECT_FALSE(base == gate);
  EXPECT_NE(base_key, qrc::ir::canonical_key(gate));

  // Different operand qubit.
  Circuit qubit = keys::sample();
  qubit.mutable_ops()[2].set_qubit(1, 2);
  EXPECT_FALSE(base == qubit);
  EXPECT_NE(base_key, qrc::ir::canonical_key(qubit));

  // Parameter nudged by one part in 1e12 — still a different circuit.
  Circuit param = keys::sample();
  param.mutable_ops()[1].set_param(0, 0.25 + 2.5e-13);
  EXPECT_FALSE(base == param);
  EXPECT_NE(base_key, qrc::ir::canonical_key(param));

  // Extra trailing op.
  Circuit extra = keys::sample();
  extra.z(2);
  EXPECT_FALSE(base == extra);
  EXPECT_NE(base_key, qrc::ir::canonical_key(extra));

  // Same ops, wider register.
  Circuit wider(4);
  for (const auto& op : base.ops()) {
    wider.append(op);
  }
  EXPECT_FALSE(base == wider);
  EXPECT_NE(base_key, qrc::ir::canonical_key(wider));

  // Global phase participates in both equality and the key.
  Circuit phase = keys::sample();
  phase.add_global_phase(0.5);
  EXPECT_FALSE(base == phase);
  EXPECT_NE(base_key, qrc::ir::canonical_key(phase));
}

TEST(CircuitEqualityTest, SignedZeroParametersShareTheKey) {
  // -0.0 == 0.0, so key equality must agree with operator==.
  Circuit pos(1);
  pos.rz(0.0, 0);
  Circuit neg(1);
  neg.rz(-0.0, 0);
  EXPECT_TRUE(pos == neg);
  EXPECT_EQ(qrc::ir::canonical_key(pos), qrc::ir::canonical_key(neg));
}

TEST(CircuitEqualityTest, QasmRoundTripPreservesTheKey) {
  const Circuit a = keys::sample();
  const Circuit back = qrc::ir::from_qasm(qrc::ir::to_qasm(a));
  EXPECT_TRUE(a == back);
  EXPECT_EQ(qrc::ir::canonical_key(a), qrc::ir::canonical_key(back));
}

/// The ostringstream/std::hexfloat encoding that canonical_key replaced;
/// the cache and transposition keys must stay byte-identical to it.
std::string reference_canonical_key(const Circuit& circuit) {
  std::ostringstream os;
  os << std::hexfloat;
  const auto canonical = [](double v) { return v == 0.0 ? 0.0 : v; };
  os << "q" << circuit.num_qubits() << ";gp"
     << canonical(circuit.global_phase()) << ";";
  for (const Operation& op : circuit.ops()) {
    os << qrc::ir::gate_name(op.kind());
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

TEST(CircuitEqualityTest, CanonicalKeyMatchesTheHexfloatStreamEncoding) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> special = {
      0.0,      -0.0,     1.0,          -1.0,      0.1,
      DBL_MAX,  -DBL_MAX, DBL_MIN,      -DBL_MIN,  5e-324,
      -5e-324,  2.2250738585072009e-308, inf,      -inf,
      nan,      -nan,     kPi,          1e300,     -1e-300};
  std::mt19937_64 rng(2026);
  std::vector<double> values = special;
  for (int i = 0; i < 20000; ++i) {
    values.push_back(std::bit_cast<double>(rng()));
  }
  for (std::size_t i = 0; i + 2 < values.size(); i += 3) {
    Circuit c(130);
    c.rz(values[i], static_cast<int>(i % 130));
    c.u3(values[i], values[i + 1], values[i + 2], 129);
    c.cx(static_cast<int>(i % 128), 128);
    c.ccx(0, 127, 129);
    c.add_global_phase(values[i + 1]);
    c.measure(3);
    ASSERT_EQ(qrc::ir::canonical_key(c), reference_canonical_key(c))
        << "values " << values[i] << " " << values[i + 1];
  }
  EXPECT_EQ(qrc::ir::canonical_key(Circuit(0)),
            reference_canonical_key(Circuit(0)));
}

TEST(CircuitEqualityTest, EmptyCircuitsOfSameWidthAreEqual) {
  EXPECT_TRUE(Circuit(2) == Circuit(2, "named"));
  EXPECT_FALSE(Circuit(2) == Circuit(3));
  EXPECT_NE(qrc::ir::canonical_key(Circuit(2)),
            qrc::ir::canonical_key(Circuit(3)));
}

}  // namespace

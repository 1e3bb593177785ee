// Tests for the compilation passes: commutation oracle, block collection,
// two-qubit resynthesis, basis translation, layout, routing, and all
// optimization passes. The load-bearing properties are (1) unitary
// preservation up to global phase, (2) connectivity of routed circuits,
// and (3) nativeness after basis translation.

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <map>
#include <numeric>
#include <random>
#include <set>
#include <string_view>

#include "bench_suite/benchmarks.hpp"
#include "device/library.hpp"
#include "ir/qasm.hpp"
#include "ir/sim.hpp"
#include "passes/blocks.hpp"
#include "passes/commutation.hpp"
#include "passes/layout/layout.hpp"
#include "passes/opt/cancellation.hpp"
#include "passes/opt/clifford_opt.hpp"
#include "passes/opt/composite.hpp"
#include "passes/opt/consolidate.hpp"
#include "passes/opt/one_qubit_opt.hpp"
#include "passes/routing/routing.hpp"
#include "passes/synthesis/basis_translator.hpp"
#include "passes/two_qubit_decomp.hpp"
#include "verify/equivalence.hpp"

namespace {

using qrc::device::Device;
using qrc::device::DeviceId;
using qrc::device::Platform;
using qrc::ir::Circuit;
using qrc::ir::GateKind;
using qrc::ir::Operation;
using qrc::la::kPi;
using qrc::passes::PassContext;

/// Random circuit over the full vocabulary (unitary gates only).
Circuit random_circuit(int n, int length, std::uint64_t seed,
                       bool clifford_heavy = false) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> ang(-kPi, kPi);
  std::uniform_int_distribution<int> qpick(0, n - 1);
  Circuit c(n, "random");
  for (int i = 0; i < length; ++i) {
    const int q = qpick(rng);
    int q2 = qpick(rng);
    while (q2 == q) {
      q2 = qpick(rng);
    }
    const int choice = std::uniform_int_distribution<int>(
        0, clifford_heavy ? 7 : 11)(rng);
    switch (choice) {
      case 0:
        c.h(q);
        break;
      case 1:
        c.s(q);
        break;
      case 2:
        c.cx(q, q2);
        break;
      case 3:
        c.x(q);
        break;
      case 4:
        c.cz(q, q2);
        break;
      case 5:
        c.sdg(q);
        break;
      case 6:
        c.sx(q);
        break;
      case 7:
        c.swap(q, q2);
        break;
      case 8:
        c.rz(ang(rng), q);
        break;
      case 9:
        c.t(q);
        break;
      case 10:
        c.rxx(ang(rng), q, q2);
        break;
      default:
        c.u3(ang(rng), ang(rng), ang(rng), q);
        break;
    }
  }
  return c;
}

/// Shared assertion: pass preserves the unitary up to global phase.
void expect_preserves_unitary(const qrc::passes::Pass& pass, int n,
                              std::uint64_t seed, bool clifford_heavy = false,
                              const Device* device = nullptr) {
  Circuit c = random_circuit(n, 40, seed, clifford_heavy);
  const Circuit original = c;
  PassContext ctx;
  ctx.device = device;
  (void)pass.run(c, ctx);
  EXPECT_TRUE(qrc::ir::circuits_equivalent(original, c, 4, seed))
      << pass.name() << " broke equivalence (seed " << seed << ")";
}

// ----------------------------------------------------------- commutation --

TEST(CommutationTest, DisjointOpsCommute) {
  Circuit c(4);
  c.cx(0, 1);
  c.cx(2, 3);
  EXPECT_TRUE(qrc::passes::ops_commute(c.ops()[0], c.ops()[1]));
}

TEST(CommutationTest, DiagonalGatesCommute) {
  Circuit c(2);
  c.rz(0.3, 0);
  c.cp(0.7, 0, 1);
  c.t(0);
  EXPECT_TRUE(qrc::passes::ops_commute(c.ops()[0], c.ops()[1]));
  EXPECT_TRUE(qrc::passes::ops_commute(c.ops()[1], c.ops()[2]));
}

TEST(CommutationTest, RzCommutesWithCxControl) {
  Circuit c(2);
  c.rz(0.5, 0);
  c.cx(0, 1);
  EXPECT_TRUE(qrc::passes::ops_commute(c.ops()[0], c.ops()[1]));
}

TEST(CommutationTest, RzDoesNotCommuteWithCxTarget) {
  Circuit c(2);
  c.rz(0.5, 1);
  c.cx(0, 1);
  EXPECT_FALSE(qrc::passes::ops_commute(c.ops()[0], c.ops()[1]));
}

TEST(CommutationTest, XCommutesWithCxTarget) {
  Circuit c(2);
  c.x(1);
  c.cx(0, 1);
  EXPECT_TRUE(qrc::passes::ops_commute(c.ops()[0], c.ops()[1]));
}

TEST(CommutationTest, CxSharedControlCommutes) {
  Circuit c(3);
  c.cx(0, 1);
  c.cx(0, 2);
  EXPECT_TRUE(qrc::passes::ops_commute(c.ops()[0], c.ops()[1]));
}

TEST(CommutationTest, CxCrossedDoesNotCommute) {
  Circuit c(2);
  c.cx(0, 1);
  c.cx(1, 0);
  EXPECT_FALSE(qrc::passes::ops_commute(c.ops()[0], c.ops()[1]));
}

TEST(CommutationTest, MatchesNumericOracleOnRandomPairs) {
  std::mt19937_64 rng(99);
  std::uniform_real_distribution<double> ang(-kPi, kPi);
  // Sanity sweep: h on shared qubit vs rotations.
  Circuit c(2);
  c.h(0);
  c.rx(ang(rng), 0);
  c.rz(ang(rng), 0);
  EXPECT_FALSE(qrc::passes::ops_commute(c.ops()[0], c.ops()[1]));
  EXPECT_FALSE(qrc::passes::ops_commute(c.ops()[1], c.ops()[2]));
}

TEST(CommutationTest, MeasureNeverCommutes) {
  Circuit c(1);
  c.measure(0);
  c.z(0);
  EXPECT_FALSE(qrc::passes::ops_commute(c.ops()[0], c.ops()[1]));
}

// ----------------------------------------------------------------- blocks --

TEST(BlocksTest, Collect1qRuns) {
  Circuit c(2);
  c.h(0);
  c.t(0);
  c.cx(0, 1);
  c.s(0);
  const auto runs = qrc::passes::collect_1q_runs(c);
  ASSERT_EQ(runs.size(), 2U);
  EXPECT_EQ(runs[0].op_indices, (std::vector<int>{0, 1}));
  EXPECT_EQ(runs[1].op_indices, (std::vector<int>{3}));
}

TEST(BlocksTest, RunMatrixMultipliesInOrder) {
  Circuit c(1);
  c.h(0);
  c.s(0);
  const auto runs = qrc::passes::collect_1q_runs(c);
  ASSERT_EQ(runs.size(), 1U);
  const auto m = qrc::passes::run_matrix(c, runs[0]);
  EXPECT_TRUE(m.approx_equal(qrc::la::s_mat() * qrc::la::h_mat()));
}

TEST(BlocksTest, Collect2qBlocksGroupsPairs) {
  Circuit c(3);
  c.h(0);       // leading 1q absorbed
  c.cx(0, 1);   // block A
  c.rz(0.2, 1); // inside A
  c.cx(0, 1);   // A
  c.cx(1, 2);   // closes A, starts B
  const auto blocks = qrc::passes::collect_2q_blocks(c);
  ASSERT_EQ(blocks.size(), 2U);
  EXPECT_EQ(blocks[0].qubit_a, 0);
  EXPECT_EQ(blocks[0].qubit_b, 1);
  EXPECT_EQ(blocks[0].two_qubit_count, 2);
  EXPECT_EQ(blocks[0].op_indices, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(blocks[1].two_qubit_count, 1);
}

TEST(BlocksTest, MeasureClosesBlocks) {
  Circuit c(2);
  c.cx(0, 1);
  c.measure(0);
  c.cx(0, 1);
  const auto blocks = qrc::passes::collect_2q_blocks(c);
  ASSERT_EQ(blocks.size(), 2U);
}

TEST(BlocksTest, CliffordBlocksStopAtNonClifford) {
  Circuit c(2);
  c.h(0);
  c.cx(0, 1);
  c.t(0);      // non-Clifford on support: closes
  c.cx(0, 1);
  c.s(1);
  const auto blocks = qrc::passes::collect_clifford_blocks(c);
  ASSERT_EQ(blocks.size(), 2U);
  EXPECT_EQ(blocks[0].op_indices, (std::vector<int>{0, 1}));
  EXPECT_EQ(blocks[1].op_indices, (std::vector<int>{3, 4}));
}

// ----------------------------------------------- two-qubit resynthesis ----

TEST(TwoQubitDecompTest, RandomUnitariesRebuildExactly) {
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> ang(-kPi, kPi);
  for (int trial = 0; trial < 30; ++trial) {
    Circuit mini = random_circuit(2, 12, 3000 + trial);
    const auto u = qrc::passes::two_qubit_circuit_unitary(mini);
    const auto resynth = qrc::passes::decompose_two_qubit_unitary(u);
    ASSERT_TRUE(resynth.has_value()) << "trial " << trial;
    const auto v = qrc::passes::two_qubit_circuit_unitary(*resynth);
    EXPECT_TRUE(v.equal_up_to_phase(u, 1e-6)) << "trial " << trial;
    EXPECT_LE(resynth->two_qubit_gate_count(), 4) << "trial " << trial;
  }
}

TEST(TwoQubitDecompTest, LocalUnitaryNeedsNoCx) {
  Circuit mini(2);
  mini.u3(0.4, 0.8, -0.3, 0);
  mini.u3(1.1, -0.6, 0.2, 1);
  const auto u = qrc::passes::two_qubit_circuit_unitary(mini);
  const auto resynth = qrc::passes::decompose_two_qubit_unitary(u);
  ASSERT_TRUE(resynth.has_value());
  EXPECT_EQ(resynth->two_qubit_gate_count(), 0);
}

TEST(TwoQubitDecompTest, DressedCxNeedsOneCx) {
  Circuit mini(2);
  mini.u3(0.4, 0.8, -0.3, 0);
  mini.cx(0, 1);
  mini.u3(1.1, -0.6, 0.2, 1);
  const auto u = qrc::passes::two_qubit_circuit_unitary(mini);
  const auto resynth = qrc::passes::decompose_two_qubit_unitary(u);
  ASSERT_TRUE(resynth.has_value());
  EXPECT_EQ(resynth->two_qubit_gate_count(), 1);
}

TEST(TwoQubitDecompTest, CzIsCxClass) {
  Circuit mini(2);
  mini.cz(0, 1);
  const auto u = qrc::passes::two_qubit_circuit_unitary(mini);
  const auto resynth = qrc::passes::decompose_two_qubit_unitary(u);
  ASSERT_TRUE(resynth.has_value());
  EXPECT_EQ(resynth->two_qubit_gate_count(), 1);
}

TEST(TwoQubitDecompTest, ZzInteractionNeedsTwoCx) {
  Circuit mini(2);
  mini.rzz(0.8, 0, 1);
  const auto u = qrc::passes::two_qubit_circuit_unitary(mini);
  const auto resynth = qrc::passes::decompose_two_qubit_unitary(u);
  ASSERT_TRUE(resynth.has_value());
  EXPECT_LE(resynth->two_qubit_gate_count(), 2);
}

TEST(TwoQubitDecompTest, SwapClassUsesThreeCx) {
  Circuit mini(2);
  mini.u3(0.3, 0.1, 0.9, 0);
  mini.swap(0, 1);
  mini.u3(0.7, -0.4, 0.5, 1);
  const auto u = qrc::passes::two_qubit_circuit_unitary(mini);
  const auto resynth = qrc::passes::decompose_two_qubit_unitary(u);
  ASSERT_TRUE(resynth.has_value());
  const auto v = qrc::passes::two_qubit_circuit_unitary(*resynth);
  EXPECT_TRUE(v.equal_up_to_phase(u, 1e-6));
  EXPECT_LE(resynth->two_qubit_gate_count(), 3);
}

/// Unitaries whose Weyl coordinates lie within 1e-9 of a tier boundary:
/// kCoordTol around the local point and the z = 0 slice, pi/4 +- kCoordTol
/// around the CX and SWAP points. Each comes bare and dressed in random
/// locals. The identity, CX and SWAP lead the list: their circuits reach
/// their tier's floor exactly, so a floor set too high shows.
std::vector<qrc::la::Mat4> tier_boundary_unitaries() {
  std::mt19937_64 rng(61);
  std::uniform_real_distribution<double> ang(-kPi, kPi);
  const auto local = [&] {
    return qrc::la::kron(qrc::la::u3_mat(ang(rng), ang(rng), ang(rng)),
                         qrc::la::u3_mat(ang(rng), ang(rng), ang(rng)));
  };
  const double t = qrc::passes::kCoordTol;
  const double q = kPi / 4.0;
  std::vector<qrc::la::Mat4> out = {qrc::la::Mat4::identity(),
                                    qrc::la::cx01_mat(),
                                    qrc::la::swap_mat()};
  for (const double d : {-1e-9, -1e-10, 0.0, 1e-10, 1e-9}) {
    const std::array<double, 3> coords[] = {
        {t + d, 0.0, 0.0},     {t + d, t + d, t + d},  // local point
        {q - t + d, 0.0, 0.0}, {q + t + d, 0.0, 0.0},  // CX point
        {q, t + d, 0.0},       {q, 0.0, t + d},
        {q, q, q - t + d},     {q - t + d, q, q},      // SWAP point
        {q, q - t + d, q},     {0.5, 0.3, t + d},      // z = 0 slice
        {0.5, 0.3, -t - d},    {q - t + d, 0.3, t + d},
    };
    for (const auto& [x, y, z] : coords) {
      const qrc::la::Mat4 n = qrc::la::canonical_gate(x, y, z);
      out.push_back(n);
      out.push_back(local() * n * local());
    }
  }
  return out;
}

TEST(TwoQubitDecompTest, StagedGateMatchesTheReferenceAtTierBoundaries) {
  // StagedResynthesis must keep exactly the circuits that
  // decompose_two_qubit_unitary() plus the fewer-gates gate keep, bit for
  // bit, for every cost, whichever order the costs are asked in: each
  // later stage runs once and is then reused.
  using qrc::passes::GateCounts;
  std::vector<GateCounts> costs;
  for (int two_qubit = 0; two_qubit <= 5; ++two_qubit) {
    for (int total = two_qubit; total <= 14; ++total) {
      costs.push_back({two_qubit, total});
    }
  }
  std::set<int> cx_counts;
  int kept = 0;
  int rejected = 0;
  const auto boundary = tier_boundary_unitaries();
  for (std::size_t i = 0; i < boundary.size(); ++i) {
    const auto& u = boundary[i];
    const auto want = qrc::passes::decompose_two_qubit_unitary(u);
    ASSERT_TRUE(want.has_value()) << "unitary " << i;
    const GateCounts want_counts{want->two_qubit_gate_count(),
                                 want->gate_count()};
    cx_counts.insert(want_counts.two_qubit);

    // The tier fixed by the core's coordinates bounds the circuit.
    const auto core = qrc::la::kak_core(u);
    ASSERT_TRUE(core.has_value()) << "unitary " << i;
    const auto moves = qrc::la::weyl_moves(core->x, core->y, core->z);
    const GateCounts floor = qrc::passes::tier_floor(
        qrc::passes::resynth_tier(moves.x, moves.y, moves.z));
    EXPECT_EQ(want_counts.two_qubit, floor.two_qubit) << "unitary " << i;
    EXPECT_GE(want_counts.total, floor.total) << "unitary " << i;

    qrc::passes::StagedResynthesis ascending(u);
    qrc::passes::StagedResynthesis descending(u);
    for (std::size_t k = 0; k < costs.size(); ++k) {
      for (auto* staged : {&ascending, &descending}) {
        const GateCounts cost =
            staged == &ascending ? costs[k] : costs[costs.size() - 1 - k];
        const Circuit* got = staged->replacement(cost);
        const bool keep = qrc::passes::fewer_gates(want_counts, cost);
        ASSERT_EQ(got != nullptr, keep)
            << "unitary " << i << " cost (" << cost.two_qubit << ", "
            << cost.total << ")";
        if (got != nullptr) {
          EXPECT_EQ(qrc::ir::canonical_key(*got),
                    qrc::ir::canonical_key(*want))
              << "unitary " << i;
        }
        (keep ? kept : rejected) += 1;
      }
    }
  }
  EXPECT_EQ(cx_counts, (std::set<int>{0, 1, 2, 3, 4}));
  EXPECT_GT(kept, 0);
  EXPECT_GT(rejected, 0);
}

// ------------------------------------------------------ basis translator --

TEST(BasisTranslatorTest, TranslatesToAllFourPlatforms) {
  for (const auto id : {DeviceId::kIbmqMontreal, DeviceId::kRigettiAspenM2,
                        DeviceId::kIonqHarmony, DeviceId::kOqcLucy}) {
    const Device& dev = qrc::device::get_device(id);
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      Circuit c = random_circuit(4, 30, seed * 13);
      const Circuit original = c;
      PassContext ctx;
      ctx.device = &dev;
      const qrc::passes::BasisTranslator translator;
      (void)translator.run(c, ctx);
      EXPECT_TRUE(dev.circuit_is_native(c)) << dev.name();
      EXPECT_TRUE(qrc::ir::circuits_equivalent(original, c, 4, seed))
          << dev.name() << " seed " << seed;
    }
  }
}

TEST(BasisTranslatorTest, ThreeQubitGatesLowered) {
  const Device& dev = qrc::device::get_device(DeviceId::kIbmqMontreal);
  Circuit c(3);
  c.ccx(0, 1, 2);
  c.ccz(0, 1, 2);
  c.cswap(0, 1, 2);
  const Circuit original = c;
  PassContext ctx;
  ctx.device = &dev;
  const qrc::passes::BasisTranslator translator;
  (void)translator.run(c, ctx);
  EXPECT_TRUE(dev.circuit_is_native(c));
  EXPECT_TRUE(c.max_gate_arity_at_most(2));
  EXPECT_TRUE(qrc::ir::circuits_equivalent(original, c));
}

TEST(BasisTranslatorTest, KeepsMeasuresAndBarriers) {
  const Device& dev = qrc::device::get_device(DeviceId::kIbmqMontreal);
  Circuit c(2);
  c.h(0);
  c.barrier();
  c.measure_all();
  PassContext ctx;
  ctx.device = &dev;
  const qrc::passes::BasisTranslator translator;
  (void)translator.run(c, ctx);
  const auto counts = c.count_ops();
  EXPECT_EQ(counts.at("measure"), 2);
  EXPECT_EQ(counts.at("barrier"), 1);
}

TEST(BasisTranslatorTest, TwoQubitDecompositionsStayOnPair) {
  // Post-mapping safety: every 2q gate in the translation of a 2q gate must
  // stay on the same pair.
  const Device& dev = qrc::device::get_device(DeviceId::kRigettiAspenM2);
  Circuit c(5);
  c.cx(2, 3);
  c.swap(0, 1);
  c.rzz(0.7, 3, 4);
  PassContext ctx;
  ctx.device = &dev;
  const qrc::passes::BasisTranslator translator;
  (void)translator.run(c, ctx);
  for (const Operation& op : c.ops()) {
    if (op.num_qubits() == 2) {
      const bool pair_23 = op.acts_on(2) && op.acts_on(3);
      const bool pair_01 = op.acts_on(0) && op.acts_on(1);
      const bool pair_34 = op.acts_on(3) && op.acts_on(4);
      EXPECT_TRUE(pair_23 || pair_01 || pair_34);
    }
  }
}

// --------------------------------------------------------------- layout ---

TEST(LayoutTest, TrivialLayoutIsIdentity) {
  const Device& dev = qrc::device::get_device(DeviceId::kIbmqMontreal);
  const Circuit c = random_circuit(5, 20, 42);
  const auto layout = qrc::passes::compute_layout(
      qrc::passes::LayoutKind::kTrivial, c, dev);
  EXPECT_EQ(layout, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(LayoutTest, DenseLayoutConnectedSubset) {
  const Device& dev = qrc::device::get_device(DeviceId::kIbmqMontreal);
  const Circuit c = random_circuit(6, 30, 43);
  const auto layout = qrc::passes::compute_layout(
      qrc::passes::LayoutKind::kDense, c, dev);
  ASSERT_EQ(layout.size(), 6U);
  // Injective and in range.
  std::set<int> used(layout.begin(), layout.end());
  EXPECT_EQ(used.size(), 6U);
  for (const int p : layout) {
    EXPECT_GE(p, 0);
    EXPECT_LT(p, dev.num_qubits());
  }
  // The chosen subset must be internally connected.
  int internal_edges = 0;
  for (const int a : used) {
    for (const int b : used) {
      if (a < b && dev.coupling().are_coupled(a, b)) {
        ++internal_edges;
      }
    }
  }
  EXPECT_GE(internal_edges, 5);  // spanning-tree minimum
}

TEST(LayoutTest, SabreLayoutValidAndDeterministic) {
  const Device& dev = qrc::device::get_device(DeviceId::kIbmqMontreal);
  const Circuit c = random_circuit(5, 25, 44);
  const auto a = qrc::passes::compute_layout(qrc::passes::LayoutKind::kSabre,
                                             c, dev, 7);
  const auto b = qrc::passes::compute_layout(qrc::passes::LayoutKind::kSabre,
                                             c, dev, 7);
  EXPECT_EQ(a, b);
  std::set<int> used(a.begin(), a.end());
  EXPECT_EQ(used.size(), a.size());
}

/// SABRE refinement replayed through the public API: a seeded shuffle of
/// the physical qubits, then three rounds of SabreSwap over the 2q proxy
/// circuit (3+ qubit gates as pairwise CX, barriers dropped) and its
/// inverse, composing each routing's permutation into the placement.
/// `swaps` accumulates the swaps the rounds inserted.
std::vector<int> reference_sabre_layout(const Circuit& circuit,
                                        const Device& dev,
                                        std::uint64_t seed, int& swaps) {
  std::mt19937_64 rng(seed * 31337 + 5);
  std::vector<int> phys(static_cast<std::size_t>(dev.num_qubits()));
  std::iota(phys.begin(), phys.end(), 0);
  std::shuffle(phys.begin(), phys.end(), rng);
  std::vector<int> layout(phys.begin(), phys.begin() + circuit.num_qubits());

  Circuit proxy(circuit.num_qubits());
  for (const Operation& op : circuit.ops()) {
    if (op.is_unitary() && op.num_qubits() > 2) {
      for (int i = 0; i < op.num_qubits(); ++i) {
        for (int j = i + 1; j < op.num_qubits(); ++j) {
          proxy.cx(op.qubit(i), op.qubit(j));
        }
      }
    } else if (op.kind() != GateKind::kBarrier) {
      proxy.append(op);
    }
  }
  const Circuit& forward = proxy;
  const Circuit inverse = proxy.inverse();
  for (std::uint64_t iter = 0; iter < 3; ++iter) {
    for (const Circuit* dir : {&forward, &inverse}) {
      const auto outcome = qrc::passes::route(
          qrc::passes::RoutingKind::kSabreSwap,
          qrc::passes::apply_layout(*dir, layout, dev), dev, seed + iter);
      swaps += outcome.swap_count;
      for (int& p : layout) {
        p = outcome.permutation[static_cast<std::size_t>(p)];
      }
    }
  }
  return layout;
}

/// Expects compute_layout(kSabre) to equal the reference, and counts the
/// case as refined (the reference inserted a swap) or swap-free.
void expect_sabre_matches_reference(const Circuit& c, const Device& dev,
                                    std::uint64_t seed, int& refined,
                                    int& swap_free) {
  int swaps = 0;
  const auto expected = reference_sabre_layout(c, dev, seed, swaps);
  EXPECT_EQ(qrc::passes::compute_layout(qrc::passes::LayoutKind::kSabre, c,
                                        dev, seed),
            expected)
      << dev.name() << ' ' << c.name() << " seed=" << seed;
  ++(swaps > 0 ? refined : swap_free);
}

TEST(LayoutTest, SabreLayoutMatchesTheRefinementReference) {
  const Device all_to_all("test_all_to_all12", Platform::kIonQ,
                          qrc::device::CouplingMap::fully_connected(12), 3);
  std::vector<const Device*> devices = qrc::device::all_devices();
  devices.push_back(&all_to_all);
  int refined = 0;
  int swap_free = 0;
  for (const Device* dev : devices) {
    for (const auto family : qrc::bench::all_families()) {
      for (const int n : {2, 3, 5, 8}) {
        if (n > dev->num_qubits()) {
          continue;
        }
        const Circuit c = qrc::bench::make_benchmark(family, n, 11);
        for (const std::uint64_t seed : {1, 2, 9}) {
          expect_sabre_matches_reference(c, *dev, seed, refined, swap_free);
        }
      }
    }
  }
  EXPECT_GT(refined, 0);
  EXPECT_GT(swap_free, 0);
}

TEST(LayoutTest, SabreLayoutMatchesTheReferenceWithThreeQubitGates) {
  // No benchmark family has 3-qubit gates; short random circuits mixing
  // them with barriers and non-unitary ops cover the proxy's clique rule.
  const Device line("test_line4", Platform::kIBM,
                    qrc::device::CouplingMap::line(4), 5);
  const Device all_to_all("test_all_to_all5", Platform::kIonQ,
                          qrc::device::CouplingMap::fully_connected(5), 6);
  const Device& lucy = qrc::device::get_device(DeviceId::kOqcLucy);
  int refined = 0;
  int swap_free = 0;
  for (const Device* dev : {&line, &all_to_all, &lucy}) {
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
      std::mt19937_64 rng(seed);
      const int n = 3 + static_cast<int>(seed % 2);
      std::vector<int> qs(static_cast<std::size_t>(n));
      std::iota(qs.begin(), qs.end(), 0);
      Circuit c(n, "wide");
      const int length = 1 + static_cast<int>(seed % 5);
      for (int i = 0; i < length; ++i) {
        std::shuffle(qs.begin(), qs.end(), rng);
        switch (rng() % 7) {
          case 0: c.ccx(qs[0], qs[1], qs[2]); break;
          case 1: c.cswap(qs[0], qs[1], qs[2]); break;
          case 2: c.ccz(qs[0], qs[1], qs[2]); break;
          case 3: c.cx(qs[0], qs[1]); break;
          case 4: c.barrier(); break;
          case 5: c.measure(qs[0]); break;
          default: c.h(qs[0]); break;
        }
      }
      expect_sabre_matches_reference(c, *dev, seed, refined, swap_free);
    }
  }
  EXPECT_GT(refined, 0);
  EXPECT_GT(swap_free, 0);
}

/// FNV-1a-64 fed byte by byte in a fixed order, so a digest does not
/// depend on the platform's byte order. A digest of integers alone does
/// not depend on its libm either; text carries whatever libm computed.
class IntDigest {
 public:
  void add(std::int64_t v) {
    const auto bits = static_cast<std::uint64_t>(v);
    for (int i = 0; i < 8; ++i) {
      hash_ = (hash_ ^ ((bits >> (8 * i)) & 0xffU)) * 0x100000001b3ULL;
    }
  }
  void add(const std::vector<int>& v) {
    add(static_cast<std::int64_t>(v.size()));
    for (const int x : v) {
      add(x);
    }
  }
  void add(std::string_view text) {
    add(static_cast<std::int64_t>(text.size()));
    for (const char c : text) {
      hash_ = (hash_ ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

TEST(SabreGoldenTest, LayoutAndRoutingMatchRecordedDigests) {
  // SabreLayout then SabreSwap on every library device over the benchmark
  // families. Each digest covers the layouts, the routed op kinds and
  // qubits, the swap counts and the final permutations. They were recorded
  // from the earlier implementation, which rescored every front and
  // extended pair per candidate swap and refined layouts through route(),
  // so they pin the shared search core to its results.
  const std::vector<std::pair<DeviceId, std::uint64_t>> expected = {
      {DeviceId::kIbmqMontreal, 0xf7966874b94eda12ULL},
      {DeviceId::kIbmqWashington, 0xaa9d9158b7f3e23cULL},
      {DeviceId::kRigettiAspenM2, 0xc1c3ddd4c945405cULL},
      {DeviceId::kIonqHarmony, 0x104fbde030edaaa1ULL},
      {DeviceId::kOqcLucy, 0x1d198690a60cb0cdULL},
  };
  for (const auto& [id, want] : expected) {
    const Device& dev = qrc::device::get_device(id);
    IntDigest digest;
    int swaps = 0;
    for (const auto family : qrc::bench::all_families()) {
      for (const int n : {2, 3, 5, 8, 13, 20}) {
        if (n > dev.num_qubits()) {
          continue;
        }
        for (const std::uint64_t seed : {1, 2}) {
          const Circuit c = qrc::bench::make_benchmark(family, n, seed);
          const auto layout = qrc::passes::compute_layout(
              qrc::passes::LayoutKind::kSabre, c, dev, seed);
          const auto outcome = qrc::passes::route(
              qrc::passes::RoutingKind::kSabreSwap,
              qrc::passes::apply_layout(c, layout, dev), dev, seed);
          digest.add(layout);
          for (const Operation& op : outcome.routed.ops()) {
            digest.add(static_cast<int>(op.kind()));
            for (const int q : op.qubits()) {
              digest.add(q);
            }
          }
          digest.add(outcome.swap_count);
          digest.add(outcome.permutation);
          swaps += outcome.swap_count;
        }
      }
    }
    EXPECT_EQ(digest.value(), want)
        << dev.name() << " digest 0x" << std::hex << digest.value();
    if (id != DeviceId::kIonqHarmony) {  // all-to-all: never swaps
      EXPECT_GT(swaps, 0) << dev.name();
    }
  }
}

TEST(PassGoldenTest, ResynthesisPassesMatchRecordedDigests) {
  // ConsolidateBlocks, PeepholeOptimise2Q and FullPeepholeOptimise over
  // the benchmark families, raw and after BasisTranslator for
  // ibmq_washington. Each digest covers whether the pass changed the
  // circuit and the canonical key of its output, whose hex-float angles
  // are exact. The angles come through libm, so the digests are those of
  // glibc on x86-64, for baseline and x86-64-v3 builds alike (the library
  // builds with -fno-tree-slp-vectorize, see CMakeLists.txt). They were
  // recorded before the staged resynthesis early exit, which pins it to
  // the unstaged decisions and circuits.
  const qrc::passes::ConsolidateBlocks consolidate;
  const qrc::passes::PeepholeOptimise2Q peephole;
  const qrc::passes::FullPeepholeOptimise full;
  const std::vector<std::pair<const qrc::passes::Pass*, std::uint64_t>>
      expected = {
          {&consolidate, 0x166fecf36d3dda16ULL},
          {&peephole, 0x429a3149127b9890ULL},
          {&full, 0xe6cf4380b4d7c698ULL},
      };
  PassContext native_ctx;
  native_ctx.device = &qrc::device::get_device(DeviceId::kIbmqWashington);
  std::vector<std::pair<Circuit, PassContext>> inputs;
  for (const auto family : qrc::bench::all_families()) {
    for (const int n : {2, 3, 5, 8, 13, 20}) {
      const Circuit raw = qrc::bench::make_benchmark(family, n, 1);
      Circuit native = raw;
      (void)qrc::passes::BasisTranslator().run(native, native_ctx);
      inputs.emplace_back(raw, PassContext{});
      inputs.emplace_back(std::move(native), native_ctx);
    }
  }
  for (const auto& [pass, want] : expected) {
    IntDigest digest;
    int changed = 0;
    for (const auto& [input, ctx] : inputs) {
      Circuit c = input;
      const bool did_change = pass->run(c, ctx);
      digest.add(did_change ? 1 : 0);
      digest.add(qrc::ir::canonical_key(c));
      changed += did_change ? 1 : 0;
    }
    EXPECT_EQ(digest.value(), want)
        << pass->name() << " digest 0x" << std::hex << digest.value();
    EXPECT_GT(changed, 0) << pass->name();
  }
}

TEST(LayoutTest, ApplyLayoutRejectsNonInjective) {
  const Device& dev = qrc::device::get_device(DeviceId::kOqcLucy);
  const Circuit c = random_circuit(3, 10, 45);
  EXPECT_THROW(qrc::passes::apply_layout(c, {0, 0, 1}, dev),
               std::invalid_argument);
}

// -------------------------------------------------------------- routing ---

/// Routing property check on a small synthetic device so that full
/// statevector verification is possible.
void expect_routing_sound(qrc::passes::RoutingKind kind, std::uint64_t seed) {
  // 6-qubit line device (IBM platform).
  const Device dev("test_line6", Platform::kIBM,
                   qrc::device::CouplingMap::line(6), 99);
  Circuit logical = random_circuit(6, 25, seed);
  const auto outcome = qrc::passes::route(kind, logical, dev, seed);
  EXPECT_TRUE(dev.circuit_respects_topology(outcome.routed))
      << qrc::passes::routing_name(kind);
  // Permutation-aware equivalence.
  std::vector<int> identity(6);
  std::iota(identity.begin(), identity.end(), 0);
  EXPECT_TRUE(qrc::ir::mapped_circuit_equivalent(
      logical, outcome.routed, identity, outcome.permutation, 3, seed))
      << qrc::passes::routing_name(kind) << " seed " << seed;
}

TEST(RoutingTest, BasicSwapSound) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    expect_routing_sound(qrc::passes::RoutingKind::kBasicSwap, seed);
  }
}

TEST(RoutingTest, StochasticSwapSound) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    expect_routing_sound(qrc::passes::RoutingKind::kStochasticSwap, seed);
  }
}

TEST(RoutingTest, SabreSwapSound) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    expect_routing_sound(qrc::passes::RoutingKind::kSabreSwap, seed);
  }
}

TEST(RoutingTest, TketRoutingSound) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    expect_routing_sound(qrc::passes::RoutingKind::kTketRouting, seed);
  }
}

TEST(RoutingTest, AlreadyRoutedCircuitUnchanged) {
  const Device dev("test_line4", Platform::kIBM,
                   qrc::device::CouplingMap::line(4), 99);
  Circuit c(4);
  c.cx(0, 1);
  c.cx(1, 2);
  c.cx(2, 3);
  const auto outcome =
      qrc::passes::route(qrc::passes::RoutingKind::kSabreSwap, c, dev);
  EXPECT_EQ(outcome.swap_count, 0);
  EXPECT_EQ(outcome.routed.size(), c.size());
}

TEST(RoutingTest, SabreBeatsBasicOnHeavyCircuit) {
  // On a ring, SABRE's lookahead should use no more swaps than the
  // oblivious shortest-path router on average.
  const Device dev("test_ring8", Platform::kIBM,
                   qrc::device::CouplingMap::ring(8), 99);
  int basic_total = 0;
  int sabre_total = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Circuit c = random_circuit(8, 40, 7000 + seed);
    basic_total +=
        qrc::passes::route(qrc::passes::RoutingKind::kBasicSwap, c, dev, seed)
            .swap_count;
    sabre_total +=
        qrc::passes::route(qrc::passes::RoutingKind::kSabreSwap, c, dev, seed)
            .swap_count;
  }
  EXPECT_LE(sabre_total, basic_total);
}

TEST(RoutingTest, SabreSwapDoesNotDependOnTheSeed) {
  const Device& lucy = qrc::device::get_device(DeviceId::kOqcLucy);
  const Device& montreal = qrc::device::get_device(DeviceId::kIbmqMontreal);
  for (const Device* dev : {&lucy, &montreal}) {
    for (const auto family : qrc::bench::all_families()) {
      const Circuit c = qrc::passes::apply_layout(
          qrc::bench::make_benchmark(family, 6, 3), {5, 0, 3, 1, 7, 2}, *dev);
      const auto one =
          qrc::passes::route(qrc::passes::RoutingKind::kSabreSwap, c, *dev, 1);
      const auto seven =
          qrc::passes::route(qrc::passes::RoutingKind::kSabreSwap, c, *dev, 7);
      EXPECT_EQ(one.routed, seven.routed) << dev->name();
      EXPECT_EQ(one.permutation, seven.permutation) << dev->name();
      EXPECT_EQ(one.swap_count, seven.swap_count) << dev->name();
    }
  }
}

TEST(RoutingTest, TerminalMeasuresAreEmittedThroughTheFinalPlacement) {
  // A measure carries no classical operand — its record is tied to the
  // wire it is emitted on — so a swap after a mid-stream measure silently
  // re-targets the classical bit. Every router must emit terminal
  // measures after the whole swap network, translated through the final
  // permutation. (Regression: SABRE's DAG scheduler used to emit ready
  // measures early; the in-order routers emitted them mid-stream.)
  const Device dev("test_line3", Platform::kIBM,
                   qrc::device::CouplingMap::line(3), 99);
  Circuit c(3);
  c.h(0);
  c.cx(0, 1);
  c.measure(1);
  c.cx(0, 2);  // blocked on the line: forces a swap after the measure
  c.measure(0);
  c.measure(2);
  for (const auto kind :
       {qrc::passes::RoutingKind::kBasicSwap,
        qrc::passes::RoutingKind::kStochasticSwap,
        qrc::passes::RoutingKind::kSabreSwap,
        qrc::passes::RoutingKind::kTketRouting}) {
    const auto outcome = qrc::passes::route(kind, c, dev, 3);
    ASSERT_GE(outcome.swap_count, 1) << qrc::passes::routing_name(kind);
    int last_swap = -1;
    int first_measure = static_cast<int>(outcome.routed.ops().size());
    for (int i = 0; i < static_cast<int>(outcome.routed.ops().size()); ++i) {
      const auto k = outcome.routed.ops()[static_cast<std::size_t>(i)].kind();
      if (k == GateKind::kSWAP) {
        last_swap = i;
      }
      if (k == GateKind::kMeasure && i < first_measure) {
        first_measure = i;
      }
    }
    EXPECT_GT(first_measure, last_swap)
        << qrc::passes::routing_name(kind) << ": a measure precedes a swap";
    // End-to-end: the routed circuit must verify through the layouts,
    // including the readout-consistency check on the measured wires.
    const auto verdict = qrc::verify::EquivalenceChecker().check_mapped(
        c, outcome.routed, {}, outcome.permutation);
    EXPECT_EQ(verdict.verdict, qrc::verify::Verdict::kEquivalent)
        << qrc::passes::routing_name(kind) << ": " << verdict.detail;
  }
}

TEST(RoutingTest, RejectsThreeQubitGates) {
  const Device dev("test_line4", Platform::kIBM,
                   qrc::device::CouplingMap::line(4), 99);
  Circuit c(4);
  c.ccx(0, 1, 2);
  EXPECT_THROW(
      (void)qrc::passes::route(qrc::passes::RoutingKind::kBasicSwap, c, dev),
      std::invalid_argument);
}

// --------------------------------------------------- optimization passes --

TEST(OptPassTest, AllPassesPreserveUnitary) {
  const qrc::passes::CXCancellation cx_cancel;
  const qrc::passes::InverseCancellation inv_cancel;
  const qrc::passes::CommutativeCancellation comm_cancel;
  const qrc::passes::CommutativeInverseCancellation comm_inv;
  const qrc::passes::RemoveRedundancies redundancies;
  const qrc::passes::Optimize1qGatesDecomposition opt1q;
  const qrc::passes::ConsolidateBlocks consolidate;
  const qrc::passes::PeepholeOptimise2Q peephole;
  const qrc::passes::OptimizeCliffords opt_cliff;
  const qrc::passes::CliffordSimp cliff_simp;
  const qrc::passes::FullPeepholeOptimise full_peephole;
  const std::vector<const qrc::passes::Pass*> passes = {
      &cx_cancel, &inv_cancel, &comm_cancel,  &comm_inv,
      &redundancies, &opt1q,   &consolidate,  &peephole,
      &opt_cliff, &cliff_simp, &full_peephole};
  for (const auto* pass : passes) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      expect_preserves_unitary(*pass, 4, 500 + seed * 17, seed % 2 == 0);
    }
  }
}

TEST(OptPassTest, CxCancellationRemovesAdjacentPairs) {
  Circuit c(2);
  c.cx(0, 1);
  c.cx(0, 1);
  c.h(0);
  const qrc::passes::CXCancellation pass;
  EXPECT_TRUE(pass.run(c, {}));
  EXPECT_EQ(c.two_qubit_gate_count(), 0);
  EXPECT_EQ(c.gate_count(), 1);
}

TEST(OptPassTest, CxCancellationKeepsSeparatedPairs) {
  Circuit c(2);
  c.cx(0, 1);
  c.h(1);  // blocks
  c.cx(0, 1);
  const qrc::passes::CXCancellation pass;
  EXPECT_FALSE(pass.run(c, {}));
  EXPECT_EQ(c.two_qubit_gate_count(), 2);
}

TEST(OptPassTest, InverseCancellationHandlesNamedPairs) {
  Circuit c(1);
  c.h(0);
  c.h(0);
  c.s(0);
  c.sdg(0);
  c.t(0);
  c.tdg(0);
  c.rz(0.4, 0);
  c.rz(-0.4, 0);
  const qrc::passes::InverseCancellation pass;
  EXPECT_TRUE(pass.run(c, {}));
  EXPECT_EQ(c.gate_count(), 0);
}

TEST(OptPassTest, CommutativeCancellationThroughCxControl) {
  // rz(a) [cx] rz(-a) on the control cancels through the CX.
  Circuit c(2);
  c.rz(0.8, 0);
  c.cx(0, 1);
  c.rz(-0.8, 0);
  const qrc::passes::CommutativeCancellation pass;
  EXPECT_TRUE(pass.run(c, {}));
  EXPECT_EQ(c.gate_count(), 1);
  EXPECT_EQ(c.ops()[0].kind(), GateKind::kCX);
}

TEST(OptPassTest, CommutativeCancellationMergesRotations) {
  Circuit c(2);
  c.rz(0.3, 0);
  c.cx(0, 1);
  c.rz(0.4, 0);
  const qrc::passes::CommutativeCancellation pass;
  EXPECT_TRUE(pass.run(c, {}));
  EXPECT_EQ(c.gate_count(), 2);
  bool found = false;
  for (const Operation& op : c.ops()) {
    if (op.kind() == GateKind::kRZ) {
      EXPECT_NEAR(op.param(0), 0.7, 1e-12);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(OptPassTest, CommutativeCancellationMergesAtThePartnerSlot) {
  // ry(pi) and rz(pi) anticommute — they swap only up to a global phase —
  // so the commutation oracle lets ry(pi) move *forward* past the rz to
  // merge with ry(pi/2). The merged rotation must land at the later
  // partner's slot; placing it before the rz (the old behaviour) commutes
  // ry(pi/2) backward past a gate it does not commute with and produces a
  // genuinely different unitary.
  Circuit c(1);
  c.ry(kPi, 0);
  c.rz(kPi, 0);
  c.ry(kPi / 2, 0);
  const Circuit original = c;
  const qrc::passes::CommutativeCancellation pass;
  (void)pass.run(c, {});
  EXPECT_TRUE(qrc::ir::circuits_equivalent(original, c, 4, 11))
      << "CommutativeCancellation broke ry-rz-ry";
}

TEST(OptPassTest, CommutativeInverseCatchesCrossKind) {
  // s followed (through a commuting cx control) by rz(-pi/2): matrix-level
  // inverse up to phase.
  Circuit c(2);
  c.s(0);
  c.cx(0, 1);
  c.rz(-kPi / 2.0, 0);
  const qrc::passes::CommutativeInverseCancellation pass;
  EXPECT_TRUE(pass.run(c, {}));
  EXPECT_EQ(c.gate_count(), 1);
}

TEST(OptPassTest, RemoveDiagonalBeforeMeasure) {
  Circuit c(2);
  c.h(0);
  c.rz(0.3, 0);
  c.cz(0, 1);
  c.measure(0);
  c.measure(1);
  const qrc::passes::RemoveDiagonalGatesBeforeMeasure pass;
  EXPECT_TRUE(pass.run(c, {}));
  // rz and cz removed (peeled iteratively); h kept.
  EXPECT_EQ(c.gate_count(), 1);
  EXPECT_EQ(c.ops()[0].kind(), GateKind::kH);
}

TEST(OptPassTest, DiagonalKeptWhenOnlyOneQubitMeasured) {
  Circuit c(2);
  c.cz(0, 1);
  c.measure(0);
  c.h(1);  // qubit 1 not measured right after
  const qrc::passes::RemoveDiagonalGatesBeforeMeasure pass;
  EXPECT_FALSE(pass.run(c, {}));
  EXPECT_EQ(c.two_qubit_gate_count(), 1);
}

TEST(OptPassTest, Optimize1qFusesRuns) {
  Circuit c(1);
  c.h(0);
  c.t(0);
  c.h(0);
  c.s(0);
  c.rz(0.3, 0);
  const qrc::passes::Optimize1qGatesDecomposition pass;
  EXPECT_TRUE(pass.run(c, {}));
  EXPECT_EQ(c.gate_count(), 1);
  EXPECT_EQ(c.ops()[0].kind(), GateKind::kU3);
}

TEST(OptPassTest, Optimize1qUsesNativeBasisWithDevice) {
  const Device& dev = qrc::device::get_device(DeviceId::kIbmqMontreal);
  Circuit c(1);
  c.h(0);
  c.t(0);
  c.h(0);
  PassContext ctx;
  ctx.device = &dev;
  const qrc::passes::Optimize1qGatesDecomposition pass;
  EXPECT_TRUE(pass.run(c, ctx));
  EXPECT_TRUE(dev.circuit_is_native(c));
  EXPECT_LE(c.gate_count(), 5);
}

TEST(OptPassTest, Optimize1qDropsIdentityRun) {
  Circuit c(1);
  c.h(0);
  c.h(0);
  const qrc::passes::Optimize1qGatesDecomposition pass;
  EXPECT_TRUE(pass.run(c, {}));
  EXPECT_EQ(c.gate_count(), 0);
}

TEST(OptPassTest, ConsolidateReducesLongCxChain) {
  // Four CX on the same pair = identity-ish structure; at most 4 -> <= 3.
  Circuit c(2);
  c.cx(0, 1);
  c.rz(0.3, 1);
  c.cx(0, 1);
  c.cx(0, 1);
  c.rx(0.2, 0);
  c.cx(0, 1);
  c.cx(0, 1);
  const Circuit original = c;
  const qrc::passes::ConsolidateBlocks pass;
  EXPECT_TRUE(pass.run(c, {}));
  EXPECT_LT(c.two_qubit_gate_count(), 5);
  EXPECT_TRUE(qrc::ir::circuits_equivalent(original, c));
}

TEST(OptPassTest, PeepholeConsolidatesHeavyDressing) {
  // A single CX dressed with six 1q gates: same CX count but the 1q gates
  // fuse into at most four u3 locals.
  Circuit c(2);
  c.h(0);
  c.t(0);
  c.s(0);
  c.cx(0, 1);
  c.h(1);
  c.t(1);
  c.sx(1);
  const Circuit original = c;
  const qrc::passes::PeepholeOptimise2Q pass;
  EXPECT_TRUE(pass.run(c, {}));
  EXPECT_LE(c.two_qubit_gate_count(), 1);
  EXPECT_LT(c.gate_count(), original.gate_count());
  EXPECT_TRUE(qrc::ir::circuits_equivalent(original, c));
}

TEST(OptPassTest, PeepholeRecognisesIswapClassNeedsTwoCx) {
  // swap + cx is iSWAP-class (2 CX), so no 2-gate improvement exists and
  // the block must be left alone rather than inflated.
  Circuit c(2);
  c.swap(0, 1);
  c.cx(1, 0);
  const Circuit original = c;
  const qrc::passes::PeepholeOptimise2Q pass;
  (void)pass.run(c, {});
  EXPECT_LE(c.two_qubit_gate_count(), 2);
  EXPECT_TRUE(qrc::ir::circuits_equivalent(original, c));
}

TEST(OptPassTest, OptimizeCliffordsCompressesCliffordChunk) {
  Circuit c(3);
  for (int rep = 0; rep < 4; ++rep) {
    c.h(0);
    c.cx(0, 1);
    c.cx(1, 2);
    c.s(2);
    c.cx(0, 1);
    c.h(1);
  }
  const Circuit original = c;
  const qrc::passes::OptimizeCliffords pass;
  EXPECT_TRUE(pass.run(c, {}));
  EXPECT_LT(c.two_qubit_gate_count(), original.two_qubit_gate_count());
  EXPECT_TRUE(qrc::ir::circuits_equivalent(original, c));
}

TEST(OptPassTest, CliffordSimpGuardsConnectivityWhenMapped) {
  // A Clifford chunk on a line device: resynthesised replacement must stay
  // on coupled pairs or be rejected.
  const Device dev("test_line4", Platform::kIBM,
                   qrc::device::CouplingMap::line(4), 99);
  Circuit c(4);
  for (int rep = 0; rep < 3; ++rep) {
    c.cx(0, 1);
    c.cx(1, 2);
    c.cx(2, 3);
    c.s(0);
    c.h(2);
  }
  const Circuit original = c;
  PassContext ctx;
  ctx.device = &dev;
  ctx.is_mapped = true;
  const qrc::passes::CliffordSimp pass;
  (void)pass.run(c, ctx);
  EXPECT_TRUE(dev.circuit_respects_topology(c));
  EXPECT_TRUE(qrc::ir::circuits_equivalent(original, c));
}

TEST(OptPassTest, FullPeepholeShrinksMessyCircuit) {
  Circuit c = random_circuit(4, 60, 31415);
  const Circuit original = c;
  const int before = c.gate_count();
  const qrc::passes::FullPeepholeOptimise pass;
  (void)pass.run(c, {});
  EXPECT_LE(c.gate_count(), before);
  EXPECT_TRUE(qrc::ir::circuits_equivalent(original, c));
}

/// Exact bits of a block unitary, for counting repeats.
std::array<std::uint64_t, 32> unitary_bits(const qrc::la::Mat4& u) {
  std::array<std::uint64_t, 32> bits{};
  for (int i = 0; i < 16; ++i) {
    const auto z = u(i / 4, i % 4);
    bits[static_cast<std::size_t>(2 * i)] =
        std::bit_cast<std::uint64_t>(z.real());
    bits[static_cast<std::size_t>(2 * i + 1)] =
        std::bit_cast<std::uint64_t>(z.imag());
  }
  return bits;
}

/// Two-qubit block consolidation replayed through the public API, with a
/// fresh decomposition for every block: up to 8 sweeps, each collecting
/// the blocks, resynthesising those with at least `min_two_qubit` 2q gates
/// and keeping a result only when it has fewer 2q gates, or as many and
/// fewer gates. `repeats` counts block unitaries equal, bit for bit, to
/// one already resynthesised in this run.
bool reference_consolidate(Circuit& circuit, int min_two_qubit,
                           int& repeats) {
  std::set<std::array<std::uint64_t, 32>> decomposed;
  bool any = false;
  for (int sweep = 0; sweep < 8; ++sweep) {
    std::vector<bool> removed(circuit.size(), false);
    std::map<int, std::vector<Operation>> insert_after;
    double phase = 0.0;
    for (const auto& blk : qrc::passes::collect_2q_blocks(circuit)) {
      if (blk.two_qubit_count < min_two_qubit) {
        continue;
      }
      Circuit mini(2);
      for (const int idx : blk.op_indices) {
        Operation op = circuit.ops()[static_cast<std::size_t>(idx)];
        for (int k = 0; k < op.num_qubits(); ++k) {
          op.set_qubit(k, op.qubit(k) == blk.qubit_a ? 0 : 1);
        }
        mini.append(op);
      }
      const auto u = qrc::passes::two_qubit_circuit_unitary(mini);
      if (!decomposed.insert(unitary_bits(u)).second) {
        ++repeats;
      }
      const auto resynth = qrc::passes::decompose_two_qubit_unitary(u);
      if (!resynth.has_value()) {
        continue;
      }
      const int old_2q = blk.two_qubit_count;
      const int old_total = static_cast<int>(blk.op_indices.size());
      if (resynth->two_qubit_gate_count() > old_2q ||
          (resynth->two_qubit_gate_count() == old_2q &&
           resynth->gate_count() >= old_total)) {
        continue;
      }
      std::vector<Operation> mapped;
      for (Operation op : resynth->ops()) {
        for (int k = 0; k < op.num_qubits(); ++k) {
          op.set_qubit(k, op.qubit(k) == 0 ? blk.qubit_a : blk.qubit_b);
        }
        mapped.push_back(op);
      }
      for (const int idx : blk.op_indices) {
        removed[static_cast<std::size_t>(idx)] = true;
      }
      insert_after[blk.op_indices.back()] = std::move(mapped);
      phase += resynth->global_phase();
    }
    if (insert_after.empty()) {
      break;
    }
    Circuit rebuilt(circuit.num_qubits(), circuit.name());
    rebuilt.add_global_phase(circuit.global_phase() + phase);
    for (int i = 0; i < static_cast<int>(circuit.size()); ++i) {
      if (const auto it = insert_after.find(i); it != insert_after.end()) {
        for (const Operation& op : it->second) {
          rebuilt.append(op);
        }
      }
      if (!removed[static_cast<std::size_t>(i)]) {
        rebuilt.append(circuit.ops()[static_cast<std::size_t>(i)]);
      }
    }
    circuit = std::move(rebuilt);
    any = true;
  }
  return any;
}

/// FullPeepholeOptimise's rounds with the reference consolidation in
/// place of PeepholeOptimise2Q.
bool reference_full_peephole(Circuit& circuit, const PassContext& ctx,
                             int& repeats) {
  const qrc::passes::Optimize1qGatesDecomposition opt1q;
  const qrc::passes::CommutativeCancellation commutative;
  const qrc::passes::RemoveRedundancies redundancies;
  bool any = false;
  for (int round = 0; round < 3; ++round) {
    bool changed = false;
    changed |= opt1q.run(circuit, ctx);
    changed |= reference_consolidate(circuit, 1, repeats);
    changed |= commutative.run(circuit, ctx);
    changed |= redundancies.run(circuit, ctx);
    if (!changed) {
      break;
    }
    any = true;
  }
  return any;
}

TEST(OptPassTest, PeepholePassesMatchTheReferenceSweep) {
  const qrc::passes::PeepholeOptimise2Q peephole;
  const qrc::passes::ConsolidateBlocks consolidate;
  const qrc::passes::FullPeepholeOptimise full;
  const Device& washington =
      qrc::device::get_device(DeviceId::kIbmqWashington);
  int repeats = 0;
  int rewritten = 0;
  const auto expect_same = [&](const Circuit& got, bool got_changed,
                               const Circuit& want, bool want_changed,
                               const std::string& what) {
    EXPECT_EQ(got_changed, want_changed) << what;
    EXPECT_EQ(qrc::ir::canonical_key(got), qrc::ir::canonical_key(want))
        << what;
    rewritten += got_changed ? 1 : 0;
  };
  for (const auto family : qrc::bench::all_families()) {
    for (const int n : {2, 3, 5, 8}) {
      const Circuit raw = qrc::bench::make_benchmark(family, n, 5);
      Circuit native = raw;
      PassContext native_ctx;
      native_ctx.device = &washington;
      (void)qrc::passes::BasisTranslator().run(native, native_ctx);
      for (const auto& [input, ctx] :
           {std::pair<const Circuit*, PassContext>{&raw, PassContext{}},
            std::pair<const Circuit*, PassContext>{&native, native_ctx}}) {
        const std::string what = raw.name() + " n=" + std::to_string(n) +
                                 (ctx.device != nullptr ? " native" : "");
        for (const int min_two_qubit : {1, 2}) {
          Circuit got = *input;
          const bool got_changed = min_two_qubit == 1
                                       ? peephole.run(got, ctx)
                                       : consolidate.run(got, ctx);
          Circuit want = *input;
          const bool want_changed =
              reference_consolidate(want, min_two_qubit, repeats);
          expect_same(got, got_changed, want, want_changed,
                      what + " min_2q=" + std::to_string(min_two_qubit));
        }
        Circuit got = *input;
        const bool got_changed = full.run(got, ctx);
        Circuit want = *input;
        const bool want_changed = reference_full_peephole(want, ctx, repeats);
        expect_same(got, got_changed, want, want_changed, what + " full");
      }
    }
  }
  // Repeated block unitaries are the memoized case.
  EXPECT_GT(repeats, 0);
  EXPECT_GT(rewritten, 0);
}

}  // namespace

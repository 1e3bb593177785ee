// Tests for the tiered equivalence-checking engine (src/verify/): tier
// dispatch (Clifford tableau / alternating miter / random stimuli),
// permutation- and layout-awareness, measurement tolerance, verdict
// semantics (not-equivalent verdicts are witnessed and definitive), the
// Predictor verification gate, and the mutation helper.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <numeric>
#include <random>

#include "bench_suite/benchmarks.hpp"
#include "clifford/tableau.hpp"
#include "core/actions.hpp"
#include "core/predictor.hpp"
#include "device/library.hpp"
#include "ir/sim.hpp"
#include "la/complex.hpp"
#include "passes/opt/composite.hpp"
#include "verify/equivalence.hpp"
#include "verify/mutate.hpp"

namespace {

using qrc::ir::Circuit;
using qrc::la::kPi;
using qrc::verify::EquivalenceChecker;
using qrc::verify::Method;
using qrc::verify::Verdict;
using qrc::verify::VerifyOptions;

Circuit random_clifford(int n, int length, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> qpick(0, n - 1);
  Circuit c(n, "clifford");
  for (int i = 0; i < length; ++i) {
    const int q = qpick(rng);
    int q2 = qpick(rng);
    while (q2 == q) {
      q2 = qpick(rng);
    }
    switch (std::uniform_int_distribution<int>(0, 5)(rng)) {
      case 0: c.h(q); break;
      case 1: c.s(q); break;
      case 2: c.cx(q, q2); break;
      case 3: c.x(q); break;
      case 4: c.cz(q, q2); break;
      default: c.sx(q); break;
    }
  }
  return c;
}

Circuit random_circuit(int n, int length, std::uint64_t seed) {
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
    switch (std::uniform_int_distribution<int>(0, 7)(rng)) {
      case 0: c.h(q); break;
      case 1: c.t(q); break;
      case 2: c.cx(q, q2); break;
      case 3: c.rz(ang(rng), q); break;
      case 4: c.ry(ang(rng), q); break;
      case 5: c.rzz(ang(rng), q, q2); break;
      case 6: c.sx(q); break;
      default: c.cp(ang(rng), q, q2); break;
    }
  }
  return c;
}

// ----------------------------------------------------- Clifford tier ------

TEST(VerifyCliffordTest, FiftyQubitCliffordVerifiesViaTableau) {
  // Far beyond every dense tier: only the tableau fast path can decide.
  const Circuit a = random_clifford(50, 600, 7);
  Circuit b = a;
  b.add_global_phase(1.234);  // equivalence is up to global phase
  const EquivalenceChecker checker;
  const auto result = checker.check(a, b);
  EXPECT_EQ(result.verdict, Verdict::kEquivalent);
  EXPECT_EQ(result.method, Method::kCliffordTableau);
  EXPECT_DOUBLE_EQ(result.confidence, 1.0);
  EXPECT_EQ(result.checked_qubits, 50);
}

TEST(VerifyCliffordTest, FiftyQubitFaultIsCaught) {
  const Circuit a = random_clifford(50, 600, 8);
  Circuit b = a;
  // Replace op 300 with a different gate on the same wire.
  const auto replacement = a.ops()[300].kind() == qrc::ir::GateKind::kX
                               ? qrc::ir::GateKind::kH
                               : qrc::ir::GateKind::kX;
  b.mutable_ops()[300] = qrc::ir::Operation(
      replacement, std::array{a.ops()[300].qubit(0)});
  const auto result = EquivalenceChecker().check(a, b);
  EXPECT_EQ(result.verdict, Verdict::kNotEquivalent);
  EXPECT_EQ(result.method, Method::kCliffordTableau);
  EXPECT_DOUBLE_EQ(result.confidence, 1.0);
}

TEST(VerifyCliffordTest, ResynthesisedTableauIsEquivalent) {
  const Circuit a = random_clifford(12, 80, 9);
  const auto tableau = qrc::clifford::Tableau::from_circuit(a);
  ASSERT_TRUE(tableau.has_value());
  const auto result = EquivalenceChecker().check(a, tableau->to_circuit());
  EXPECT_EQ(result.verdict, Verdict::kEquivalent);
  EXPECT_EQ(result.method, Method::kCliffordTableau);
}

// ------------------------------------------------ alternating miter -------

TEST(VerifyMiterTest, OptimisedNonCliffordCircuitEquivalent) {
  Circuit a = random_circuit(5, 40, 21);
  Circuit b = a;
  const qrc::passes::FullPeepholeOptimise opt;
  (void)opt.run(b, {});
  ASSERT_NE(a.size(), b.size()) << "optimiser should have changed the gate "
                                   "list, else the test is vacuous";
  const auto result = EquivalenceChecker().check(a, b);
  EXPECT_EQ(result.verdict, Verdict::kEquivalent);
  EXPECT_EQ(result.method, Method::kAlternatingMiter);
  EXPECT_DOUBLE_EQ(result.confidence, 1.0);
}

TEST(VerifyMiterTest, SingleGateFaultRefutedExactly) {
  const Circuit a = random_circuit(5, 40, 22);
  Circuit b = a;
  std::size_t target = b.size();
  for (std::size_t i = 0; i < b.size(); ++i) {
    if (b.ops()[i].num_params() > 0) {
      target = i;
      break;
    }
  }
  ASSERT_LT(target, b.size()) << "no parameterised gate to perturb";
  b.mutable_ops()[target].set_param(0, b.ops()[target].param(0) + 0.5);
  const auto result = EquivalenceChecker().check(a, b);
  EXPECT_EQ(result.verdict, Verdict::kNotEquivalent);
  EXPECT_EQ(result.method, Method::kAlternatingMiter);
  EXPECT_DOUBLE_EQ(result.confidence, 1.0);
}

TEST(VerifyMiterTest, AgreesWithReferenceSimOnRandomPairs) {
  // The miter must agree with the independent statevector implementation
  // on both equivalent and inequivalent pairs.
  const EquivalenceChecker checker;
  for (std::uint64_t seed = 100; seed < 112; ++seed) {
    const Circuit a = random_circuit(4, 24, seed);
    Circuit b = random_circuit(4, 24, seed + 1000);
    const bool reference = qrc::ir::circuits_equivalent(a, b);
    const auto result = checker.check(a, b);
    EXPECT_EQ(result.verdict, reference ? Verdict::kEquivalent
                                        : Verdict::kNotEquivalent)
        << "seed " << seed;
    const auto same = checker.check(a, a);
    EXPECT_EQ(same.verdict, Verdict::kEquivalent) << "seed " << seed;
  }
}

TEST(VerifyMiterTest, PermutationAware) {
  // cx(0,1) then swap == remapped cx under the {1,0} output permutation
  // (mirrors the ir::circuits_equivalent convention).
  Circuit a(2);
  a.cx(0, 1);
  Circuit b(2);
  b.cx(0, 1);
  b.swap(0, 1);
  b.t(0);  // force the non-Clifford path
  Circuit a2 = a;
  a2.t(1);
  const auto result = EquivalenceChecker().check(a2, b, {1, 0});
  EXPECT_EQ(result.verdict, Verdict::kEquivalent);
  EXPECT_EQ(result.method, Method::kAlternatingMiter);
  const auto wrong = EquivalenceChecker().check(a2, b);
  EXPECT_EQ(wrong.verdict, Verdict::kNotEquivalent);
}

TEST(VerifyMiterTest, PermutationMatchesReferenceOnRandomPerms) {
  std::mt19937_64 rng(99);
  for (int trial = 0; trial < 6; ++trial) {
    const int n = 4;
    std::vector<int> perm(n);
    std::iota(perm.begin(), perm.end(), 0);
    std::shuffle(perm.begin(), perm.end(), rng);
    const Circuit a = random_circuit(n, 20, 400 + static_cast<std::uint64_t>(trial));
    // b := a followed by the permutation, realised through remapping:
    // remapped(perm) applied to each op + the inverse wire order gives the
    // reference implementation its own path to the same comparison.
    const bool reference =
        qrc::ir::circuits_equivalent(a, a.remapped(perm, n), 4, 12345, perm);
    const auto result =
        EquivalenceChecker().check(a, a.remapped(perm, n), perm);
    EXPECT_EQ(result.verdict == Verdict::kEquivalent, reference)
        << "trial " << trial;
  }
}

TEST(VerifyMiterTest, DifferentWidthsWidenedWithIdentity) {
  Circuit a(2);
  a.h(0);
  a.cx(0, 1);
  a.t(1);
  Circuit b(4);
  b.h(0);
  b.cx(0, 1);
  b.t(1);
  EXPECT_EQ(EquivalenceChecker().check(a, b).verdict, Verdict::kEquivalent);
  b.h(3);  // touching the extra wire breaks identity-extension
  EXPECT_EQ(EquivalenceChecker().check(a, b).verdict,
            Verdict::kNotEquivalent);
}

// ------------------------------------------------------ stimuli tier ------

TEST(VerifyStimuliTest, WideCircuitFallsBackToSampling) {
  VerifyOptions options;
  options.max_miter_qubits = 3;  // force the sampling tier
  const Circuit a = random_circuit(6, 30, 31);
  Circuit b = a;
  const qrc::passes::FullPeepholeOptimise opt;
  (void)opt.run(b, {});
  const auto result = EquivalenceChecker(options).check(a, b);
  EXPECT_EQ(result.verdict, Verdict::kEquivalent);
  EXPECT_EQ(result.method, Method::kRandomStimuli);
  EXPECT_LT(result.confidence, 1.0);
  EXPECT_GT(result.confidence, 0.99);
}

TEST(VerifyStimuliTest, SamplingCatchesFaults) {
  VerifyOptions options;
  options.max_miter_qubits = 3;
  const Circuit a = random_circuit(6, 30, 32);
  Circuit b = a;
  b.mutable_ops()[10] = qrc::ir::Operation(qrc::ir::GateKind::kH,
                                           std::array{b.ops()[10].qubit(0)});
  const auto result = EquivalenceChecker(options).check(a, b);
  if (result.verdict == Verdict::kNotEquivalent) {
    EXPECT_EQ(result.method, Method::kRandomStimuli);
    EXPECT_DOUBLE_EQ(result.confidence, 1.0);  // witnessed
  } else {
    // The replaced op could have been an h already; then equivalence is
    // genuine.
    EXPECT_TRUE(a.ops()[10] == b.ops()[10]);
  }
}

TEST(VerifyStimuliTest, TooWideIsUnknownNotWrong) {
  Circuit a(23);
  for (int q = 0; q + 1 < 23; ++q) {
    a.cx(q, q + 1);
  }
  a.t(0);  // non-Clifford, 23 qubits: beyond both dense tiers
  const auto result = EquivalenceChecker().check(a, a);
  EXPECT_EQ(result.verdict, Verdict::kUnknown);
  EXPECT_EQ(result.method, Method::kNone);
  EXPECT_EQ(result.confidence, 0.0);
}

TEST(VerifyStimuliTest, WideInstancesShrinkTheStimulusBudget) {
  // 17 active qubits: the adaptive budget drops to num_stimuli / 4 and the
  // reported confidence drops with it — still a decided verdict.
  Circuit a(17);
  for (int q = 0; q + 1 < 17; ++q) {
    a.cx(q, q + 1);
  }
  a.t(16);
  const auto result = EquivalenceChecker().check(a, a);
  EXPECT_EQ(result.verdict, Verdict::kEquivalent);
  EXPECT_EQ(result.method, Method::kRandomStimuli);
  EXPECT_DOUBLE_EQ(result.confidence, 1.0 - std::pow(0.5, 2.0));
}

// ---------------------------------------------- measurement tolerance -----

TEST(VerifyToleranceTest, DiagonalBeforeMeasureAccepted) {
  Circuit a(2);
  a.h(0);
  a.cx(0, 1);
  a.t(0);  // non-Clifford so the miter runs
  a.rz(0.7, 1);
  a.measure_all();
  Circuit b(2);
  b.h(0);
  b.cx(0, 1);
  b.t(0);  // the trailing rz was "optimised away" before the measures
  b.measure_all();
  const auto result = EquivalenceChecker().check(a, b);
  EXPECT_EQ(result.verdict, Verdict::kEquivalent);
  EXPECT_LT(result.confidence, 1.0);  // distribution-level, not exact
  EXPECT_NE(result.detail.find("diagonal"), std::string::npos);
}

TEST(VerifyToleranceTest, WithoutMeasuresTheSameGapIsRefuted) {
  Circuit a(2);
  a.h(0);
  a.cx(0, 1);
  a.t(0);
  a.rz(0.7, 1);
  Circuit b(2);
  b.h(0);
  b.cx(0, 1);
  b.t(0);
  const auto result = EquivalenceChecker().check(a, b);
  EXPECT_EQ(result.verdict, Verdict::kNotEquivalent);
}

TEST(VerifyToleranceTest, NonDiagonalGapIsRefutedDespiteMeasures) {
  Circuit a(2);
  a.h(0);
  a.cx(0, 1);
  a.t(0);
  a.measure_all();
  Circuit b = a;
  b.mutable_ops()[1] = qrc::ir::Operation(qrc::ir::GateKind::kCX,
                                          std::array{1, 0});
  const auto result = EquivalenceChecker().check(a, b);
  EXPECT_EQ(result.verdict, Verdict::kNotEquivalent);
}

TEST(VerifyToleranceTest, CanBeDisabled) {
  Circuit a(2);
  a.h(0);
  a.t(0);
  a.h(1);
  a.rz(0.7, 1);  // trailing diagonal: invisible to the measures
  a.measure_all();
  Circuit b(2);
  b.h(0);
  b.t(0);
  b.h(1);
  b.measure_all();
  VerifyOptions strict;
  strict.measurement_tolerant = false;
  EXPECT_EQ(EquivalenceChecker(strict).check(a, b).verdict,
            Verdict::kNotEquivalent);
  EXPECT_EQ(EquivalenceChecker().check(a, b).verdict, Verdict::kEquivalent);
}

TEST(VerifyToleranceTest, GenuineMidCircuitMeasureIsUnknownNotEquivalent) {
  // 'measure q0; h q0' is NOT the same program as 'h q0; measure q0':
  // stripping the measure would certify them equivalent, so the checker
  // must refuse instead (the h changes what the measurement records).
  Circuit a(2);
  a.measure(0);
  a.h(0);
  a.t(1);
  Circuit b(2);
  b.h(0);
  b.t(1);
  b.measure(0);
  const auto result = EquivalenceChecker().check(a, b);
  EXPECT_EQ(result.verdict, Verdict::kUnknown);
  EXPECT_NE(result.detail.find("mid-circuit"), std::string::npos);
}

TEST(VerifyToleranceTest, SwapTailAfterMeasureIsDeferrable) {
  // A routing swap network moving other qubits through an already
  // measured wire does not change what that measurement recorded — the
  // checker must still decide (this is what SABRE-routed circuits with
  // early measures look like).
  Circuit a(3);
  a.h(0);
  a.cx(0, 1);
  a.t(2);
  a.measure(1);
  // swap(1, 2) as the router writes it: a cx triple through wire 1.
  a.cx(1, 2);
  a.cx(2, 1);
  a.cx(1, 2);
  a.measure(0);
  a.measure(2);
  Circuit b(3);
  b.h(0);
  b.cx(0, 1);
  b.t(2);
  b.swap(1, 2);
  b.measure_all();
  const auto result = EquivalenceChecker().check(a, b);
  EXPECT_EQ(result.verdict, Verdict::kEquivalent) << result.detail;
}

TEST(VerifyToleranceTest, ResetMakesTheCheckUnknown) {
  Circuit a(2);
  a.h(0);
  a.reset(0);
  const auto result = EquivalenceChecker().check(a, a);
  EXPECT_EQ(result.verdict, Verdict::kUnknown);
  EXPECT_NE(result.detail.find("reset"), std::string::npos);
}

// ------------------------------------------------------- mapped checks ----

TEST(VerifyMappedTest, RoutedBenchmarkVerifiesThroughLayouts) {
  using qrc::core::ActionRegistry;
  const auto& registry = ActionRegistry::instance();
  const auto& dev =
      qrc::device::get_device(qrc::device::DeviceId::kOqcLucy);
  qrc::core::CompilationState state;
  state.circuit =
      qrc::bench::make_benchmark(qrc::bench::BenchmarkFamily::kQft, 5, 3);
  for (const char* name :
       {"platform_oqc", "device_oqc_lucy", "BasisTranslator", "SabreLayout",
        "SabreSwap", "BasisTranslator", "Optimize1qGatesDecomposition"}) {
    const int id = registry.index_of(name);
    if (registry.at(id).valid(state)) {
      registry.at(id).apply(state, 5);
    }
  }
  ASSERT_EQ(state.state(), qrc::core::MdpState::kDone);
  ASSERT_TRUE(state.initial_layout.has_value());
  const auto result = EquivalenceChecker().check_mapped(
      qrc::bench::make_benchmark(qrc::bench::BenchmarkFamily::kQft, 5, 3),
      state.circuit, *state.initial_layout, state.final_layout);
  EXPECT_EQ(result.verdict, Verdict::kEquivalent) << result.detail;
  EXPECT_EQ(dev.num_qubits(), 8);
  EXPECT_LE(result.checked_qubits, dev.num_qubits());
  EXPECT_GE(result.checked_qubits, 5);
}

TEST(VerifyMappedTest, WrongFinalLayoutRefuted) {
  // A deliberate off-by-one in the final layout must flip the verdict:
  // layout bookkeeping is exactly what routed-circuit verification guards.
  Circuit logical(2, "bell");
  logical.h(0);
  logical.cx(0, 1);
  logical.t(1);
  Circuit physical(3);
  physical.h(1);
  physical.cx(1, 2);
  physical.t(2);
  physical.swap(0, 1);
  const auto good = EquivalenceChecker().check_mapped(logical, physical,
                                                      {1, 2}, {0, 2});
  EXPECT_EQ(good.verdict, Verdict::kEquivalent) << good.detail;
  const auto bad = EquivalenceChecker().check_mapped(logical, physical,
                                                     {1, 2}, {1, 2});
  EXPECT_EQ(bad.verdict, Verdict::kNotEquivalent);
}

TEST(VerifyMappedTest, AncillaMustReturnToZero) {
  // A physical circuit that parks junk on an ancilla wire is not a valid
  // implementation even if the logical wires look right.
  Circuit logical(1);
  logical.t(0);
  logical.h(0);
  Circuit physical(2);
  physical.t(0);
  physical.h(0);
  physical.x(1);  // ancilla left dirty
  const auto result =
      EquivalenceChecker().check_mapped(logical, physical, {0}, {0});
  EXPECT_EQ(result.verdict, Verdict::kNotEquivalent);
}

TEST(VerifyMappedTest, ReadoutMismatchRefuted) {
  // `measure q[i]` records into c[i]: the classical record is tied to the
  // physical wire. A measure emitted before a later swap moved a
  // different slot onto its wire records the wrong logical qubit — and is
  // invisible to the unitary tiers, which strip measures. check_mapped
  // must refute on the measured sets alone.
  Circuit logical(2);
  logical.h(0);
  logical.cx(0, 1);
  logical.measure(0);
  logical.measure(1);
  Circuit physical(3);
  physical.h(0);
  physical.cx(0, 1);
  physical.measure(1);  // recorded into c[1]...
  physical.swap(1, 2);  // ...but logical 1 then moves to wire 2
  physical.measure(0);
  const auto result =
      EquivalenceChecker().check_mapped(logical, physical, {0, 1}, {0, 2});
  EXPECT_EQ(result.verdict, Verdict::kNotEquivalent);
  EXPECT_NE(result.detail.find("readout"), std::string::npos)
      << result.detail;
}

TEST(VerifyMappedTest, RoutingThoroughfareKeepsMeasurementTolerance) {
  // A swap network may borrow a wire that ends active-but-unmeasured (it
  // carries only the |0> ancilla back). That thoroughfare must not void
  // the distribution-level tolerance for diagonal phases removed before
  // measure-all on the *measured* wires.
  Circuit logical(2);
  logical.h(0);
  logical.cx(0, 1);
  logical.rz(0.7, 1);  // legitimately removable before measurement
  logical.measure(0);
  logical.measure(1);
  Circuit physical(3);
  physical.h(0);
  physical.cx(0, 1);
  physical.swap(1, 2);  // wire 1 becomes an unmeasured thoroughfare
  physical.measure(0);
  physical.measure(2);  // rz dropped: diagonal gap on a measured wire
  const auto result =
      EquivalenceChecker().check_mapped(logical, physical, {0, 1}, {0, 2});
  EXPECT_EQ(result.verdict, Verdict::kEquivalent) << result.detail;
  EXPECT_NE(result.detail.find("diagonal"), std::string::npos)
      << result.detail;
}

TEST(VerifyMappedTest, LayoutValidationThrows) {
  Circuit logical(2);
  logical.cx(0, 1);
  Circuit physical(3);
  physical.cx(0, 1);
  const EquivalenceChecker checker;
  EXPECT_THROW((void)checker.check_mapped(logical, physical, {0}, {0, 1}),
               std::invalid_argument);
  EXPECT_THROW((void)checker.check_mapped(logical, physical, {0, 3}, {}),
               std::invalid_argument);
  EXPECT_THROW((void)checker.check_mapped(logical, physical, {1, 1}, {}),
               std::invalid_argument);
  EXPECT_THROW((void)checker.check_mapped(physical, logical, {}, {}),
               std::invalid_argument);
}

TEST(VerifyMappedTest, CompactionKeepsWideDevicesCheap) {
  // 3 active qubits on a 127-qubit register must verify in a 3-qubit
  // space, not 127.
  Circuit logical(3);
  logical.h(0);
  logical.cx(0, 1);
  logical.cx(1, 2);
  logical.t(2);
  Circuit physical(127);
  physical.h(100);
  physical.cx(100, 101);
  physical.cx(101, 102);
  physical.t(102);
  const auto result = EquivalenceChecker().check_mapped(
      logical, physical, {100, 101, 102}, {100, 101, 102});
  EXPECT_EQ(result.verdict, Verdict::kEquivalent);
  EXPECT_EQ(result.checked_qubits, 3);
  EXPECT_EQ(result.method, Method::kAlternatingMiter);
}

// ----------------------------------------------- Predictor integration ----

TEST(VerifyPredictorTest, CompileVerifiedGatesTheResult) {
  qrc::core::PredictorConfig config;
  config.seed = 3;
  config.ppo.total_timesteps = 512;
  config.ppo.steps_per_update = 256;
  config.ppo.hidden_sizes = {16};
  qrc::core::Predictor predictor(config);
  Circuit ghz(3, "ghz3");
  ghz.h(0);
  ghz.cx(0, 1);
  ghz.cx(1, 2);
  ghz.measure_all();
  (void)predictor.train({ghz});

  const auto plain = predictor.compile(ghz);
  EXPECT_FALSE(plain.verification.has_value());
  const auto verified =
      predictor.compile(ghz, {.verify = qrc::verify::VerifyOptions{}});
  ASSERT_TRUE(verified.verification.has_value());
  EXPECT_EQ(verified.verification->verdict, Verdict::kEquivalent)
      << verified.verification->detail;
  // Verification only observes: the compiled artifact is identical.
  EXPECT_TRUE(plain.circuit == verified.circuit);
  EXPECT_EQ(plain.final_layout, verified.final_layout);

  // compile_all with the gate fills every result.
  const std::vector<Circuit> suite = {ghz, ghz};
  qrc::verify::VerifyOptions options;
  const auto results =
      predictor.compile_all(suite, nullptr, {.verify = options});
  for (const auto& r : results) {
    ASSERT_TRUE(r.verification.has_value());
    EXPECT_EQ(r.verification->verdict, Verdict::kEquivalent);
    EXPECT_TRUE(r.circuit == plain.circuit);
  }

  // verify_compilation refutes a tampered result.
  auto tampered = plain;
  ASSERT_FALSE(tampered.circuit.empty());
  auto mutation = qrc::verify::mutate_single_gate(tampered.circuit, 5);
  ASSERT_TRUE(mutation.has_value());
  tampered.circuit = mutation->circuit;
  const auto verdict = qrc::core::verify_compilation(ghz, tampered);
  EXPECT_NE(verdict.verdict, Verdict::kUnknown);
}

// -------------------------------------------------- registry property ----

TEST(VerifyPassPropertyTest, EveryRegisteredPassPreservesEquivalence) {
  // Every optimization/synthesis pass in the action registry must preserve
  // equivalence on seeded random 5-10 qubit circuits, judged by the
  // EquivalenceChecker itself. Enumerating the registry (instead of a
  // hand-kept list) means a newly added pass cannot dodge the sweep.
  using qrc::core::ActionRegistry;
  using qrc::core::ActionType;
  const auto& registry = ActionRegistry::instance();
  const auto& dev =
      qrc::device::get_device(qrc::device::DeviceId::kIonqHarmony);
  const EquivalenceChecker checker;
  int passes_swept = 0;
  for (int i = 0; i < registry.size(); ++i) {
    const auto& action = registry.at(i);
    if (action.type() != ActionType::kOptimization &&
        action.type() != ActionType::kSynthesis) {
      continue;
    }
    ++passes_swept;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const int n = 5 + static_cast<int>(seed);  // 6..8 qubits
      qrc::core::CompilationState state;
      state.circuit = random_circuit(n, 30, 7000 + seed);
      state.platform = dev.platform();
      state.device = &dev;
      const Circuit original = state.circuit;
      if (!action.valid(state)) {
        continue;
      }
      action.apply(state, seed);
      const auto result = checker.check(original, state.circuit);
      EXPECT_EQ(result.verdict, Verdict::kEquivalent)
          << action.name() << " seed " << seed << ": " << result.detail;
    }
  }
  EXPECT_GE(passes_swept, 13);  // 12 optimizations + BasisTranslator
}

// ------------------------------------------------------ mutation tool -----

TEST(VerifyMutateTest, MutationsChangeTheCircuitAndAreDescribed) {
  const Circuit c = random_circuit(4, 20, 77);
  int produced = 0;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const auto mutation = qrc::verify::mutate_single_gate(c, seed);
    if (!mutation.has_value()) {
      continue;
    }
    ++produced;
    EXPECT_FALSE(mutation->description.empty());
    EXPECT_FALSE(mutation->circuit == c);
  }
  EXPECT_GE(produced, 15);
}

TEST(VerifyMutateTest, MeasureOnlyCircuitHasNoMutableGate) {
  Circuit c(2);
  c.measure_all();
  EXPECT_FALSE(qrc::verify::mutate_single_gate(c, 1).has_value());
}

// ------------------------------------------------------- options/misc -----

TEST(VerifyOptionsTest, BadOptionsRejected) {
  const auto construct = [](const VerifyOptions& options) {
    const EquivalenceChecker checker(options);
    (void)checker;
  };
  VerifyOptions options;
  options.max_miter_qubits = 13;  // Choi state would need 26 qubits
  EXPECT_THROW(construct(options), std::invalid_argument);
  options = {};
  options.max_stimuli_qubits = 25;
  EXPECT_THROW(construct(options), std::invalid_argument);
  options = {};
  options.num_stimuli = 0;
  EXPECT_THROW(construct(options), std::invalid_argument);
}

TEST(VerifyNamesTest, VerdictAndMethodNamesRoundTrip) {
  EXPECT_EQ(qrc::verify::verdict_name(Verdict::kEquivalent), "equivalent");
  EXPECT_EQ(qrc::verify::verdict_name(Verdict::kNotEquivalent),
            "not_equivalent");
  EXPECT_EQ(qrc::verify::verdict_name(Verdict::kUnknown), "unknown");
  EXPECT_EQ(qrc::verify::method_name(Method::kCliffordTableau),
            "clifford_tableau");
  EXPECT_EQ(qrc::verify::method_name(Method::kAlternatingMiter),
            "alternating_miter");
  EXPECT_EQ(qrc::verify::method_name(Method::kRandomStimuli),
            "random_stimuli");
  EXPECT_EQ(qrc::verify::method_name(Method::kNone), "none");
}

}  // namespace

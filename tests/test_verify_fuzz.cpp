// Verification fuzz sweep: every benchmark family is compiled through the
// full deterministic pass pipeline (synthesis, SABRE layout/routing,
// re-synthesis, optimization tail including the measurement-sensitive
// RemoveDiagonalGatesBeforeMeasure) on rotating library devices, and every
// compiled circuit must verify `equivalent` against its input, also after
// a round trip through OpenQASM text. Deliberate single-gate mutations of
// the compiled circuits must be flagged `not_equivalent` (>= 95% overall;
// a mutant accepted with confidence 1.0 — i.e. by an exact tier — is an
// outright checker bug).
//
// This file keeps the grid moderate so it rides in every CI leg including
// ASan/UBSan; the exhaustive 2-12 qubit sweep over all devices lives in
// tools/qrc_verify_fuzz.cpp and runs behind the `long_fuzz` CTest label
// (cmake -DQRC_ENABLE_LONG_FUZZ=ON).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "../tools/verify_fuzz_common.hpp"
#include "bench_suite/benchmarks.hpp"
#include "core/predictor.hpp"
#include "device/library.hpp"
#include "ir/qasm.hpp"
#include "verify/equivalence.hpp"
#include "verify/mutate.hpp"

namespace {

using qrc::bench::BenchmarkFamily;
using qrc::core::CompilationResult;
using qrc::ir::Circuit;
using qrc::verify::Verdict;
using qrc::verify_fuzz::measurement_equivalent_oracle;
using qrc::verify_fuzz::run_full_pipeline;

TEST(VerifyFuzzTest, EveryFamilyCompilesAndVerifiesOnRotatingDevices) {
  const auto& families = qrc::bench::all_families();
  const auto& devices = qrc::device::all_devices();
  int checked = 0;
  for (std::size_t idx = 0; idx < families.size(); ++idx) {
    const int n = 2 + static_cast<int>(idx % 6);  // 2..7: fits every device
    const auto* dev = devices[idx % devices.size()];
    const Circuit circuit =
        qrc::bench::make_benchmark(families[idx], n, 11 + idx);
    const auto result = run_full_pipeline(circuit, *dev, 11 + idx);
    const auto verdict = qrc::core::verify_compilation(circuit, result);
    EXPECT_EQ(verdict.verdict, Verdict::kEquivalent)
        << circuit.name() << " on " << dev->name() << " via "
        << qrc::verify::method_name(verdict.method) << ": "
        << verdict.detail;
    EXPECT_NE(verdict.method, qrc::verify::Method::kNone);

    // The served form of the result: OpenQASM text, parsed back. The
    // emitter prints 15 significant digits and drops the global phase,
    // and the round trip must still verify.
    CompilationResult tripped = result;
    tripped.circuit = qrc::ir::from_qasm(qrc::ir::to_qasm(result.circuit));
    const auto tripped_verdict =
        qrc::core::verify_compilation(circuit, tripped);
    EXPECT_EQ(tripped_verdict.verdict, Verdict::kEquivalent)
        << circuit.name() << " on " << dev->name()
        << " after a QASM round trip via "
        << qrc::verify::method_name(tripped_verdict.method) << ": "
        << tripped_verdict.detail;
    ++checked;
  }
  EXPECT_EQ(checked, qrc::bench::kNumFamilies);
}

TEST(VerifyFuzzTest, BoundaryWidthsVerify) {
  // The 10-12 qubit corner on the big devices: compaction + the sampling
  // tier must keep routed washington circuits decidable.
  struct Case {
    BenchmarkFamily family;
    int qubits;
    qrc::device::DeviceId device;
  };
  const Case cases[] = {
      {BenchmarkFamily::kGhz, 12, qrc::device::DeviceId::kIbmqWashington},
      {BenchmarkFamily::kQft, 12, qrc::device::DeviceId::kIbmqWashington},
      {BenchmarkFamily::kWstate, 10, qrc::device::DeviceId::kIbmqMontreal},
      {BenchmarkFamily::kSu2Random, 11, qrc::device::DeviceId::kIonqHarmony},
      {BenchmarkFamily::kGraphState, 8, qrc::device::DeviceId::kOqcLucy},
      {BenchmarkFamily::kQaoa, 10, qrc::device::DeviceId::kRigettiAspenM2},
  };
  for (const auto& c : cases) {
    const auto& dev = qrc::device::get_device(c.device);
    const Circuit circuit = qrc::bench::make_benchmark(c.family, c.qubits, 5);
    const auto result = run_full_pipeline(circuit, dev, 5);
    const auto verdict = qrc::core::verify_compilation(circuit, result);
    EXPECT_EQ(verdict.verdict, Verdict::kEquivalent)
        << circuit.name() << " on " << dev.name() << " ("
        << verdict.checked_qubits
        << " active qubits): " << verdict.detail;
  }
}

TEST(VerifyFuzzTest, TrainedPolicySweepHasZeroRefutations) {
  // End-to-end hard invariant: a trained policy's verified compilations
  // (greedy rollouts over arbitrary pass interleavings, including the
  // canned fallback tail) are NEVER refuted by the equivalence gate. This
  // is the grid that exposed the PR 5 "known defect" (a fallback
  // compilation the miter refuted), which decomposed into three real
  // bugs: CommutativeCancellation merging rotations at the wrong slot,
  // routers emitting terminal measures before later swaps re-targeted
  // their wire, and check_mapped dropping measurement tolerance over
  // routing thoroughfares. Zero refutations is the contract — any
  // refutation is a miscompile or a checker soundness bug, not noise.
  qrc::core::PredictorConfig config;
  config.reward = qrc::reward::RewardKind::kFidelity;
  config.seed = 7;  // historically the most refutation-prone policy seed
  config.ppo.total_timesteps = 512;
  config.ppo.steps_per_update = 256;
  config.ppo.hidden_sizes = {16};
  qrc::core::Predictor predictor(config);
  (void)predictor.train(qrc::bench::benchmark_suite(2, 5, 6));
  const qrc::verify::VerifyOptions verify_options;
  const auto suite = qrc::bench::benchmark_suite(2, 7, 48);
  int fallbacks = 0;
  for (const auto& circuit : suite) {
    const auto result = predictor.compile(circuit, {.verify = verify_options});
    ASSERT_TRUE(result.verification.has_value());
    fallbacks += result.used_fallback ? 1 : 0;
    ASSERT_NE(result.verification->verdict, Verdict::kNotEquivalent)
        << circuit.name() << " on "
        << (result.device ? result.device->name() : std::string("-"))
        << " via "
        << qrc::verify::method_name(result.verification->method) << ": "
        << result.verification->detail;
  }
  // The sweep must keep exercising the fallback path, where the defect
  // historically lived.
  EXPECT_GE(fallbacks, 1);
}

TEST(VerifyFuzzTest, SeededMutationsAreFlagged) {
  const auto& families = qrc::bench::all_families();
  // Small devices keep the mutants inside oracle range.
  const qrc::device::DeviceId devices[] = {
      qrc::device::DeviceId::kOqcLucy, qrc::device::DeviceId::kIonqHarmony,
      qrc::device::DeviceId::kIbmqMontreal};
  int mutants = 0;
  int caught = 0;
  int refuted = 0;
  std::vector<std::string> misses;
  for (std::size_t idx = 0; idx < families.size(); ++idx) {
    const int n = 2 + static_cast<int>(idx % 4);  // 2..5
    const auto& dev = qrc::device::get_device(devices[idx % 3]);
    const Circuit circuit =
        qrc::bench::make_benchmark(families[idx], n, 23 + idx);
    const auto result = run_full_pipeline(circuit, dev, 23 + idx);
    ASSERT_EQ(qrc::core::verify_compilation(circuit, result).verdict,
              Verdict::kEquivalent)
        << circuit.name() << ": genuine compilation must verify before "
        << "mutation makes sense";
    for (std::uint64_t m = 0; m < 3; ++m) {
      const auto mutation = qrc::verify::mutate_single_gate(
          result.circuit, 131u * m + idx);
      if (!mutation.has_value() ||
          measurement_equivalent_oracle(mutation->circuit, result.circuit)) {
        continue;
      }
      CompilationResult mutated = result;
      mutated.circuit = mutation->circuit;
      const auto verdict = qrc::core::verify_compilation(circuit, mutated);
      ++mutants;
      // The gate blocks anything it cannot certify: a witnessed
      // refutation AND a kUnknown refusal (e.g. the mutation broke the
      // deferred-measurement structure) both count as caught; only a
      // mutant certified equivalent slipped through.
      if (verdict.verdict != Verdict::kEquivalent) {
        ++caught;
        if (verdict.verdict == Verdict::kNotEquivalent) {
          ++refuted;
        }
      } else {
        misses.push_back(circuit.name() + " on " + dev.name() + " (" +
                         mutation->description + "): " + verdict.detail);
      }
      // An exact tier certifying a genuine fault as equivalent would be a
      // soundness hole, not a statistical miss.
      EXPECT_FALSE(verdict.verdict == Verdict::kEquivalent &&
                   verdict.confidence >= 1.0)
          << mutation->description;
    }
  }
  ASSERT_GE(mutants, 30) << "mutation generator starved";
  std::string all_misses;
  for (const auto& miss : misses) {
    all_misses += "\n  " + miss;
  }
  EXPECT_GE(static_cast<double>(caught) / static_cast<double>(mutants), 0.95)
      << caught << "/" << mutants << " blocked; certified equivalent:"
      << all_misses;
  // Most blocked mutants should be witnessed refutations, not refusals.
  EXPECT_GE(refuted * 2, mutants) << refuted << "/" << mutants;
}

}  // namespace

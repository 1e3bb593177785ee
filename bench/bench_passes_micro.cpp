// Google-benchmark microbenchmarks of the compilation substrate: pass
// throughput, routing, feature extraction, the reward functions and PPO
// machinery. These quantify the per-step cost of the RL environment, plus
// the decoding and encoding of a served circuit.

#include <benchmark/benchmark.h>

#include <random>

#include "baselines/baselines.hpp"
#include "bench_suite/benchmarks.hpp"
#include "core/actions.hpp"
#include "device/library.hpp"
#include "features/features.hpp"
#include "ir/qasm.hpp"
#include "passes/layout/layout.hpp"
#include "passes/opt/cancellation.hpp"
#include "passes/opt/composite.hpp"
#include "passes/opt/consolidate.hpp"
#include "passes/opt/one_qubit_opt.hpp"
#include "passes/routing/routing.hpp"
#include "passes/synthesis/basis_translator.hpp"
#include "reward/reward.hpp"
#include "rl/mlp.hpp"
#include "rl/ppo.hpp"
#include "service/compile_service.hpp"
#include "service/jsonl.hpp"

namespace {

using qrc::bench::BenchmarkFamily;

qrc::ir::Circuit test_circuit(int n) {
  return qrc::bench::make_benchmark(BenchmarkFamily::kQftEntangled, n, 1);
}

const qrc::device::Device& washington() {
  return qrc::device::get_device(qrc::device::DeviceId::kIbmqWashington);
}

void BM_BasisTranslator(benchmark::State& state) {
  const auto circuit = test_circuit(static_cast<int>(state.range(0)));
  qrc::passes::PassContext ctx;
  ctx.device = &washington();
  const qrc::passes::BasisTranslator pass;
  for (auto _ : state) {
    auto copy = circuit;
    benchmark::DoNotOptimize(pass.run(copy, ctx));
  }
}
BENCHMARK(BM_BasisTranslator)->Arg(5)->Arg(10)->Arg(20);

void BM_SabreLayoutAndRouting(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto circuit = test_circuit(n);
  qrc::passes::PassContext ctx;
  ctx.device = &washington();
  const qrc::passes::BasisTranslator pass;
  (void)pass.run(circuit, ctx);
  for (auto _ : state) {
    const auto layout = qrc::passes::compute_layout(
        qrc::passes::LayoutKind::kSabre, circuit, washington(), 1);
    auto placed = qrc::passes::apply_layout(circuit, layout, washington());
    benchmark::DoNotOptimize(qrc::passes::route(
        qrc::passes::RoutingKind::kSabreSwap, placed, washington(), 1));
  }
}
BENCHMARK(BM_SabreLayoutAndRouting)->Arg(5)->Arg(10)->Arg(20);

/// Layout alone, on the device's native gates. On the all-to-all
/// ionq_harmony every start placement is already swap-free.
void BM_SabreLayout(benchmark::State& state, qrc::device::DeviceId id) {
  const auto& device = qrc::device::get_device(id);
  auto circuit = test_circuit(static_cast<int>(state.range(0)));
  qrc::passes::PassContext ctx;
  ctx.device = &device;
  (void)qrc::passes::BasisTranslator().run(circuit, ctx);
  for (auto _ : state) {
    benchmark::DoNotOptimize(qrc::passes::compute_layout(
        qrc::passes::LayoutKind::kSabre, circuit, device, 1));
  }
}
BENCHMARK_CAPTURE(BM_SabreLayout, ionq_harmony,
                  qrc::device::DeviceId::kIonqHarmony)
    ->Arg(5)
    ->Arg(10);
BENCHMARK_CAPTURE(BM_SabreLayout, ibmq_washington,
                  qrc::device::DeviceId::kIbmqWashington)
    ->Arg(5)
    ->Arg(10)
    ->Arg(20);

void BM_Optimize1q(benchmark::State& state) {
  const auto circuit = test_circuit(static_cast<int>(state.range(0)));
  const qrc::passes::Optimize1qGatesDecomposition pass;
  for (auto _ : state) {
    auto copy = circuit;
    benchmark::DoNotOptimize(pass.run(copy, {}));
  }
}
BENCHMARK(BM_Optimize1q)->Arg(10)->Arg(20);

void BM_CommutativeCancellation(benchmark::State& state) {
  const auto circuit = test_circuit(static_cast<int>(state.range(0)));
  const qrc::passes::CommutativeCancellation pass;
  for (auto _ : state) {
    auto copy = circuit;
    benchmark::DoNotOptimize(pass.run(copy, {}));
  }
}
BENCHMARK(BM_CommutativeCancellation)->Arg(10)->Arg(20);

void BM_ConsolidateBlocks(benchmark::State& state) {
  const auto circuit = test_circuit(static_cast<int>(state.range(0)));
  const qrc::passes::ConsolidateBlocks pass;
  for (auto _ : state) {
    auto copy = circuit;
    benchmark::DoNotOptimize(pass.run(copy, {}));
  }
}
BENCHMARK(BM_ConsolidateBlocks)->Arg(10)->Arg(20);

/// TKET-style 2q peephole on the device's native gates, the form the
/// corpus flow's fallback hands it.
void BM_PeepholeOptimise2Q(benchmark::State& state) {
  auto circuit = test_circuit(static_cast<int>(state.range(0)));
  qrc::passes::PassContext ctx;
  ctx.device = &washington();
  (void)qrc::passes::BasisTranslator().run(circuit, ctx);
  const qrc::passes::PeepholeOptimise2Q pass;
  for (auto _ : state) {
    auto copy = circuit;
    benchmark::DoNotOptimize(pass.run(copy, ctx));
  }
}
BENCHMARK(BM_PeepholeOptimise2Q)->Arg(10)->Arg(20);

void BM_FullPeephole(benchmark::State& state) {
  const auto circuit = test_circuit(static_cast<int>(state.range(0)));
  const qrc::passes::FullPeepholeOptimise pass;
  for (auto _ : state) {
    auto copy = circuit;
    benchmark::DoNotOptimize(pass.run(copy, {}));
  }
}
BENCHMARK(BM_FullPeephole)->Arg(10);

void BM_FeatureExtraction(benchmark::State& state) {
  const auto circuit = test_circuit(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(qrc::features::extract_features(circuit));
  }
}
BENCHMARK(BM_FeatureExtraction)->Arg(5)->Arg(20);

void BM_ExpectedFidelity(benchmark::State& state) {
  auto circuit = test_circuit(10);
  qrc::passes::PassContext ctx;
  ctx.device = &washington();
  const qrc::passes::BasisTranslator pass;
  (void)pass.run(circuit, ctx);
  const auto layout = qrc::passes::compute_layout(
      qrc::passes::LayoutKind::kTrivial, circuit, washington());
  circuit = qrc::passes::apply_layout(circuit, layout, washington());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        qrc::reward::expected_fidelity(circuit, washington()));
  }
}
BENCHMARK(BM_ExpectedFidelity);

void BM_MlpForward(benchmark::State& state) {
  qrc::rl::Mlp net({7, 64, 64, 29}, 1);
  const std::vector<double> obs(7, 0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.forward(obs));
  }
}
BENCHMARK(BM_MlpForward);

void BM_MlpForwardBackward(benchmark::State& state) {
  qrc::rl::Mlp net({7, 64, 64, 29}, 1);
  const std::vector<double> obs(7, 0.5);
  const std::vector<double> grad(29, 0.01);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.forward_cached(obs));
    net.backward(grad);
  }
}
BENCHMARK(BM_MlpForwardBackward);

/// The JSONL result line of one served 10-qubit compilation (QASM text,
/// JSON quoting and the envelope).
void BM_ServeResponseLine(benchmark::State& state) {
  const auto& harmony =
      qrc::device::get_device(qrc::device::DeviceId::kIonqHarmony);
  qrc::service::ServiceResponse response;
  response.id = "bench-10";
  response.model = "default";
  response.result.circuit =
      qrc::baselines::compile_qiskit_o3_like(test_circuit(10), harmony)
          .circuit;
  response.result.device = &harmony;
  response.result.reward = 0.8125;
  response.latency_us = 1234;
  for (auto _ : state) {
    benchmark::DoNotOptimize(qrc::service::serve_response_line(response));
  }
}
BENCHMARK(BM_ServeResponseLine);

/// Parsing the wire text of a compiled circuit, as a served request's
/// `qasm` field arrives.
void BM_FromQasm(benchmark::State& state) {
  const std::string text =
      qrc::ir::to_qasm(qrc::baselines::compile_qiskit_o3_like(
                           test_circuit(static_cast<int>(state.range(0))),
                           washington())
                           .circuit);
  for (auto _ : state) {
    benchmark::DoNotOptimize(qrc::ir::from_qasm(text));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_FromQasm)->Arg(10)->Arg(20);

/// The validity mask of all 29 actions in a device-chosen 20-qubit state,
/// computed once per rollout step.
void BM_ActionMask(benchmark::State& state) {
  qrc::core::CompilationState compilation;
  compilation.circuit = test_circuit(20);
  compilation.platform = qrc::device::Platform::kIBM;
  compilation.device = &washington();
  const auto& registry = qrc::core::ActionRegistry::instance();
  for (auto _ : state) {
    benchmark::DoNotOptimize(registry.mask(compilation));
  }
}
BENCHMARK(BM_ActionMask);

}  // namespace

BENCHMARK_MAIN();

// Ablation benches for the design choices called out in DESIGN.md:
//  1. routing heuristics: SWAP counts of the four routers across devices —
//     quantifies why the agent prefers SABRE on sparse topologies;
//  2. learned-policy episode lengths: how many actions the trained agent
//     needs to reach Done;
//  3. feature sensitivity: reward lost when observation features are
//     zeroed at inference time.

#include <cstdio>
#include <map>

#include "experiment_common.hpp"
#include "features/features.hpp"
#include "passes/layout/layout.hpp"
#include "passes/routing/routing.hpp"
#include "passes/synthesis/basis_translator.hpp"

namespace {

using namespace qrc;
using namespace qrc::bench_harness;

void ablate_routing() {
  std::printf("== Ablation 1: routing heuristics (total SWAPs inserted) ==\n");
  const device::DeviceId targets[] = {device::DeviceId::kIbmqMontreal,
                                      device::DeviceId::kIbmqWashington,
                                      device::DeviceId::kRigettiAspenM2};
  const passes::RoutingKind routers[] = {
      passes::RoutingKind::kBasicSwap, passes::RoutingKind::kStochasticSwap,
      passes::RoutingKind::kSabreSwap, passes::RoutingKind::kTketRouting};

  std::printf("%-18s %12s %14s %12s %12s\n", "device", "BasicSwap",
              "StochasticSwap", "SabreSwap", "TketRouting");
  for (const auto id : targets) {
    const auto& dev = device::get_device(id);
    std::map<passes::RoutingKind, int> totals;
    for (const auto family :
         {bench::BenchmarkFamily::kQft, bench::BenchmarkFamily::kQaoa,
          bench::BenchmarkFamily::kPortfolioQaoa,
          bench::BenchmarkFamily::kSu2Random}) {
      for (const int n : {8, 12, 16}) {
        auto circuit = bench::make_benchmark(family, n, 1);
        passes::PassContext ctx;
        ctx.device = &dev;
        const passes::BasisTranslator translator;
        (void)translator.run(circuit, ctx);
        const auto layout = passes::compute_layout(
            passes::LayoutKind::kSabre, circuit, dev, 3);
        const auto placed = passes::apply_layout(circuit, layout, dev);
        for (const auto router : routers) {
          totals[router] += passes::route(router, placed, dev, 3).swap_count;
        }
      }
    }
    std::printf("%-18s %12d %14d %12d %12d\n", dev.name().c_str(),
                totals[passes::RoutingKind::kBasicSwap],
                totals[passes::RoutingKind::kStochasticSwap],
                totals[passes::RoutingKind::kSabreSwap],
                totals[passes::RoutingKind::kTketRouting]);
  }
  std::printf("(12 circuits per device: qft/qaoa/portfolioqaoa/su2random at "
              "8/12/16 qubits)\n\n");
}

void ablate_episode_lengths_and_features() {
  auto corpus = bench::benchmark_suite(2, 16, 60);
  const auto predictor =
      train_model(reward::RewardKind::kFidelity, corpus, /*seed=*/31);

  std::printf("\n== Ablation 2: learned-policy episode lengths ==\n");
  std::map<int, int> length_histogram;
  int fallbacks = 0;
  double mean_len = 0.0;
  for (const auto& circuit : corpus) {
    const auto result = predictor.compile(circuit);
    const int len = static_cast<int>(result.action_trace.size());
    ++length_histogram[len];
    mean_len += len;
    fallbacks += result.used_fallback ? 1 : 0;
  }
  mean_len /= static_cast<double>(corpus.size());
  for (const auto& [len, count] : length_histogram) {
    std::printf("  %2d actions: %s\n", len,
                std::string(static_cast<std::size_t>(count), '#').c_str());
  }
  std::printf("  mean %.1f actions/episode, %d fallbacks of %zu\n", mean_len,
              fallbacks, corpus.size());

  std::printf("\n== Ablation 3: observation-feature sensitivity ==\n");
  std::printf("(mean fidelity reward when a feature is zeroed at inference)\n");
  static const char* kFeatureNames[features::kNumFeatures] = {
      "num_qubits",    "depth",       "program_comm", "critical_depth",
      "entanglement",  "parallelism", "liveness"};
  std::printf("  %-16s %12s\n", "zeroed feature", "mean reward");
  // Intact run first.
  double intact = 0.0;
  for (const auto& circuit : corpus) {
    intact += predictor.compile(circuit).reward;
  }
  intact /= static_cast<double>(corpus.size());
  std::printf("  %-16s %12.4f\n", "(none)", intact);
  for (int f = 0; f < features::kNumFeatures; ++f) {
    double total = 0.0;
    for (const auto& circuit : corpus) {
      total += predictor.compile(circuit, {.masked_feature = f}).reward;
    }
    std::printf("  %-16s %12.4f\n", kFeatureNames[f],
                total / static_cast<double>(corpus.size()));
  }
}

}  // namespace

int main() {
  ablate_routing();
  ablate_episode_lengths_and_features();
  return 0;
}

#include "inputs.hpp"

#include <algorithm>

#include "ir/qasm.hpp"

namespace perfbench {

namespace {

constexpr std::uint64_t kTrainingSeed = 20230;
constexpr int kTrainingCircuits = 200;
constexpr int kMinWidth = 2;
constexpr int kMaxWidth = 20;

qrc::bench::BenchmarkFamily draw_family(std::mt19937_64& rng) {
  const auto& families = qrc::bench::all_families();
  return families[rng() % families.size()];
}

int draw_width(std::mt19937_64& rng, int lo, int hi) {
  return lo + static_cast<int>(rng() % static_cast<std::uint64_t>(hi - lo + 1));
}

}  // namespace

qrc::ir::Circuit build_circuit(const CircuitSpec& spec) {
  return qrc::bench::make_benchmark(spec.family, spec.width,
                                    spec.instance_seed);
}

std::vector<CircuitSpec> training_draw() {
  std::mt19937_64 rng(kTrainingSeed);
  std::vector<CircuitSpec> out;
  for (int i = 0; i < kTrainingCircuits; ++i) {
    CircuitSpec spec;
    spec.family = draw_family(rng);
    spec.width = draw_width(rng, kMinWidth, kMaxWidth);
    spec.instance_seed = rng();
    out.push_back(spec);
  }
  return out;
}

std::vector<CircuitSpec> corpus_draw(std::uint64_t seed) {
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ULL + 1);
  std::vector<CircuitSpec> out;
  for (const auto family : qrc::bench::all_families()) {
    for (int width = kMinWidth; width <= kMaxWidth; ++width) {
      out.push_back(CircuitSpec{family, width, rng()});
    }
  }
  std::shuffle(out.begin(), out.end(), rng);
  return out;
}

FreshStream::FreshStream(std::uint64_t seed)
    : rng_(seed * 0xD1B54A32D192ED03ULL + 7) {}

FreshCircuit FreshStream::next(int width) {
  for (;;) {
    FreshCircuit out;
    out.spec.family = draw_family(rng_);
    out.spec.width = width;
    out.spec.instance_seed = rng_();
    out.qasm = qrc::ir::to_qasm(build_circuit(out.spec));
    // The server compiles what it parses, so the parsed circuit is the
    // reference input, and its canonical key is what the result cache sees.
    out.circuit = qrc::ir::from_qasm(out.qasm);
    if (seen_.insert(qrc::ir::canonical_key(out.circuit)).second) {
      return out;
    }
  }
}

}  // namespace perfbench

// Seeded input generation. Every circuit the benchmark feeds the program
// is drawn here from an explicit (family, width, instance seed) triple;
// the program under test only ever sees the generated circuits.
#pragma once

#include <cstdint>
#include <random>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench_suite/benchmarks.hpp"
#include "ir/circuit.hpp"

namespace perfbench {

struct CircuitSpec {
  qrc::bench::BenchmarkFamily family{};
  int width = 0;
  std::uint64_t instance_seed = 0;
};

[[nodiscard]] qrc::ir::Circuit build_circuit(const CircuitSpec& spec);

/// The training corpus: 200 independent draws over the 22 families and
/// widths 2-20 from a fixed seed (the same for every workload and run).
[[nodiscard]] std::vector<CircuitSpec> training_draw();

/// The corpus-offline input: every (family, width) cell of 22 families x
/// widths 2-20 exactly once, with the instance seeds and the order drawn
/// from `seed`. Stratifying over the grid keeps the seed-to-seed spread of
/// the corpus-level numbers down to what the instances themselves vary.
[[nodiscard]] std::vector<CircuitSpec> corpus_draw(std::uint64_t seed);

/// A fresh serve request: its OpenQASM text and the circuit parsed back
/// from that text (what the server compiles).
struct FreshCircuit {
  CircuitSpec spec;
  qrc::ir::Circuit circuit;
  std::string qasm;
};

/// Endless stream of circuits in which no circuit repeats (compared by
/// canonical key, as the result cache does). Families whose generators
/// ignore the instance seed (ghz, qft, dj, wstate, ...) yield one circuit
/// per width, so draws that would repeat one are redrawn.
class FreshStream {
 public:
  explicit FreshStream(std::uint64_t seed);
  /// A circuit of `width` qubits from a family drawn uniformly.
  [[nodiscard]] FreshCircuit next(int width);

 private:
  std::mt19937_64 rng_;
  std::unordered_set<std::string> seen_;
};

}  // namespace perfbench

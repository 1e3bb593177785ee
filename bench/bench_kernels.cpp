// Hot-kernel microbench: head-to-head throughput of the data-oriented
// kernel rewrites against their straightforward predecessors, on identical
// work.
//
//   - MLP dense forward: rows/sec of the scalar reference path
//     (Mlp::forward per row, portable strided kernel) vs the vectorized
//     batched path (Mlp::forward_batch, single thread — no pool, so the
//     delta is pure kernel).
//   - Tableau row ops: (gate, row) updates/sec of a byte-per-cell
//     vector<vector<bool>> reference vs the uint64_t bitplane Tableau on
//     the same gate sequence.
//   - Search child expansion: CompilationState copies/sec with the op
//     buffer eagerly deep-copied per child vs copy-on-write sharing.
//
// Knobs: QRC_KERNEL_MLP_ROUNDS (default 200 batches of 256 rows),
// QRC_KERNEL_TABLEAU_GATES (default 20000), QRC_KERNEL_EXPANSIONS
// (default 200000), QRC_SIMD to pin the MLP kernel. Results are printed
// and written to BENCH_kernels.json in the working directory.

#include <chrono>
#include <cstdio>
#include <random>
#include <span>
#include <vector>

#include "experiment_common.hpp"
#include "clifford/tableau.hpp"
#include "core/compilation_env.hpp"
#include "ir/circuit.hpp"
#include "rl/mlp.hpp"

namespace {

using namespace qrc;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ------------------------------------------------------------- MLP kernel --

struct MlpResult {
  double scalar_rows_per_sec = 0.0;
  double simd_rows_per_sec = 0.0;
  double speedup = 0.0;
};

MlpResult measure_mlp(int rounds) {
  const int obs = 64;
  const int out = 30;
  const int batch = 256;
  const rl::Mlp net({obs, 64, 64, out}, 17);
  std::mt19937_64 rng(23);
  std::uniform_real_distribution<double> uniform(-1.0, 1.0);
  std::vector<double> inputs(static_cast<std::size_t>(batch) * obs);
  for (double& v : inputs) {
    v = uniform(rng);
  }

  MlpResult res;
  double sink = 0.0;
  auto start = Clock::now();
  for (int r = 0; r < rounds; ++r) {
    for (int i = 0; i < batch; ++i) {
      const auto row = std::span<const double>(inputs).subspan(
          static_cast<std::size_t>(i) * obs, obs);
      sink += net.forward(row)[0];
    }
  }
  res.scalar_rows_per_sec =
      static_cast<double>(rounds) * batch / std::max(seconds_since(start),
                                                     1e-12);

  std::vector<double> outputs;
  start = Clock::now();
  for (int r = 0; r < rounds; ++r) {
    net.forward_batch(inputs, batch, outputs);
    sink += outputs[0];
  }
  res.simd_rows_per_sec =
      static_cast<double>(rounds) * batch / std::max(seconds_since(start),
                                                     1e-12);
  res.speedup = res.simd_rows_per_sec / res.scalar_rows_per_sec;
  if (sink == 12345.6789) {  // defeat dead-code elimination
    std::printf("#\n");
  }
  return res;
}

// --------------------------------------------------------- tableau kernel --

/// Byte-per-cell stabilizer tableau with the per-row update loops the
/// library used before the bitplane layout — the baseline side of the
/// head-to-head.
struct ByteTableau {
  int n;
  std::vector<std::vector<bool>> x, z;
  std::vector<bool> r;

  explicit ByteTableau(int num_qubits) : n(num_qubits) {
    const auto rows = static_cast<std::size_t>(2 * n);
    x.assign(rows, std::vector<bool>(static_cast<std::size_t>(n), false));
    z.assign(rows, std::vector<bool>(static_cast<std::size_t>(n), false));
    r.assign(rows, false);
    for (int i = 0; i < n; ++i) {
      x[static_cast<std::size_t>(i)][static_cast<std::size_t>(i)] = true;
      z[static_cast<std::size_t>(n + i)][static_cast<std::size_t>(i)] = true;
    }
  }

  void h(int q) {
    const auto c = static_cast<std::size_t>(q);
    for (std::size_t row = 0; row < x.size(); ++row) {
      const bool xv = x[row][c];
      const bool zv = z[row][c];
      r[row] = r[row] ^ (xv && zv);
      x[row][c] = zv;
      z[row][c] = xv;
    }
  }
  void s(int q) {
    const auto c = static_cast<std::size_t>(q);
    for (std::size_t row = 0; row < x.size(); ++row) {
      const bool xv = x[row][c];
      const bool zv = z[row][c];
      r[row] = r[row] ^ (xv && zv);
      z[row][c] = zv ^ xv;
    }
  }
  void cx(int cq, int tq) {
    const auto cc = static_cast<std::size_t>(cq);
    const auto ct = static_cast<std::size_t>(tq);
    for (std::size_t row = 0; row < x.size(); ++row) {
      const bool xc = x[row][cc];
      const bool zc = z[row][cc];
      const bool xt = x[row][ct];
      const bool zt = z[row][ct];
      r[row] = r[row] ^ (xc && zt && (xt == zc));
      x[row][ct] = xt ^ xc;
      z[row][cc] = zc ^ zt;
    }
  }
};

struct TableauResult {
  double byte_row_ops_per_sec = 0.0;
  double bitplane_row_ops_per_sec = 0.0;
  double speedup = 0.0;
  bool agree = true;
};

TableauResult measure_tableau(int gates) {
  const int n = 64;  // 128 rows = 2 words per plane
  // Pre-draw the gate sequence so both sides replay identical work.
  struct Gate { int kind; int a; int b; };
  std::vector<Gate> seq(static_cast<std::size_t>(gates));
  std::mt19937_64 rng(4711);
  for (auto& g : seq) {
    g.kind = static_cast<int>(rng() % 3);
    g.a = static_cast<int>(rng() % n);
    g.b = static_cast<int>(rng() % n);
    if (g.b == g.a) {
      g.b = (g.a + 1) % n;
    }
  }

  TableauResult res;
  ByteTableau byte_t(n);
  auto start = Clock::now();
  for (const auto& g : seq) {
    switch (g.kind) {
      case 0: byte_t.h(g.a); break;
      case 1: byte_t.s(g.a); break;
      default: byte_t.cx(g.a, g.b); break;
    }
  }
  const double byte_s = seconds_since(start);

  clifford::Tableau bit_t(n);
  start = Clock::now();
  for (const auto& g : seq) {
    switch (g.kind) {
      case 0: bit_t.apply_h(g.a); break;
      case 1: bit_t.apply_s(g.a); break;
      default: bit_t.apply_cx(g.a, g.b); break;
    }
  }
  const double bit_s = seconds_since(start);

  // Both sides must have computed the same tableau — a benchmark of a
  // wrong kernel is worthless.
  for (int row = 0; row < 2 * n && res.agree; ++row) {
    res.agree = bit_t.r(row) == byte_t.r[static_cast<std::size_t>(row)];
    for (int col = 0; col < n && res.agree; ++col) {
      res.agree =
          bit_t.x(row, col) == byte_t.x[static_cast<std::size_t>(row)]
                                       [static_cast<std::size_t>(col)] &&
          bit_t.z(row, col) == byte_t.z[static_cast<std::size_t>(row)]
                                       [static_cast<std::size_t>(col)];
    }
  }

  const double row_ops = static_cast<double>(gates) * 2.0 * n;
  res.byte_row_ops_per_sec = row_ops / std::max(byte_s, 1e-12);
  res.bitplane_row_ops_per_sec = row_ops / std::max(bit_s, 1e-12);
  res.speedup = res.bitplane_row_ops_per_sec / res.byte_row_ops_per_sec;
  return res;
}

// -------------------------------------------------------- child expansion --

struct ExpandResult {
  double deepcopy_per_sec = 0.0;
  double cow_per_sec = 0.0;
  double speedup = 0.0;
};

ExpandResult measure_expansion(int expansions) {
  // A routed-scale circuit: expansion cost is dominated by the op list.
  ir::Circuit big(16, "expand_probe");
  std::mt19937_64 rng(99);
  for (int i = 0; i < 2000; ++i) {
    const int q = static_cast<int>(rng() % 16);
    const int p = (q + 1 + static_cast<int>(rng() % 15)) % 16;
    switch (rng() % 3) {
      case 0: big.h(q); break;
      case 1: big.rz(0.25 * static_cast<double>(rng() % 8), q); break;
      default: big.cx(q, p); break;
    }
  }
  core::CompilationState parent;
  parent.circuit = big;

  ExpandResult res;
  std::size_t sink = 0;
  // Deep copy: what expansion cost before COW — every child materializes
  // a private op buffer.
  auto start = Clock::now();
  for (int i = 0; i < expansions; ++i) {
    core::CompilationState child = parent;
    sink += child.circuit.mutable_ops().size();
  }
  res.deepcopy_per_sec =
      static_cast<double>(expansions) / std::max(seconds_since(start), 1e-12);

  // COW: the copy every beam/MCTS candidate pays before its pass runs.
  start = Clock::now();
  for (int i = 0; i < expansions; ++i) {
    core::CompilationState child = parent;
    sink += child.circuit.size();
  }
  res.cow_per_sec =
      static_cast<double>(expansions) / std::max(seconds_since(start), 1e-12);
  res.speedup = res.cow_per_sec / res.deepcopy_per_sec;
  if (sink == 1) {
    std::printf("#\n");
  }
  return res;
}

}  // namespace

int main() {
  const int mlp_rounds = bench_harness::env_int("QRC_KERNEL_MLP_ROUNDS", 200);
  const int tableau_gates =
      bench_harness::env_int("QRC_KERNEL_TABLEAU_GATES", 20000);
  const int expansions =
      bench_harness::env_int("QRC_KERNEL_EXPANSIONS", 200000);

  std::printf("# hot-kernel microbench (mlp kernel: %s)\n",
              rl::simd_kernel_name());

  const MlpResult mlp = measure_mlp(mlp_rounds);
  std::printf("  mlp forward:   scalar %12.0f rows/sec, %s %12.0f rows/sec "
              "-> %.2fx\n",
              mlp.scalar_rows_per_sec, rl::simd_kernel_name(),
              mlp.simd_rows_per_sec, mlp.speedup);

  const TableauResult tab = measure_tableau(tableau_gates);
  std::printf("  tableau (n=64): byte %11.0f row-ops/sec, bitplane %11.0f "
              "row-ops/sec -> %.2fx%s\n",
              tab.byte_row_ops_per_sec, tab.bitplane_row_ops_per_sec,
              tab.speedup, tab.agree ? "" : "  [MISMATCH]");

  const ExpandResult exp = measure_expansion(expansions);
  std::printf("  expansion (2000 ops): deep-copy %10.0f children/sec, COW "
              "%10.0f children/sec -> %.1fx\n",
              exp.deepcopy_per_sec, exp.cow_per_sec, exp.speedup);

  std::FILE* json = std::fopen("BENCH_kernels.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "{\n");
    bench_harness::write_meta(json);
    std::fprintf(
        json,
        "  \"bench\": \"kernels\",\n"
        "  \"mlp_kernel\": \"%s\",\n"
        "  \"mlp_rows_per_sec_scalar\": %.1f,\n"
        "  \"mlp_rows_per_sec_simd\": %.1f,\n"
        "  \"mlp_simd_speedup\": %.3f,\n"
        "  \"tableau_row_ops_per_sec_byte\": %.1f,\n"
        "  \"tableau_row_ops_per_sec_bitplane\": %.1f,\n"
        "  \"tableau_bitplane_speedup\": %.3f,\n"
        "  \"tableau_kernels_agree\": %s,\n"
        "  \"expand_per_sec_deepcopy\": %.1f,\n"
        "  \"expand_per_sec_cow\": %.1f,\n"
        "  \"expansion_cow_speedup\": %.3f\n}\n",
        rl::simd_kernel_name(), mlp.scalar_rows_per_sec,
        mlp.simd_rows_per_sec, mlp.speedup, tab.byte_row_ops_per_sec,
        tab.bitplane_row_ops_per_sec, tab.speedup,
        tab.agree ? "true" : "false", exp.deepcopy_per_sec, exp.cow_per_sec,
        exp.speedup);
    std::fclose(json);
    std::printf("  results written to BENCH_kernels.json\n");
  }
  return tab.agree ? 0 : 1;
}

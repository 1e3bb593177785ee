// Golden equivalence tests for the data-oriented hot kernels: the
// vectorized MLP batched forward vs the scalar reference (bitwise, across
// ragged batch and width sizes), the bitplane tableau vs a bit-by-bit
// reference implementation (1-130 qubits, crossing word boundaries), and
// copy-on-write circuit storage vs eager deep copies on a
// search-expansion probe.

#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <vector>

#include "clifford/tableau.hpp"
#include "core/actions.hpp"
#include "core/compilation_env.hpp"
#include "ir/circuit.hpp"
#include "rl/mlp.hpp"
#include "rl/thread_pool.hpp"

namespace {

using qrc::clifford::Tableau;
using qrc::core::ActionRegistry;
using qrc::core::CompilationEnv;
using qrc::core::CompilationState;
using qrc::ir::Circuit;
using qrc::rl::Mlp;
using qrc::rl::WorkerPool;

// ------------------------------------------------ MLP scalar vs vectorized --

/// True if the two buffers are identical to the last bit (memcmp, not ==,
/// so the test cannot be fooled by -0.0 or quiet NaN).
bool bitwise_equal(const double* a, const double* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(double)) == 0;
}

std::vector<double> ragged_inputs(int batch, int width) {
  std::vector<double> in(static_cast<std::size_t>(batch) *
                         static_cast<std::size_t>(width));
  std::mt19937_64 rng(static_cast<std::uint64_t>(batch) * 977 +
                      static_cast<std::uint64_t>(width));
  std::normal_distribution<double> gauss(0.0, 1.0);
  for (double& v : in) {
    v = gauss(rng);
  }
  return in;
}

TEST(KernelMlpTest, BatchedForwardBitwiseMatchesScalarAcrossRaggedSizes) {
  // Output widths straddle the 4-lane AVX2 and 2-lane NEON vector widths;
  // batch sizes straddle the kRowBlock worker chunking.
  for (const std::vector<int> sizes :
       {std::vector<int>{7, 64, 30}, std::vector<int>{9, 65, 63, 1},
        std::vector<int>{5, 8, 9}}) {
    Mlp net(sizes, 1234);
    const int in_w = sizes.front();
    const int out_w = sizes.back();
    for (const int batch : {1, 7, 8, 9, 63, 64, 65}) {
      const auto inputs = ragged_inputs(batch, in_w);
      std::vector<double> batched;
      net.forward_batch(inputs, batch, batched);
      ASSERT_EQ(batched.size(), static_cast<std::size_t>(batch * out_w));
      for (int r = 0; r < batch; ++r) {
        const auto row = net.forward(std::span<const double>(
            inputs.data() + static_cast<std::size_t>(r) * in_w,
            static_cast<std::size_t>(in_w)));
        ASSERT_TRUE(bitwise_equal(
            row.data(), batched.data() + static_cast<std::size_t>(r) * out_w,
            static_cast<std::size_t>(out_w)))
            << "sizes.back()=" << out_w << " batch=" << batch << " row=" << r;
      }
    }
  }
}

TEST(KernelMlpTest, PooledForwardBitwiseMatchesUnpooled) {
  Mlp net({7, 64, 64, 30}, 99);
  WorkerPool pool(3);
  for (const int batch : {1, 7, 8, 9, 63, 64, 65}) {
    const auto inputs = ragged_inputs(batch, 7);
    std::vector<double> plain;
    std::vector<double> pooled;
    net.forward_batch(inputs, batch, plain);
    net.forward_batch(inputs, batch, pooled, &pool);
    ASSERT_EQ(plain.size(), pooled.size());
    EXPECT_TRUE(bitwise_equal(plain.data(), pooled.data(), plain.size()))
        << "batch=" << batch;
  }
}

TEST(KernelMlpTest, CachedBatchMatchesScalarCachedBitwise) {
  Mlp batched_net({6, 33, 17}, 7);
  Mlp scalar_net({6, 33, 17}, 7);
  const int batch = 9;
  const auto inputs = ragged_inputs(batch, 6);
  const auto& out = batched_net.forward_batch_cached(inputs, batch);
  for (int r = 0; r < batch; ++r) {
    const auto row = scalar_net.forward_cached(std::span<const double>(
        inputs.data() + static_cast<std::size_t>(r) * 6, 6));
    ASSERT_TRUE(bitwise_equal(
        row.data(), out.data() + static_cast<std::size_t>(r) * 17, 17))
        << "row=" << r;
  }
}

TEST(KernelMlpTest, StaysBitwiseAfterOptimizerMutatesWeightsInPlace) {
  // collect_parameters hands the optimizer raw pointers; a later in-place
  // weight update must be visible to the vectorized batched path (the
  // transposed weight cache cannot go stale).
  Mlp net({5, 16, 8}, 3);
  std::vector<double*> params;
  std::vector<double*> grads;
  net.collect_parameters(params, grads);
  std::mt19937_64 rng(17);
  std::normal_distribution<double> gauss(0.0, 0.1);
  for (double* p : params) {
    *p += gauss(rng);
  }
  const int batch = 13;
  const auto inputs = ragged_inputs(batch, 5);
  std::vector<double> batched;
  net.forward_batch(inputs, batch, batched);
  for (int r = 0; r < batch; ++r) {
    const auto row = net.forward(std::span<const double>(
        inputs.data() + static_cast<std::size_t>(r) * 5, 5));
    ASSERT_TRUE(bitwise_equal(
        row.data(), batched.data() + static_cast<std::size_t>(r) * 8, 8))
        << "row=" << r;
  }
}

// ------------------------------------------- tableau bitplane vs reference --

/// The pre-bitplane tableau: one bool per cell, the Aaronson-Gottesman
/// updates applied row by row, composites decomposed exactly like the
/// production code. Serves as the executable specification.
struct RefTableau {
  int n;
  std::vector<std::vector<bool>> x, z;
  std::vector<bool> r;

  explicit RefTableau(int num_qubits) : n(num_qubits) {
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
  void sdg(int q) { s(q); s(q); s(q); }
  void zg(int q) { s(q); s(q); }
  void xg(int q) { h(q); zg(q); h(q); }
  void yg(int q) { zg(q); xg(q); }
  void sx(int q) { h(q); s(q); h(q); }
  void sxdg(int q) { h(q); sdg(q); h(q); }
  void cz(int a, int b) { h(b); cx(a, b); h(b); }
  void cy(int c, int t) { sdg(t); cx(c, t); s(t); }
  void swap(int a, int b) { cx(a, b); cx(b, a); cx(a, b); }
  void iswap(int a, int b) { swap(a, b); cz(a, b); s(a); s(b); }
  void ecr(int a, int b) { cx(a, b); s(a); sx(b); xg(a); }
};

/// Applies the same randomly chosen primitive to both tableaus.
void random_gate(std::mt19937_64& rng, Tableau& t, RefTableau& ref) {
  const int kind = static_cast<int>(rng() % 14);
  const int a = static_cast<int>(rng() % static_cast<std::uint64_t>(ref.n));
  int b = a;
  if (ref.n > 1) {
    while (b == a) {
      b = static_cast<int>(rng() % static_cast<std::uint64_t>(ref.n));
    }
  }
  switch (kind) {
    case 0: t.apply_h(a); ref.h(a); break;
    case 1: t.apply_s(a); ref.s(a); break;
    case 2: t.apply_sdg(a); ref.sdg(a); break;
    case 3: t.apply_x(a); ref.xg(a); break;
    case 4: t.apply_y(a); ref.yg(a); break;
    case 5: t.apply_z(a); ref.zg(a); break;
    case 6: t.apply_sx(a); ref.sx(a); break;
    case 7: t.apply_sxdg(a); ref.sxdg(a); break;
    default:
      if (ref.n == 1) {  // no 2q gates on one qubit; fall back to H
        t.apply_h(a);
        ref.h(a);
        break;
      }
      switch (kind) {
        case 8: t.apply_cx(a, b); ref.cx(a, b); break;
        case 9: t.apply_cz(a, b); ref.cz(a, b); break;
        case 10: t.apply_cy(a, b); ref.cy(a, b); break;
        case 11: t.apply_swap(a, b); ref.swap(a, b); break;
        case 12: t.apply_iswap(a, b); ref.iswap(a, b); break;
        default: t.apply_ecr(a, b); ref.ecr(a, b); break;
      }
  }
}

void expect_tableaus_equal(const Tableau& t, const RefTableau& ref) {
  for (int row = 0; row < 2 * ref.n; ++row) {
    for (int col = 0; col < ref.n; ++col) {
      ASSERT_EQ(t.x(row, col),
                ref.x[static_cast<std::size_t>(row)]
                     [static_cast<std::size_t>(col)])
          << "x row=" << row << " col=" << col;
      ASSERT_EQ(t.z(row, col),
                ref.z[static_cast<std::size_t>(row)]
                     [static_cast<std::size_t>(col)])
          << "z row=" << row << " col=" << col;
    }
    ASSERT_EQ(t.r(row), ref.r[static_cast<std::size_t>(row)])
        << "r row=" << row;
  }
}

TEST(KernelTableauTest, BitplaneMatchesReferenceAcrossWordBoundaries) {
  // 2n rows cross the 64-bit word boundary at n = 32 (exactly one word),
  // 33 (spills into the second), 64/65 (two words exactly / spill) and
  // reach 130 qubits (> four words of rows, ~ the widest devices).
  for (const int n : {1, 2, 3, 5, 31, 32, 33, 63, 64, 65, 96, 127, 130}) {
    Tableau t(n);
    RefTableau ref(n);
    std::mt19937_64 rng(static_cast<std::uint64_t>(n) * 12345 + 7);
    const int gates = 60 + 4 * n;
    for (int g = 0; g < gates; ++g) {
      random_gate(rng, t, ref);
    }
    expect_tableaus_equal(t, ref);
  }
}

TEST(KernelTableauTest, WordViewsMatchBitAccessorsAndPadBitsStayZero) {
  const int n = 70;  // 140 rows: word 2 of 3 is partially used
  Tableau t(n);
  std::mt19937_64 rng(4242);
  RefTableau ref(n);
  for (int g = 0; g < 300; ++g) {
    random_gate(rng, t, ref);
  }
  ASSERT_EQ(t.num_words(), (2 * n + 63) / 64);
  const auto words = static_cast<std::size_t>(t.num_words());
  for (int col = 0; col < n; ++col) {
    const auto xp = t.x_plane(col);
    const auto zp = t.z_plane(col);
    ASSERT_EQ(xp.size(), words);
    for (int row = 0; row < 2 * n; ++row) {
      const auto w = static_cast<std::size_t>(row) / 64;
      const auto bitpos = static_cast<std::size_t>(row) % 64;
      EXPECT_EQ((xp[w] >> bitpos) & 1U, t.x(row, col) ? 1U : 0U);
      EXPECT_EQ((zp[w] >> bitpos) & 1U, t.z(row, col) ? 1U : 0U);
    }
    // Rows beyond 2n must stay zero so word-wide OR/popcount sweeps need
    // no masking.
    const std::uint64_t pad_mask = ~((std::uint64_t{1} << (2 * n % 64)) - 1);
    EXPECT_EQ(xp[words - 1] & pad_mask, 0U);
    EXPECT_EQ(zp[words - 1] & pad_mask, 0U);
  }
  const auto sgn = t.signs();
  for (int row = 0; row < 2 * n; ++row) {
    EXPECT_EQ((sgn[static_cast<std::size_t>(row) / 64] >>
               (static_cast<std::size_t>(row) % 64)) &
                  1U,
              t.r(row) ? 1U : 0U);
  }
}

TEST(KernelTableauTest, RoundTripAcrossWordBoundary) {
  // from_circuit(to_circuit(T)) == T at a width whose 2n spans 3 words.
  const int n = 65;
  Circuit c(n, "wide_clifford");
  std::mt19937_64 rng(9001);
  for (int g = 0; g < 400; ++g) {
    const int q = static_cast<int>(rng() % n);
    int p = static_cast<int>(rng() % n);
    switch (rng() % 4) {
      case 0: c.h(q); break;
      case 1: c.s(q); break;
      case 2: c.sdg(q); break;
      default:
        while (p == q) {
          p = static_cast<int>(rng() % n);
        }
        c.cx(q, p);
    }
  }
  const auto t = Tableau::from_circuit(c);
  ASSERT_TRUE(t.has_value());
  const auto redone = Tableau::from_circuit(t->to_circuit());
  ASSERT_TRUE(redone.has_value());
  EXPECT_TRUE(*t == *redone);
}

// ----------------------------------------------------------- COW circuits --

TEST(KernelCowTest, CopySharesUntilMutation) {
  Circuit base(3, "base");
  base.h(0);
  base.cx(0, 1);
  base.cx(1, 2);

  Circuit copy = base;
  EXPECT_TRUE(copy.shares_ops_with(base));
  EXPECT_EQ(copy, base);

  copy.h(2);  // first mutation materializes a private buffer
  EXPECT_FALSE(copy.shares_ops_with(base));
  EXPECT_EQ(base.size(), 3u);
  EXPECT_EQ(copy.size(), 4u);
  EXPECT_EQ(base.ops()[2].qubit(0), 1);  // parent untouched

  Circuit again = base;
  (void)again.ops();  // read access must not materialize
  EXPECT_TRUE(again.shares_ops_with(base));
  (void)again.mutable_ops();
  EXPECT_FALSE(again.shares_ops_with(base));
  EXPECT_EQ(again, base);  // same content, private buffer
}

TEST(KernelCowTest, RemoveOpsLeavesSharedParentIntact) {
  Circuit base(2, "b");
  base.h(0);
  base.x(1);
  base.cx(0, 1);
  Circuit copy = base;
  copy.remove_ops({false, true, false});
  EXPECT_EQ(base.size(), 3u);
  EXPECT_EQ(copy.size(), 2u);
  EXPECT_FALSE(copy.shares_ops_with(base));
}

TEST(KernelCowTest, SearchProbeMatchesEagerDeepCopy) {
  // Expansion probe: step every valid action once via peek_step from a COW
  // state and from a state whose circuit was eagerly materialized into a
  // private buffer first. The traces must match op-for-op — COW may only
  // change *when* the buffer is copied, never what any pass observes.
  const auto& registry = ActionRegistry::instance();
  Circuit c(4, "probe");
  c.h(0);
  c.cx(0, 1);
  c.cx(1, 2);
  c.cx(2, 3);
  c.t(3);
  c.measure_all();

  CompilationState cow_state;
  cow_state.circuit = c;
  CompilationState eager_state;
  eager_state.circuit = c;
  (void)eager_state.circuit.mutable_ops();  // force a private buffer

  int depths_probed = 0;
  for (int depth = 0; depth < 6; ++depth) {
    const auto mask = registry.mask(cow_state);
    int chosen = -1;
    for (int a = 0; a < registry.size(); ++a) {
      if (!mask[static_cast<std::size_t>(a)]) {
        continue;
      }
      const auto cow_child = CompilationEnv::peek_step(cow_state, a, 77);
      CompilationState eager_in = eager_state;
      (void)eager_in.circuit.mutable_ops();
      const auto eager_child = CompilationEnv::peek_step(eager_in, a, 77);
      ASSERT_EQ(cow_child.circuit, eager_child.circuit)
          << "depth=" << depth << " action=" << registry.at(a).name();
      if (chosen < 0) {
        chosen = a;
      }
    }
    if (chosen < 0) {
      break;  // terminal: every action masked off
    }
    ++depths_probed;
    cow_state = CompilationEnv::peek_step(cow_state, chosen, 77);
    eager_state = CompilationEnv::peek_step(eager_state, chosen, 77);
    (void)eager_state.circuit.mutable_ops();
  }
  EXPECT_GE(depths_probed, 3);  // the probe must exercise real expansions
}

TEST(KernelCowTest, PeekStepOfCircuitPreservingActionSharesBuffer) {
  // Choosing a platform rewrites MDP bookkeeping but not the circuit: the
  // child must still share the parent's op buffer (the whole point of COW
  // node expansion).
  const auto& registry = ActionRegistry::instance();
  CompilationState state;
  Circuit c(3, "share");
  c.h(0);
  c.cx(0, 1);
  c.cx(1, 2);
  state.circuit = c;
  const int platform = registry.index_of("platform_ibm");
  const auto child = CompilationEnv::peek_step(state, platform, 1);
  EXPECT_TRUE(child.circuit.shares_ops_with(state.circuit));
}

}  // namespace

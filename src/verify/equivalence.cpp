#include "verify/equivalence.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <set>
#include <stdexcept>

#include "clifford/tableau.hpp"
#include "ir/gate.hpp"
#include "ir/sim.hpp"
#include "obs/stage.hpp"
#include "verify/sparse_state.hpp"

namespace qrc::verify {

namespace {

using ir::Circuit;
using ir::GateKind;
using ir::Operation;
using ir::Statevector;
using la::cplx;

/// Hard ceiling of the dense simulator (Statevector rejects > 24 qubits;
/// the Choi miter doubles the width).
constexpr int kStatevectorCap = 24;

/// Amplitude tolerance of the dense and sparse simulation tiers.
constexpr double kAtol = 1e-6;

/// A circuit reduced to its unitary part, plus what was stripped.
struct Stripped {
  Circuit circuit;         ///< unitary ops only, global phase kept
  bool has_reset = false;  ///< reset is non-unitary: tiers cannot run
  /// A measurement is followed by suffix gates that change what it
  /// records (per measures_deferrable): stripping it would change
  /// semantics, so the tiers cannot run soundly.
  bool has_undeferrable_measure = false;
  std::vector<bool> measured;  ///< per-qubit: at least one measure op
};

/// Can every measurement be deferred to the end of the circuit without
/// changing what it records? A measure of wire w at time t records the
/// observable Z_w conjugated through the remaining suffix (Heisenberg
/// picture: measuring Z_w at t equals measuring R Z_w R^dag at the end).
/// It is deferrable iff that pull-through lands on a single positive Z —
/// exactly what a routing swap network does (in any native decomposition)
/// when it moves other qubits through an already-measured wire. The
/// conjugation is tracked exactly with the stabilizer tableau; a
/// non-Clifford suffix gate is tolerated only while it is diagonal and
/// the tracked Pauli has no X part on its wires (then they commute). An
/// h-after-measure — a genuine mid-circuit measurement — fails.
bool measures_deferrable(const Circuit& c) {
  const auto& ops = c.ops();
  const int k = c.num_qubits();
  for (std::size_t t = 0; t < ops.size(); ++t) {
    if (ops[t].kind() != GateKind::kMeasure) {
      continue;
    }
    const int w = ops[t].qubit(0);
    clifford::Tableau tableau(k);
    const int row = k + w;  // stabilizer row w tracks R Z_w R^dag
    bool decided = true;
    for (std::size_t j = t + 1; j < ops.size() && decided; ++j) {
      const Operation& op = ops[j];
      if (op.kind() == GateKind::kMeasure ||
          op.kind() == GateKind::kBarrier) {
        continue;
      }
      // Conjugation acts on each tableau row independently, so ops that
      // touch neither the X nor the Z part of the tracked Pauli leave it
      // unchanged and may be skipped — only *our* row is ever read.
      bool x_overlap = false;
      bool any_overlap = false;
      for (int i = 0; i < op.num_qubits(); ++i) {
        x_overlap = x_overlap || tableau.x(row, op.qubit(i));
        any_overlap = any_overlap || tableau.x(row, op.qubit(i)) ||
                      tableau.z(row, op.qubit(i));
      }
      if (!any_overlap || (op.info().is_diagonal && !x_overlap)) {
        continue;  // disjoint, or diagonal against a Z-type Pauli
      }
      decided = tableau.apply(op);  // false: non-Clifford that matters
    }
    if (!decided) {
      return false;
    }
    int z_count = 0;
    for (int col = 0; col < k; ++col) {
      if (tableau.x(row, col)) {
        return false;  // the record is no longer a basis readout
      }
      z_count += tableau.z(row, col) ? 1 : 0;
    }
    if (z_count != 1 || tableau.r(row)) {
      return false;  // a parity or an inverted readout, not a wire
    }
  }
  return true;
}

Stripped strip_non_unitary(const Circuit& c) {
  Stripped out;
  out.circuit = Circuit(c.num_qubits(), c.name());
  out.circuit.add_global_phase(c.global_phase());
  out.measured.assign(static_cast<std::size_t>(std::max(1, c.num_qubits())),
                      false);
  bool gate_after_measure = false;
  for (const Operation& op : c.ops()) {
    switch (op.kind()) {
      case GateKind::kMeasure:
        out.measured[static_cast<std::size_t>(op.qubit(0))] = true;
        continue;
      case GateKind::kBarrier:
        continue;
      case GateKind::kReset:
        out.has_reset = true;
        continue;
      default:
        for (int i = 0; i < op.num_qubits(); ++i) {
          if (out.measured[static_cast<std::size_t>(op.qubit(i))]) {
            gate_after_measure = true;
          }
        }
        out.circuit.append(op);
    }
  }
  if (gate_after_measure) {
    out.has_undeferrable_measure = !measures_deferrable(c);
  }
  return out;
}

/// True when the stripped circuits admit a sound unitary comparison at
/// all; fills `result` with the kUnknown verdict otherwise.
bool strippable(const Stripped& a, const Stripped& b, VerifyResult* result) {
  if (a.has_reset || b.has_reset) {
    *result = VerifyResult{Verdict::kUnknown, Method::kNone, 0.0, 0,
                           "circuit contains reset: no sound unitary tier"};
    return false;
  }
  if (a.has_undeferrable_measure || b.has_undeferrable_measure) {
    *result = VerifyResult{
        Verdict::kUnknown, Method::kNone, 0.0, 0,
        "circuit measures mid-circuit (a later gate changes what the "
        "measurement records): stripping would change semantics"};
    return false;
  }
  return true;
}

/// True if every qubit touched by a unitary op is also measured — the
/// precondition for distribution-level (measurement-tolerant) acceptance:
/// a diagonal phase on an unmeasured qubit is observable downstream, one
/// on a measured qubit is not.
bool measures_cover_active(const Stripped& s) {
  for (const Operation& op : s.circuit.ops()) {
    for (int i = 0; i < op.num_qubits(); ++i) {
      if (!s.measured[static_cast<std::size_t>(op.qubit(i))]) {
        return false;
      }
    }
  }
  return true;
}

/// Appends SWAP gates to `c` realising ir::permute_qubits(. , perm):
/// qubit q of the incoming state ends up at perm[q].
void append_permutation_as_swaps(Circuit& c, std::vector<int> perm) {
  for (int i = 0; i < static_cast<int>(perm.size()); ++i) {
    while (perm[static_cast<std::size_t>(i)] != i) {
      const int j = perm[static_cast<std::size_t>(i)];
      c.swap(i, j);
      std::swap(perm[static_cast<std::size_t>(i)],
                perm[static_cast<std::size_t>(j)]);
    }
  }
}

/// Widens `c` to `n` qubits (identity on the new wires).
Circuit widened(const Circuit& c, int n) {
  Circuit out(n, c.name());
  out.extend(c);
  return out;
}

la::Mat2 conj2(const la::Mat2& u) {
  la::Mat2 out;
  for (int r = 0; r < 2; ++r) {
    for (int col = 0; col < 2; ++col) {
      out(r, col) = std::conj(u(r, col));
    }
  }
  return out;
}

la::Mat4 conj4(const la::Mat4& u) {
  la::Mat4 out;
  for (int r = 0; r < 4; ++r) {
    for (int col = 0; col < 4; ++col) {
      out(r, col) = std::conj(u(r, col));
    }
  }
  return out;
}

/// Right-multiplies the miter by op^dagger: on the Choi state
/// vec(M) = sum_ij M_ij |j>_col |i>_row this is exactly applying the
/// element-wise conjugated gate on the column register (qubits shifted by
/// n). The three-qubit vocabulary (CCX/CCZ/CSWAP) is real, so the
/// conjugate is the gate itself.
void apply_right_dagger(Statevector& s, const Operation& op, int n) {
  switch (op.num_qubits()) {
    case 1:
      s.apply_matrix(conj2(ir::gate_matrix_1q(op.kind(), op.params())),
                     op.qubit(0) + n);
      return;
    case 2:
      s.apply_matrix(conj4(ir::gate_matrix_2q(op.kind(), op.params())),
                     op.qubit(0) + n, op.qubit(1) + n);
      return;
    default: {
      std::array<int, 3> qs{};
      for (int i = 0; i < op.num_qubits(); ++i) {
        qs[static_cast<std::size_t>(i)] = op.qubit(i) + n;
      }
      s.apply(Operation(op.kind(),
                        {qs.data(), static_cast<std::size_t>(op.num_qubits())},
                        op.params()));
      return;
    }
  }
}

/// |tr(M)| / 2^n of the miter encoded in the Choi state (overlap with the
/// maximally entangled state; 1 iff M is the identity up to global phase).
double miter_trace_overlap(const Statevector& s, int n) {
  const auto& amp = s.amplitudes();
  cplx diag_sum = 0.0;
  for (std::size_t i = 0; i < (std::size_t{1} << n); ++i) {
    diag_sum += amp[(i << n) | i];
  }
  // Each diagonal amplitude of vec(I)/2^{n/2} is 2^{-n/2}; the overlap
  // with the initial Choi state is 2^{-n/2} * sum.
  return std::abs(diag_sum) * std::pow(2.0, -0.5 * static_cast<double>(n));
}

/// Alternating miter: interleaves gates of `a` (left side of G G'^dagger)
/// and conjugated gates of `b` (right side) proportionally onto the Choi
/// state of 2n qubits. Exact up to global phase. `divergence` receives the
/// fraction of gates after which the running trace overlap first left 1
/// (diagnostic only; a mid-run dip is not by itself a refutation).
bool alternating_miter_equivalent(const Circuit& a, const Circuit& b, int n,
                                  double atol, double* divergence) {
  Statevector s(2 * n);
  auto& amp = s.mutable_amplitudes();
  std::fill(amp.begin(), amp.end(), cplx{0.0, 0.0});
  const double init = std::pow(2.0, -0.5 * static_cast<double>(n));
  for (std::size_t i = 0; i < (std::size_t{1} << n); ++i) {
    amp[(i << n) | i] = init;
  }

  const auto& ga = a.ops();
  const auto& gb = b.ops();
  const std::size_t na = ga.size();
  const std::size_t nb = gb.size();
  const std::size_t total = na + nb;
  const std::size_t checkpoint = std::max<std::size_t>(1, total / 8);
  std::size_t ia = 0;
  std::size_t ib = 0;
  *divergence = -1.0;
  while (ia < na || ib < nb) {
    // Proportional scheduling: advance whichever side is behind in
    // relative progress, so the partial product stays close to identity
    // for compiler-shaped pairs (QCEC's "proportional" strategy).
    const bool left = ib >= nb ||
                      (ia < na && (ia + 1) * nb <= (ib + 1) * na);
    if (left) {
      s.apply(ga[ia++]);
    } else {
      apply_right_dagger(s, gb[ib++], n);
    }
    const std::size_t done = ia + ib;
    if (*divergence < 0.0 && done % checkpoint == 0 && done != total &&
        miter_trace_overlap(s, n) < 1.0 - 1e-3) {
      *divergence = static_cast<double>(done) / static_cast<double>(total);
    }
  }
  return std::abs(miter_trace_overlap(s, n) - 1.0) <= atol;
}

/// One layout-aware comparison instance, after compaction: `logical` on n
/// qubits, `physical` on k >= n qubits, with logical qubit l placed at
/// init[l] on input and expected at final[l] on output (ancillas |0> in,
/// |0> out).
struct MappedJob {
  const Circuit* logical = nullptr;
  const Circuit* physical = nullptr;
  int k = 0;
  std::vector<int> init;
  std::vector<int> final;
};

/// Pushes `input` (logical width) through both sides of the job and
/// compares. `magnitudes_only` compares per-basis-state amplitude moduli
/// (distribution level: tolerant of diagonal phases before a measure-all);
/// otherwise requires overlap of modulus 1. `phase` carries the reference
/// global phase across calls when strict (ignored when null or when
/// magnitudes_only).
bool outputs_match(const MappedJob& job, const Statevector& input,
                   double atol, bool magnitudes_only, cplx* phase) {
  Statevector actual = embed_state(input, job.k, job.init);
  actual.apply(*job.physical);
  Statevector expected_logical = input;
  expected_logical.apply(*job.logical);
  const Statevector expected =
      embed_state(expected_logical, job.k, job.final);
  if (magnitudes_only) {
    const auto& ea = expected.amplitudes();
    const auto& aa = actual.amplitudes();
    for (std::size_t i = 0; i < ea.size(); ++i) {
      if (std::abs(std::abs(ea[i]) - std::abs(aa[i])) > 10.0 * atol) {
        return false;
      }
    }
    return true;
  }
  const cplx overlap = expected.inner_product(actual);
  if (std::abs(std::abs(overlap) - 1.0) > atol) {
    return false;
  }
  if (phase != nullptr) {
    if (std::abs(*phase) < 0.5) {
      *phase = overlap;  // first sample fixes the global phase
    } else if (std::abs(overlap - *phase) > 10.0 * atol) {
      return false;  // phase must be global, not input-dependent
    }
  }
  return true;
}

/// Exhaustive basis sweep: all 2^n logical computational basis states,
/// early exit on the first divergent column. Exact (strict mode) for the
/// full behaviour on the |0>-ancilla subspace.
bool basis_sweep_equivalent(const MappedJob& job, double atol,
                            bool magnitudes_only, std::size_t* bad_column) {
  const int n = job.logical->num_qubits();
  cplx phase{0.0, 0.0};
  for (std::size_t col = 0; col < (std::size_t{1} << n); ++col) {
    Statevector input(n);
    auto& amp = input.mutable_amplitudes();
    std::fill(amp.begin(), amp.end(), cplx{0.0, 0.0});
    amp[col] = 1.0;
    if (!outputs_match(job, input, atol, magnitudes_only,
                       magnitudes_only ? nullptr : &phase)) {
      *bad_column = col;
      return false;
    }
  }
  return true;
}

/// Sparse random-stimuli sweep for wide mapped circuits: the logical
/// stimulus (dense, 2^n amplitudes) is embedded among the |0> ancillas and
/// pushed through the physical circuit in sparse form — O(gates * support)
/// instead of O(gates * 2^k). Sets *overflowed (instead of deciding) when
/// the circuit genuinely entangles too many wires for the support cap.
bool sparse_stimuli_equivalent(const MappedJob& job, int count,
                               std::uint64_t seed, double atol,
                               bool magnitudes_only, int* bad_trial,
                               bool* overflowed) {
  const int n = job.logical->num_qubits();
  cplx phase{0.0, 0.0};
  for (int t = 0; t < count; ++t) {
    const Statevector input =
        Statevector::random(n, seed + static_cast<std::uint64_t>(t));
    Statevector expected = input;
    expected.apply(*job.logical);
    SparseState actual(job.k);
    try {
      actual.load_embedded(input.amplitudes(), job.init);
      actual.apply(*job.physical);
    } catch (const SparseSupportOverflow&) {
      *overflowed = true;
      return false;
    }
    if (magnitudes_only) {
      if (!actual.magnitudes_match_embedded(expected.amplitudes(),
                                            job.final, 10.0 * atol)) {
        *bad_trial = t;
        return false;
      }
      continue;
    }
    const cplx overlap =
        actual.overlap_with_embedded(expected.amplitudes(), job.final);
    if (std::abs(std::abs(overlap) - 1.0) > atol) {
      *bad_trial = t;
      return false;
    }
    if (std::abs(phase) < 0.5) {
      phase = overlap;
    } else if (std::abs(overlap - phase) > 10.0 * atol) {
      *bad_trial = t;
      return false;
    }
  }
  return true;
}

/// Random-stimuli sweep: `count` shared Haar-ish random logical input
/// states, early exit on the first counterexample.
bool stimuli_equivalent(const MappedJob& job, int count, std::uint64_t seed,
                        double atol, bool magnitudes_only, int* bad_trial) {
  const int n = job.logical->num_qubits();
  cplx phase{0.0, 0.0};
  for (int t = 0; t < count; ++t) {
    const Statevector input =
        Statevector::random(n, seed + static_cast<std::uint64_t>(t));
    if (!outputs_match(job, input, atol, magnitudes_only,
                       magnitudes_only ? nullptr : &phase)) {
      *bad_trial = t;
      return false;
    }
  }
  return true;
}

/// Outcome of the Clifford inverse-Pauli-flow comparison.
enum class FlowMatch {
  kFull,             ///< strict unitary equivalence (up to global phase)
  kMeasurementOnly,  ///< Z-flow matches: identical measure-all statistics,
                     ///< but the X-flow differs (a diagonal gap)
  kMismatch,         ///< even the Z-flow differs
};

/// Any-width Clifford check through layouts, in the Heisenberg picture:
/// pulls each *output* observable back through the circuits
/// (tableau of the inverse circuit: row j of T(C^-1) is U^dag P_j U) and
/// compares against the logical pull-back placed at the initial layout.
///
///  - Z rows of every final-layout wire matching (support only on the
///    initial layout, equal signs) + every output-ancilla Z pulling back
///    to a +Z-string on input ancillas  ==> identical measure-all outcome
///    distributions for every input with |0> ancillas, exactly (diagonal
///    algebra is generated by Z-strings), and ancillas provably return to
///    |0>.
///  - X rows matching as well  ==> strict equivalence up to global phase
///    (all logical Pauli observables agree).
///
/// With no routing ancillas (k == n) the conditions are necessary too, so
/// a mismatch there is a definitive refutation; with ancillas they are
/// sufficient-only and the caller falls through to the dense tiers.
FlowMatch clifford_pauli_flow(const Circuit& logical,
                              const Circuit& physical_c, int k,
                              const std::vector<int>& init_c,
                              const std::vector<int>& fin_c) {
  const auto tl = clifford::Tableau::from_circuit(logical.inverse());
  const auto tp = clifford::Tableau::from_circuit(physical_c.inverse());
  if (!tl.has_value() || !tp.has_value()) {
    return FlowMatch::kMismatch;
  }
  const int n = logical.num_qubits();
  std::vector<bool> in_init(static_cast<std::size_t>(k), false);
  std::vector<bool> in_fin(static_cast<std::size_t>(k), false);
  std::vector<int> logical_at(static_cast<std::size_t>(k), -1);
  for (int l = 0; l < n; ++l) {
    in_init[static_cast<std::size_t>(init_c[static_cast<std::size_t>(l)])] =
        true;
    in_fin[static_cast<std::size_t>(fin_c[static_cast<std::size_t>(l)])] =
        true;
    logical_at[static_cast<std::size_t>(
        init_c[static_cast<std::size_t>(l)])] = l;
  }

  // One pulled-back output row of the physical circuit vs the remapped
  // logical pull-back.
  const auto row_matches = [&](int prow, int lrow) {
    if (tp->r(prow) != tl->r(lrow)) {
      return false;
    }
    for (int col = 0; col < k; ++col) {
      const int l = logical_at[static_cast<std::size_t>(col)];
      const bool want_x = l >= 0 && tl->x(lrow, l);
      const bool want_z = l >= 0 && tl->z(lrow, l);
      if (tp->x(prow, col) != want_x || tp->z(prow, col) != want_z) {
        return false;
      }
    }
    return true;
  };

  // Z-flow: logical outputs pull back to the logical Z pull-back at the
  // initial layout; ancilla outputs pull back to +Z on input ancillas.
  for (int l = 0; l < n; ++l) {
    if (!row_matches(k + fin_c[static_cast<std::size_t>(l)], n + l)) {
      return FlowMatch::kMismatch;
    }
  }
  // Ancilla condition, word-wide over the bitplane tableau: OR every x
  // plane (and the z planes of initial-layout columns) into per-row "any"
  // masks in one sweep, after which each ancilla row is a three-bit probe
  // (sign, any-X, any-Z-on-init) instead of a per-column bit scan.
  bool have_output_ancilla = false;
  for (int a = 0; a < k && !have_output_ancilla; ++a) {
    have_output_ancilla = !in_fin[static_cast<std::size_t>(a)];
  }
  if (have_output_ancilla) {
    const auto words = static_cast<std::size_t>(tp->num_words());
    std::vector<std::uint64_t> x_any(words, 0);
    std::vector<std::uint64_t> z_init_any(words, 0);
    for (int col = 0; col < k; ++col) {
      const auto xp = tp->x_plane(col);
      for (std::size_t w = 0; w < words; ++w) {
        x_any[w] |= xp[w];
      }
      if (in_init[static_cast<std::size_t>(col)]) {
        const auto zp = tp->z_plane(col);
        for (std::size_t w = 0; w < words; ++w) {
          z_init_any[w] |= zp[w];
        }
      }
    }
    const auto sgn = tp->signs();
    for (int a = 0; a < k; ++a) {
      if (in_fin[static_cast<std::size_t>(a)]) {
        continue;
      }
      const auto prow = static_cast<std::size_t>(k + a);
      const std::uint64_t probe =
          sgn[prow / 64] | x_any[prow / 64] | z_init_any[prow / 64];
      if ((probe >> (prow % 64)) & 1U) {
        return FlowMatch::kMismatch;
      }
    }
  }

  // X-flow upgrades the verdict from measurement-level to strict.
  for (int l = 0; l < n; ++l) {
    if (!row_matches(fin_c[static_cast<std::size_t>(l)], l)) {
      return FlowMatch::kMeasurementOnly;
    }
  }
  return FlowMatch::kFull;
}

VerifyResult make_result(Verdict verdict, Method method, double confidence,
                         int qubits, std::string detail) {
  VerifyResult out;
  out.verdict = verdict;
  out.method = method;
  out.confidence = confidence;
  out.checked_qubits = qubits;
  out.detail = std::move(detail);
  return out;
}

double sampling_confidence(int num_stimuli) {
  return 1.0 - std::pow(0.5, static_cast<double>(num_stimuli));
}

/// Wide statevectors are expensive (2^k amplitudes per gate): above 16
/// qubits the stimulus budget shrinks so a 21-qubit routed instance stays
/// decidable in seconds. The reported confidence shrinks with it.
int effective_stimuli(int k, const VerifyOptions& options) {
  return k <= 16 ? options.num_stimuli
                 : std::max(2, options.num_stimuli / 4);
}

void validate_layout(const std::vector<int>& layout, const char* what, int n,
                     int width) {
  if (static_cast<int>(layout.size()) != n) {
    throw std::invalid_argument(
        std::string("EquivalenceChecker: ") + what + " has " +
        std::to_string(layout.size()) + " entries for " + std::to_string(n) +
        " logical qubits");
  }
  std::set<int> seen;
  for (const int p : layout) {
    if (p < 0 || p >= width) {
      throw std::invalid_argument(std::string("EquivalenceChecker: ") +
                                  what + " entry " + std::to_string(p) +
                                  " outside the physical register");
    }
    if (!seen.insert(p).second) {
      throw std::invalid_argument(std::string("EquivalenceChecker: ") +
                                  what + " maps two logical qubits to " +
                                  std::to_string(p));
    }
  }
}

}  // namespace

std::string_view verdict_name(Verdict verdict) {
  switch (verdict) {
    case Verdict::kEquivalent:
      return "equivalent";
    case Verdict::kNotEquivalent:
      return "not_equivalent";
    case Verdict::kUnknown:
      return "unknown";
  }
  return "unknown";
}

std::string_view method_name(Method method) {
  switch (method) {
    case Method::kNone:
      return "none";
    case Method::kCliffordTableau:
      return "clifford_tableau";
    case Method::kAlternatingMiter:
      return "alternating_miter";
    case Method::kRandomStimuli:
      return "random_stimuli";
  }
  return "none";
}

EquivalenceChecker::EquivalenceChecker(VerifyOptions options)
    : options_(options) {
  if (options_.max_miter_qubits < 0 ||
      2 * options_.max_miter_qubits > kStatevectorCap) {
    throw std::invalid_argument(
        "EquivalenceChecker: max_miter_qubits must be in [0, 12]");
  }
  if (options_.max_stimuli_qubits < 0 ||
      options_.max_stimuli_qubits > kStatevectorCap) {
    throw std::invalid_argument(
        "EquivalenceChecker: max_stimuli_qubits must be in [0, 24]");
  }
  if (options_.num_stimuli < 1) {
    throw std::invalid_argument(
        "EquivalenceChecker: num_stimuli must be >= 1");
  }
}

VerifyResult EquivalenceChecker::check(
    const ir::Circuit& a, const ir::Circuit& b,
    const std::vector<int>& final_permutation) const {
  const Stripped sa = strip_non_unitary(a);
  const Stripped sb = strip_non_unitary(b);
  VerifyResult unsound;
  if (!strippable(sa, sb, &unsound)) {
    return unsound;
  }
  const int n = std::max(a.num_qubits(), b.num_qubits());
  std::vector<int> perm(final_permutation);
  for (int q = static_cast<int>(perm.size()); q < n; ++q) {
    perm.push_back(q);  // identity on untouched qubits
  }
  // A malformed permutation must fail loudly: a duplicate entry would spin
  // the swap synthesis forever, an out-of-range one would index past the
  // register. The identity extension is included so a prefix that collides
  // with it (e.g. {1} on 2 qubits) is caught too.
  validate_layout(perm, "final_permutation", n, n);
  const bool tolerant = options_.measurement_tolerant &&
                        measures_cover_active(sa) &&
                        measures_cover_active(sb);

  // The permuted-and-widened left side: a, then the permutation — equal to
  // b as a plain unitary iff a ~ b under the permutation convention.
  Circuit a_n = widened(sa.circuit, n);
  append_permutation_as_swaps(a_n, perm);
  const Circuit b_n = widened(sb.circuit, n);

  // ---- tier 1: Clifford Pauli flow (any width) --------------------------
  if (clifford::is_clifford_circuit(a_n) &&
      clifford::is_clifford_circuit(b_n)) {
    obs::Stage stage(obs::StageId::kVerifyClifford);
    std::vector<int> identity(static_cast<std::size_t>(n));
    std::iota(identity.begin(), identity.end(), 0);
    // Same width and no ancillas: the flow conditions are necessary and
    // sufficient, so every branch is a definitive verdict.
    switch (clifford_pauli_flow(a_n, b_n, n, identity, identity)) {
      case FlowMatch::kFull:
        return make_result(Verdict::kEquivalent, Method::kCliffordTableau,
                           1.0, n, "Pauli flow identical");
      case FlowMatch::kMeasurementOnly:
        if (tolerant) {
          return make_result(
              Verdict::kEquivalent, Method::kCliffordTableau, 1.0, n,
              "equivalent up to diagonal phases before measurement "
              "(exact at distribution level)");
        }
        return make_result(Verdict::kNotEquivalent, Method::kCliffordTableau,
                           1.0, n, "X Pauli flow differs (diagonal gap)");
      case FlowMatch::kMismatch:
        return make_result(Verdict::kNotEquivalent, Method::kCliffordTableau,
                           1.0, n, "Z Pauli flow differs");
    }
  }

  // Both sides widened to n: stimuli then cover the FULL joint space, so a
  // wider circuit that misbehaves on the extra wires' |1> subspace is
  // caught — "the narrower circuit acts as identity" is tested, not
  // assumed. The logical side is the widened a (no permutation swaps);
  // the permutation rides in the final placement.
  std::vector<int> identity_n(static_cast<std::size_t>(n));
  std::iota(identity_n.begin(), identity_n.end(), 0);
  const Circuit a_plain = widened(sa.circuit, n);
  const MappedJob job{&a_plain, &b_n, n, identity_n, perm};

  // ---- tier 2: alternating miter (exact, <= max_miter_qubits) -----------
  if (n <= options_.max_miter_qubits) {
    obs::Stage stage(obs::StageId::kVerifyMiter);
    double divergence = -1.0;
    if (alternating_miter_equivalent(a_n, b_n, n, kAtol,
                                     &divergence)) {
      return make_result(Verdict::kEquivalent, Method::kAlternatingMiter,
                         1.0, n, "miter trace test passed");
    }
    std::string where =
        divergence >= 0.0
            ? "miter diverged after " +
                  std::to_string(static_cast<int>(divergence * 100.0)) +
                  "% of gates"
            : "miter trace test failed";
    if (!tolerant) {
      return make_result(Verdict::kNotEquivalent, Method::kAlternatingMiter,
                         1.0, n, where);
    }
    std::size_t bad_column = 0;
    int bad_trial = 0;
    if (basis_sweep_equivalent(job, kAtol, /*magnitudes_only=*/true,
                               &bad_column) &&
        stimuli_equivalent(job, options_.num_stimuli, options_.seed,
                           kAtol, /*magnitudes_only=*/true,
                           &bad_trial)) {
      return make_result(
          Verdict::kEquivalent, Method::kAlternatingMiter,
          sampling_confidence(options_.num_stimuli), n,
          "equivalent up to diagonal phases before measurement");
    }
    return make_result(Verdict::kNotEquivalent, Method::kAlternatingMiter,
                       1.0, n, where + "; distribution recheck failed");
  }

  // ---- tier 3: random stimuli (w.h.p., <= max_stimuli_qubits) -----------
  if (n <= options_.max_stimuli_qubits) {
    obs::Stage stage(obs::StageId::kVerifyStimuli);
    const int stimuli = effective_stimuli(n, options_);
    int bad_trial = 0;
    if (stimuli_equivalent(job, stimuli, options_.seed, kAtol,
                           /*magnitudes_only=*/false, &bad_trial)) {
      return make_result(Verdict::kEquivalent, Method::kRandomStimuli,
                         sampling_confidence(stimuli), n,
                         std::to_string(stimuli) +
                             " random stimuli agreed");
    }
    if (tolerant &&
        stimuli_equivalent(job, stimuli, options_.seed, kAtol,
                           /*magnitudes_only=*/true, &bad_trial)) {
      return make_result(
          Verdict::kEquivalent, Method::kRandomStimuli,
          sampling_confidence(stimuli), n,
          "equivalent up to diagonal phases before measurement");
    }
    return make_result(Verdict::kNotEquivalent, Method::kRandomStimuli, 1.0,
                       n,
                       "counterexample stimulus #" +
                           std::to_string(bad_trial));
  }

  return make_result(Verdict::kUnknown, Method::kNone, 0.0, n,
                     "non-Clifford pair wider than every dense tier (" +
                         std::to_string(n) + " qubits)");
}

VerifyResult EquivalenceChecker::check_mapped(
    const ir::Circuit& logical, const ir::Circuit& physical,
    const std::vector<int>& initial_layout,
    const std::vector<int>& final_layout) const {
  const int n = logical.num_qubits();
  const int width = physical.num_qubits();
  if (width < n) {
    throw std::invalid_argument(
        "EquivalenceChecker::check_mapped: physical circuit narrower than "
        "the logical one");
  }
  std::vector<int> init(initial_layout);
  if (init.empty()) {
    init.resize(static_cast<std::size_t>(n));
    std::iota(init.begin(), init.end(), 0);
  }
  std::vector<int> fin(final_layout.empty() ? init : final_layout);
  validate_layout(init, "initial_layout", n, width);
  validate_layout(fin, "final_layout", n, width);

  const Stripped sl = strip_non_unitary(logical);
  const Stripped sp = strip_non_unitary(physical);
  VerifyResult unsound;
  if (!strippable(sl, sp, &unsound)) {
    return unsound;
  }

  // Compact onto the qubits that matter: active physical wires plus both
  // layout images. A 5-qubit job routed on a 127-qubit device verifies in
  // the 5-10 qubit space it actually occupies.
  std::set<int> used(init.begin(), init.end());
  used.insert(fin.begin(), fin.end());
  for (const Operation& op : sp.circuit.ops()) {
    for (int i = 0; i < op.num_qubits(); ++i) {
      used.insert(op.qubit(i));
    }
  }
  const int k = static_cast<int>(used.size());
  std::vector<int> compact(static_cast<std::size_t>(width), -1);
  int next = 0;
  for (const int p : used) {
    compact[static_cast<std::size_t>(p)] = next++;
  }
  // Unused wires never appear in any op; remap them to 0 to satisfy the
  // mapping-size contract of Circuit::remapped.
  for (int p = 0; p < width; ++p) {
    if (compact[static_cast<std::size_t>(p)] < 0) {
      compact[static_cast<std::size_t>(p)] = 0;
    }
  }
  const Circuit physical_c = sp.circuit.remapped(compact, k);
  std::vector<int> init_c;
  std::vector<int> fin_c;
  for (int l = 0; l < n; ++l) {
    init_c.push_back(compact[static_cast<std::size_t>(
        init[static_cast<std::size_t>(l)])]);
    fin_c.push_back(compact[static_cast<std::size_t>(
        fin[static_cast<std::size_t>(l)])]);
  }

  // Readout consistency: a measured logical wire must be measured exactly
  // at its final-layout image, and no other physical wire may carry a
  // measure. The unitary tiers strip measures, so a physical measure on
  // the wrong wire — e.g. a router emitting a measure before a later swap
  // moves a different slot onto it — records a different logical qubit's
  // value into that classical bit and is invisible to them; refute here.
  {
    std::vector<bool> expected_measured(static_cast<std::size_t>(width),
                                        false);
    for (int l = 0; l < n; ++l) {
      if (sl.measured[static_cast<std::size_t>(l)]) {
        expected_measured[static_cast<std::size_t>(
            fin[static_cast<std::size_t>(l)])] = true;
      }
    }
    for (int p = 0; p < width; ++p) {
      if (sp.measured[static_cast<std::size_t>(p)] !=
          expected_measured[static_cast<std::size_t>(p)]) {
        return make_result(
            Verdict::kNotEquivalent, Method::kNone, 1.0, n,
            "measurement readout mismatch on physical wire " +
                std::to_string(p) +
                (sp.measured[static_cast<std::size_t>(p)]
                     ? " (measured, but no measured logical wire lands "
                       "there)"
                     : " (unmeasured, but a measured logical wire lands "
                       "there)"));
      }
    }
  }

  // Tolerance precondition, layout-aware: every active *logical* wire is
  // measured (the physical side is readout-consistent by the check
  // above). Routing thoroughfares — wires a swap network borrows and
  // returns to |0> — are active but unmeasured on the physical side; they
  // carry no observable state, so they must not void the
  // distribution-level claim (measures_cover_active(sp) would).
  const bool tolerant =
      options_.measurement_tolerant && measures_cover_active(sl);
  // Context from a sufficient-only Clifford flow mismatch, prefixed onto
  // downstream verdicts.
  std::string note;

  // ---- tier 1: Clifford Pauli flow (any width, layout-aware) ------------
  if (clifford::is_clifford_circuit(sl.circuit) &&
      clifford::is_clifford_circuit(physical_c)) {
    obs::Stage stage(obs::StageId::kVerifyClifford);
    switch (clifford_pauli_flow(sl.circuit, physical_c, k, init_c, fin_c)) {
      case FlowMatch::kFull:
        return make_result(Verdict::kEquivalent, Method::kCliffordTableau,
                           1.0, k, "Pauli flow matches through the layouts");
      case FlowMatch::kMeasurementOnly:
        if (tolerant) {
          return make_result(
              Verdict::kEquivalent, Method::kCliffordTableau, 1.0, k,
              "equivalent up to diagonal phases before measurement "
              "(exact at distribution level)");
        }
        if (k == n) {  // no ancillas: the flow conditions are necessary
          return make_result(Verdict::kNotEquivalent,
                             Method::kCliffordTableau, 1.0, k,
                             "X Pauli flow differs (diagonal gap)");
        }
        note = "X Pauli flow differs: ";
        break;
      case FlowMatch::kMismatch:
        if (k == n) {
          return make_result(Verdict::kNotEquivalent,
                             Method::kCliffordTableau, 1.0, k,
                             "Z Pauli flow differs");
        }
        // With routing ancillas the flow conditions are sufficient-only:
        // fall through to the dense tiers rather than refuting.
        note = "Pauli flow mismatch: ";
        break;
    }
  }

  const MappedJob job{&sl.circuit, &physical_c, k, init_c, fin_c};

  // ---- tier 2: exhaustive basis sweep (exact on the ancilla-|0>
  // subspace; cost 2^(n+k) amplitude updates per gate) --------------------
  if (n + k <= 2 * options_.max_miter_qubits && k <= kStatevectorCap) {
    obs::Stage stage(obs::StageId::kVerifyMiter);
    std::size_t bad_column = 0;
    if (basis_sweep_equivalent(job, kAtol, /*magnitudes_only=*/false,
                               &bad_column)) {
      return make_result(Verdict::kEquivalent, Method::kAlternatingMiter,
                         1.0, k, "all basis columns agreed");
    }
    const std::string where =
        "diverged at basis column " + std::to_string(bad_column);
    if (tolerant) {
      int bad_trial = 0;
      if (basis_sweep_equivalent(job, kAtol,
                                 /*magnitudes_only=*/true, &bad_column) &&
          stimuli_equivalent(job, options_.num_stimuli, options_.seed,
                             kAtol, /*magnitudes_only=*/true,
                             &bad_trial)) {
        return make_result(
            Verdict::kEquivalent, Method::kAlternatingMiter,
            sampling_confidence(options_.num_stimuli), k,
            note + "equivalent up to diagonal phases before measurement");
      }
    }
    return make_result(Verdict::kNotEquivalent, Method::kAlternatingMiter,
                       1.0, k, note + where);
  }

  // ---- tier 3: random stimuli -------------------------------------------
  if (k <= options_.max_stimuli_qubits) {
    obs::Stage stage(obs::StageId::kVerifyStimuli);
    const int stimuli = effective_stimuli(k, options_);
    int bad_trial = 0;
    if (stimuli_equivalent(job, stimuli, options_.seed, kAtol,
                           /*magnitudes_only=*/false, &bad_trial)) {
      return make_result(Verdict::kEquivalent, Method::kRandomStimuli,
                         sampling_confidence(stimuli), k,
                         std::to_string(stimuli) +
                             " random stimuli agreed");
    }
    if (tolerant &&
        stimuli_equivalent(job, stimuli, options_.seed, kAtol,
                           /*magnitudes_only=*/true, &bad_trial)) {
      return make_result(
          Verdict::kEquivalent, Method::kRandomStimuli,
          sampling_confidence(stimuli), k,
          note + "equivalent up to diagonal phases before measurement");
    }
    return make_result(Verdict::kNotEquivalent, Method::kRandomStimuli, 1.0,
                       k,
                       note + "counterexample stimulus #" +
                           std::to_string(bad_trial));
  }

  // ---- tier 4: sparse random stimuli (wide devices, narrow subspace) ----
  // Beyond the dense caps the routed state still lives in the 2^n-dim
  // logical subspace (swap networks permute basis states; ancillas stay
  // |0>), so a sparse simulation decides at any width up to 63 wires —
  // unless the circuit genuinely entangles too many wires, which
  // overflows the support cap and lands in kUnknown below.
  if (n <= options_.max_stimuli_qubits && k <= 63) {
    obs::Stage stage(obs::StageId::kVerifyStimuli);
    bool overflowed = false;
    int bad_trial = 0;
    if (sparse_stimuli_equivalent(job, options_.num_stimuli, options_.seed,
                                  kAtol, /*magnitudes_only=*/false,
                                  &bad_trial, &overflowed)) {
      return make_result(Verdict::kEquivalent, Method::kRandomStimuli,
                         sampling_confidence(options_.num_stimuli), k,
                         std::to_string(options_.num_stimuli) +
                             " sparse random stimuli agreed");
    }
    if (!overflowed && tolerant &&
        sparse_stimuli_equivalent(job, options_.num_stimuli, options_.seed,
                                  kAtol, /*magnitudes_only=*/true,
                                  &bad_trial, &overflowed)) {
      return make_result(
          Verdict::kEquivalent, Method::kRandomStimuli,
          sampling_confidence(options_.num_stimuli), k,
          note + "equivalent up to diagonal phases before measurement "
                 "(sparse)");
    }
    if (!overflowed) {
      return make_result(Verdict::kNotEquivalent, Method::kRandomStimuli,
                         1.0, k,
                         note + "counterexample stimulus #" +
                             std::to_string(bad_trial) + " (sparse)");
    }
    return make_result(
        Verdict::kUnknown, Method::kNone, 0.0, k,
        "sparse support overflow: the compiled circuit entangles more "
        "wires than any tier can decide at width " + std::to_string(k));
  }

  return make_result(
      Verdict::kUnknown, Method::kNone, 0.0, k,
      note + "active width " + std::to_string(k) +
          " exceeds every dense tier and the logical width " +
          std::to_string(n) + " exceeds the stimulus generator");
}

}  // namespace qrc::verify

/// \file equivalence.hpp
/// \brief Tiered functional equivalence checking of circuits (QCEC-style,
///        after Quetschlich/Burgholzer/Wille): the paper's workflow trusts
///        a compiled circuit only after it has been verified equivalent to
///        the input. The EquivalenceChecker picks the cheapest sound
///        method per instance:
///
///          1. Clifford fast path — if both circuits are Clifford, their
///             Aaronson-Gottesman tableaus are compared exactly, at any
///             width (a stabilizer tableau determines the unitary up to
///             global phase).
///          2. Alternating miter — gates of G and conjugated gates of G'
///             are interleaved proportionally onto a maximally-entangled
///             (Choi) state of 2n qubits, which realises the product
///             G * G'^dagger without ever materialising a 4^n matrix; the
///             final trace test |tr(G G'^dagger)| = 2^n decides exact
///             equivalence up to global phase. For layout-embedded
///             circuits the miter runs as an exhaustive basis sweep with
///             early divergence exit on the first failing column.
///          3. Random stimuli — k shared random input states are pushed
///             through both circuits; agreement on all of them implies
///             equivalence w.h.p. (reported as a confidence < 1).
///
///        All tiers are layout/permutation-aware (a routed circuit is
///        verified against the virtual-level input through its initial and
///        final layouts, after compaction onto the active device qubits)
///        and measurement-tolerant (trailing measurements are stripped;
///        if a strict check fails on measure-all circuits, a distribution
///        level recheck accepts legitimate diagonal-before-measure
///        optimizations). A "not equivalent" verdict is always backed by a
///        concrete counterexample and therefore definitive; "equivalent"
///        verdicts carry the tier's confidence.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "ir/circuit.hpp"

namespace qrc::verify {

/// Outcome of an equivalence check.
enum class Verdict : std::uint8_t {
  kEquivalent,     ///< equivalent (exactly, or w.h.p. — see confidence)
  kNotEquivalent,  ///< a counterexample input was found: definitive
  kUnknown,        ///< no tier could decide (too wide, or unsupported ops)
};

/// Which tier produced the verdict.
enum class Method : std::uint8_t {
  kNone,             ///< no tier ran (Verdict::kUnknown)
  kCliffordTableau,  ///< canonical stabilizer-tableau comparison
  kAlternatingMiter, ///< dense G * G'^dagger miter / exhaustive basis sweep
  kRandomStimuli,    ///< shared random input states, w.h.p. equivalence
};

[[nodiscard]] std::string_view verdict_name(Verdict verdict);
[[nodiscard]] std::string_view method_name(Method method);

struct VerifyOptions {
  /// Width cap for the alternating miter (the Choi state has 2n qubits, so
  /// memory is 16 * 4^n bytes: n = 10 is 16 MiB; the hard ceiling is 12).
  int max_miter_qubits = 10;
  /// Width cap for the random-stimuli tier (dense statevectors; the IR
  /// simulator's hard ceiling is 24 — kept lower to bound time). Routed
  /// 12-qubit circuits on the 127-qubit device stay inside this after
  /// compaction.
  int max_stimuli_qubits = 22;
  /// Number of shared random input states in the sampling tier. Above 16
  /// active qubits the budget shrinks to num_stimuli / 4 (at least 2) so
  /// wide instances stay fast; the reported confidence shrinks with it.
  int num_stimuli = 8;
  /// Seed for the shared random stimuli (fixed seed => deterministic
  /// verdicts, so cache replays and live compilations agree).
  std::uint64_t seed = 0x5eed5eedULL;
  /// Accept circuits that differ only by diagonal phases ahead of a
  /// measure-all (e.g. RemoveDiagonalGatesBeforeMeasure output). Strict
  /// unitary equivalence is always tried first.
  bool measurement_tolerant = true;
};

struct VerifyResult {
  Verdict verdict = Verdict::kUnknown;
  Method method = Method::kNone;
  /// 1.0 for exact verdicts (Clifford, miter, and every kNotEquivalent
  /// which is witnessed by a concrete input); 1 - 2^-k for sampling and
  /// distribution-level (measurement-tolerant) acceptance.
  double confidence = 0.0;
  /// Width actually simulated/compared after compaction onto active qubits.
  int checked_qubits = 0;
  /// Human-readable reason / diagnostics (first divergence point, tier
  /// dispatch reason, ...).
  std::string detail;

  [[nodiscard]] bool equivalent() const {
    return verdict == Verdict::kEquivalent;
  }
};

/// Tiered equivalence checker. Immutable and cheap; safe to share across
/// threads. All entry points are deterministic for fixed options.
class EquivalenceChecker {
 public:
  explicit EquivalenceChecker(VerifyOptions options = {});

  [[nodiscard]] const VerifyOptions& options() const { return options_; }

  /// Checks two same-space circuits (widths may differ; the narrower one
  /// acts as identity on the missing qubits). `final_permutation`, if
  /// non-empty, maps output qubit i of `a` to output qubit
  /// final_permutation[i] of `b` (routed-circuit convention shared with
  /// ir::circuits_equivalent).
  [[nodiscard]] VerifyResult check(
      const ir::Circuit& a, const ir::Circuit& b,
      const std::vector<int>& final_permutation = {}) const;

  /// Layout-aware check of a compiled circuit `physical` (typically on
  /// device width) against the virtual-level `logical` input.
  /// `initial_layout` and `final_layout` map logical -> physical qubits
  /// (empty initial = identity placement; empty final = initial). The
  /// circuits are first compacted onto the active physical qubits so a
  /// 5-qubit job routed on a 127-qubit device stays cheap.
  [[nodiscard]] VerifyResult check_mapped(
      const ir::Circuit& logical, const ir::Circuit& physical,
      const std::vector<int>& initial_layout,
      const std::vector<int>& final_layout) const;

 private:
  VerifyOptions options_;
};

}  // namespace qrc::verify

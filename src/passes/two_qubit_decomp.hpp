/// \file two_qubit_decomp.hpp
/// \brief Resynthesis of arbitrary two-qubit unitaries into {1q, CX}
///        circuits via the KAK decomposition, with a CX-count ladder:
///        0 (local), 1 (CX class), 2 (z = 0 Weyl slice), 3 (SWAP class),
///        4 (generic). Every result is verified against the input matrix
///        before being returned.
///
/// A cost gate that keeps a resynthesis only when it has fewer gates than
/// the block it would replace (ConsolidateBlocks, PeepholeOptimise2Q) can
/// reject most blocks before the decomposition runs. StagedResynthesis
/// decides in three stages, each running only when the one before cannot
/// reject:
///   A. la::kak_core() and la::weyl_moves() give the canonical Weyl
///      coordinates and with them the tier (resynth_tier()), which fixes
///      the CX count exactly and the gate count from below
///      (tier_floor());
///   B. la::kak_factor_locals() on the same core, canonicalised and
///      emitted without kak_decompose()'s phase fix-up and without any
///      verification, gives the exact counts of the circuit stage C
///      returns when it returns one;
///   C. decompose_two_qubit_unitary(), unchanged, is the only stage that
///      returns a circuit.
/// Stages A and B are the arithmetic of stage C, bit for bit, so a staged
/// gate keeps exactly the circuits the unstaged gate keeps.
#pragma once

#include <optional>

#include "ir/circuit.hpp"
#include "la/mat4.hpp"
#include "la/weyl.hpp"

namespace qrc::passes {

/// Canonical Weyl coordinates within this distance of a tier's point or
/// slice select that tier.
inline constexpr double kCoordTol = 1e-7;

/// The CX-count tiers of the resynthesis, cheapest first.
enum class ResynthTier {
  kLocal,    ///< (0, 0, 0): locals only
  kCx,       ///< the CX point: 1 CX
  kZeroZ,    ///< the z = 0 slice: 2 CX
  kSwap,     ///< the SWAP point: 3 CX
  kGeneric,  ///< 4 CX
};

/// The tier decompose_two_qubit_unitary() emits for canonical Weyl
/// coordinates (x, y, z).
[[nodiscard]] ResynthTier resynth_tier(double x, double y, double z);

/// The cost the resynthesis gate compares.
struct GateCounts {
  int two_qubit = 0;
  int total = 0;
};

/// The gate's order: `a` has fewer two-qubit gates than `b`, or as many
/// and fewer gates in all.
[[nodiscard]] bool fewer_gates(GateCounts a, GateCounts b);

/// A tier's exact two-qubit gate count, and the fewest gates in all its
/// circuit can have (its 1q gates may be dropped as identities).
[[nodiscard]] GateCounts tier_floor(ResynthTier tier);

/// Resynthesises `u` (a 4x4 unitary in the |q1 q0> basis) as a circuit on
/// two qubits {0, 1} using u3 and cx gates only. Returns std::nullopt if
/// the KAK decomposition fails or the rebuilt matrix does not verify.
[[nodiscard]] std::optional<ir::Circuit> decompose_two_qubit_unitary(
    const la::Mat4& u);

/// decompose_two_qubit_unitary(u) behind a cost gate, in the stages the
/// file comment describes. The constructor runs stage A; replacement()
/// runs stages B and C at most once each, however often it is asked.
class StagedResynthesis {
 public:
  explicit StagedResynthesis(const la::Mat4& u);

  /// The circuit decompose_two_qubit_unitary(u) returns, if it returns one
  /// with fewer_gates() than `cost`; nullptr otherwise.
  [[nodiscard]] const ir::Circuit* replacement(GateCounts cost);

 private:
  la::Mat4 u_;
  std::optional<la::KakCore> core_;  ///< stage A; nullopt when it failed
  ResynthTier tier_ = ResynthTier::kGeneric;
  bool counted_ = false;  ///< stage B has run
  std::optional<GateCounts> counts_;
  bool decomposed_ = false;  ///< stage C has run
  std::optional<ir::Circuit> circuit_;
};

/// Computes the unitary of a circuit over exactly 2 qubits (all ops must
/// act on qubits 0/1 and be unitary).
[[nodiscard]] la::Mat4 two_qubit_circuit_unitary(const ir::Circuit& circuit);

}  // namespace qrc::passes

/// \file weyl.hpp
/// \brief KAK (Cartan) decomposition of two-qubit unitaries via the magic
///        basis, plus Weyl-chamber canonicalisation and Makhlin local
///        invariants. This powers block consolidation and two-qubit
///        resynthesis.
///
/// kak_decompose() runs three stages, each exposed so that a caller can
/// stop early: kak_core() diagonalises U in the magic basis and solves
/// the Weyl coordinates, kak_factor_locals() factors the local gates out
/// of that core, and kak_fix_phase() fixes the residual global phase and
/// verifies the rebuilt matrix. canonicalize() likewise decides its
/// Weyl-chamber moves from the coordinates alone (weyl_moves()) before
/// applying them to the locals. Every stage is the arithmetic the whole
/// does, in the same order, so weyl_moves() on the core's coordinates
/// gives, bit for bit, the canonical coordinates of kak_decompose()
/// followed by canonicalize(), and kak_factor_locals() gives its locals.
#pragma once

#include <array>
#include <optional>

#include "la/complex.hpp"
#include "la/mat2.hpp"
#include "la/mat4.hpp"

namespace qrc::la {

/// U = e^{i phase} * (k1_q1 (x) k1_q0) * canonical_gate(x, y, z)
///   * (k2_q1 (x) k2_q0)
/// where (x) is the Kronecker product with qubit 1 on the high bit.
struct KakDecomposition {
  double phase = 0.0;
  Mat2 k1_q1;  ///< post-interaction local on qubit 1
  Mat2 k1_q0;  ///< post-interaction local on qubit 0
  Mat2 k2_q1;  ///< pre-interaction local on qubit 1
  Mat2 k2_q0;  ///< pre-interaction local on qubit 0
  double x = 0.0;
  double y = 0.0;
  double z = 0.0;

  /// Rebuilds the 4x4 unitary (for verification).
  [[nodiscard]] Mat4 reconstruct() const;

  /// Applies the weyl_moves() of (x, y, z), reaching
  /// pi/4 >= x >= y >= |z| while keeping reconstruct() invariant. Locals
  /// and phase are updated accordingly.
  void canonicalize();
};

/// The first stage of kak_decompose(): with B the magic basis,
/// B^dag U B / det(U)^{1/4} = O e^{i Theta} Q^T for real orthogonal O and
/// Q, and Theta solved into a global term and the Weyl coordinates.
struct KakCore {
  double phase = 0.0;  ///< before the residual fix-up of kak_fix_phase()
  double x = 0.0;
  double y = 0.0;
  double z = 0.0;
  Mat4 o;  ///< O, det +1
  Mat4 q;  ///< Q, det +1
};

/// Runs the first stage; std::nullopt if `u` is not unitary, the joint
/// diagonalisation fails to converge or O is not real.
[[nodiscard]] std::optional<KakCore> kak_core(const Mat4& u);

/// The second stage: factors K1 = B O B^dag and K2 = B Q^T B^dag into the
/// locals, keeping the core's phase and coordinates. std::nullopt if
/// either is not a tensor product.
[[nodiscard]] std::optional<KakDecomposition> kak_factor_locals(
    const KakCore& core);

/// The last stage: adjusts `kak.phase` so that reconstruct() matches `u`
/// exactly on its largest entry, then verifies the whole matrix.
/// \returns false if the reconstruction does not rebuild `u`.
[[nodiscard]] bool kak_fix_phase(KakDecomposition& kak, const Mat4& u);

/// Computes the KAK decomposition of an arbitrary two-qubit unitary: the
/// three stages above, in order. Returns std::nullopt if any stage fails
/// (callers must keep the original circuit in that case).
[[nodiscard]] std::optional<KakDecomposition> kak_decompose(const Mat4& u);

/// The Weyl-chamber moves canonicalize() makes, decided from the
/// coordinates alone: coordinate i first loses shift[i] * pi/2, then
/// `steps` swap a coordinate pair or flip the signs of one, in order.
/// (x, y, z) are the coordinates the moves reach.
struct WeylMoves {
  struct Step {
    bool swap = false;  ///< swap coordinates i and j, else negate both
    int i = 0;
    int j = 0;
  };
  std::array<double, 3> shift{};
  std::array<Step, 7> steps{};
  int num_steps = 0;
  double x = 0.0;
  double y = 0.0;
  double z = 0.0;
};

[[nodiscard]] WeylMoves weyl_moves(double x, double y, double z);

/// Makhlin-style local invariants (g1, g2, g3) of a two-qubit unitary:
/// two unitaries are locally equivalent iff their invariants agree.
struct LocalInvariants {
  double g1 = 0.0;
  double g2 = 0.0;
  double g3 = 0.0;

  [[nodiscard]] bool approx_equal(const LocalInvariants& rhs,
                                  double atol = 1e-6) const;
};

[[nodiscard]] LocalInvariants local_invariants(const Mat4& u);

/// Joint diagonalisation of two commuting real symmetric 4x4 matrices by
/// Jacobi rotations (Cardoso-Souloumiac style). On success, q^T * a * q and
/// q^T * b * q are diagonal. Exposed for testing.
/// \returns true on convergence.
bool joint_diagonalize(std::array<std::array<double, 4>, 4>& a,
                       std::array<std::array<double, 4>, 4>& b,
                       std::array<std::array<double, 4>, 4>& q,
                       int max_sweeps = 64, double tol = 1e-22);

}  // namespace qrc::la

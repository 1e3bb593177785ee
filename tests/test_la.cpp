// Tests for the linear-algebra substrate: matrix algebra, Euler
// decompositions, magic-basis properties, and the KAK decomposition.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "la/euler.hpp"
#include "la/mat2.hpp"
#include "la/mat4.hpp"
#include "la/weyl.hpp"

namespace {

using qrc::la::cplx;
using qrc::la::kPi;
using qrc::la::Mat2;
using qrc::la::Mat4;

/// Haar-ish random 2x2 unitary from random rotation angles.
Mat2 random_unitary2(std::mt19937_64& rng) {
  std::uniform_real_distribution<double> ang(-kPi, kPi);
  const Mat2 u = qrc::la::rz_mat(ang(rng)) * qrc::la::ry_mat(ang(rng)) *
                 qrc::la::rz_mat(ang(rng));
  return u * std::exp(cplx{0.0, ang(rng)});
}

/// Random 4x4 unitary built from alternating local rotations and canonical
/// interactions — covers the full local-equivalence landscape.
Mat4 random_unitary4(std::mt19937_64& rng) {
  std::uniform_real_distribution<double> ang(-kPi, kPi);
  Mat4 u = qrc::la::kron(random_unitary2(rng), random_unitary2(rng));
  u = u * qrc::la::canonical_gate(ang(rng), ang(rng), ang(rng));
  u = u * qrc::la::kron(random_unitary2(rng), random_unitary2(rng));
  return u;
}

// ---------------------------------------------------------------- Mat2 ----

TEST(Mat2Test, IdentityIsUnitary) {
  EXPECT_TRUE(Mat2::identity().is_unitary());
}

TEST(Mat2Test, PauliMatricesAreUnitaryAndInvolutions) {
  for (const Mat2& p :
       {qrc::la::x_mat(), qrc::la::y_mat(), qrc::la::z_mat()}) {
    EXPECT_TRUE(p.is_unitary());
    EXPECT_TRUE((p * p).approx_equal(Mat2::identity()));
  }
}

TEST(Mat2Test, SxSquaredIsX) {
  EXPECT_TRUE((qrc::la::sx_mat() * qrc::la::sx_mat())
                  .approx_equal(qrc::la::x_mat()));
}

TEST(Mat2Test, SxdgIsInverseOfSx) {
  EXPECT_TRUE((qrc::la::sx_mat() * qrc::la::sxdg_mat())
                  .approx_equal(Mat2::identity()));
}

TEST(Mat2Test, HadamardSelfInverse) {
  const Mat2 h = qrc::la::h_mat();
  EXPECT_TRUE((h * h).approx_equal(Mat2::identity()));
}

TEST(Mat2Test, SSquaredIsZ) {
  EXPECT_TRUE(
      (qrc::la::s_mat() * qrc::la::s_mat()).approx_equal(qrc::la::z_mat()));
}

TEST(Mat2Test, TSquaredIsS) {
  EXPECT_TRUE(
      (qrc::la::t_mat() * qrc::la::t_mat()).approx_equal(qrc::la::s_mat()));
}

TEST(Mat2Test, RotationsAreUnitaryForRandomAngles) {
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> ang(-2.0 * kPi, 2.0 * kPi);
  for (int i = 0; i < 50; ++i) {
    const double t = ang(rng);
    EXPECT_TRUE(qrc::la::rx_mat(t).is_unitary());
    EXPECT_TRUE(qrc::la::ry_mat(t).is_unitary());
    EXPECT_TRUE(qrc::la::rz_mat(t).is_unitary());
  }
}

TEST(Mat2Test, RzComposesAdditively) {
  const Mat2 a = qrc::la::rz_mat(0.3) * qrc::la::rz_mat(0.4);
  EXPECT_TRUE(a.approx_equal(qrc::la::rz_mat(0.7)));
}

TEST(Mat2Test, U3CoversNamedGates) {
  // H = U3(pi/2, 0, pi) up to phase.
  EXPECT_TRUE(qrc::la::u3_mat(kPi / 2.0, 0.0, kPi).equal_up_to_phase(
      qrc::la::h_mat()));
  // X = U3(pi, 0, pi).
  EXPECT_TRUE(
      qrc::la::u3_mat(kPi, 0.0, kPi).equal_up_to_phase(qrc::la::x_mat()));
}

TEST(Mat2Test, EqualUpToPhaseDetectsPhaseDifference) {
  const Mat2 h = qrc::la::h_mat();
  const Mat2 hp = h * std::exp(cplx{0.0, 1.234});
  EXPECT_TRUE(h.equal_up_to_phase(hp));
  EXPECT_FALSE(h.equal_up_to_phase(qrc::la::x_mat()));
}

TEST(Mat2Test, DetAndTrace) {
  const Mat2 z = qrc::la::z_mat();
  EXPECT_NEAR(std::abs(z.det() - cplx{-1.0, 0.0}), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(z.trace()), 0.0, 1e-12);
}

// ---------------------------------------------------------------- Mat4 ----

TEST(Mat4Test, KronOfIdentitiesIsIdentity) {
  EXPECT_TRUE(qrc::la::kron(Mat2::identity(), Mat2::identity())
                  .approx_equal(Mat4::identity()));
}

TEST(Mat4Test, CxMatricesAreUnitarySelfInverse) {
  for (const Mat4& m : {qrc::la::cx01_mat(), qrc::la::cx10_mat(),
                        qrc::la::cz_mat(), qrc::la::swap_mat()}) {
    EXPECT_TRUE(m.is_unitary());
    EXPECT_TRUE((m * m).approx_equal(Mat4::identity()));
  }
}

TEST(Mat4Test, SwapConjugationExchangesTensorFactors) {
  std::mt19937_64 rng(11);
  const Mat2 a = random_unitary2(rng);
  const Mat2 b = random_unitary2(rng);
  const Mat4 lhs =
      qrc::la::swap_mat() * qrc::la::kron(a, b) * qrc::la::swap_mat();
  EXPECT_TRUE(lhs.approx_equal(qrc::la::kron(b, a)));
}

TEST(Mat4Test, CxConjugationStabilizerRelations) {
  // CX (control q0, target q1): X_{q0} -> X_{q0} X_{q1}.
  const Mat4 cx = qrc::la::cx01_mat();
  const Mat4 x0 = qrc::la::kron(Mat2::identity(), qrc::la::x_mat());
  const Mat4 xx = qrc::la::kron(qrc::la::x_mat(), qrc::la::x_mat());
  EXPECT_TRUE((cx * x0 * cx).approx_equal(xx));
  // Z_{q1} -> Z_{q0} Z_{q1}.
  const Mat4 z1 = qrc::la::kron(qrc::la::z_mat(), Mat2::identity());
  const Mat4 zz = qrc::la::kron(qrc::la::z_mat(), qrc::la::z_mat());
  EXPECT_TRUE((cx * z1 * cx).approx_equal(zz));
}

TEST(Mat4Test, DetOfKronEqualsProductOfDetsSquared) {
  std::mt19937_64 rng(3);
  const Mat2 a = random_unitary2(rng);
  const Mat2 b = random_unitary2(rng);
  const cplx expected = a.det() * a.det() * b.det() * b.det();
  EXPECT_NEAR(std::abs(qrc::la::kron(a, b).det() - expected), 0.0, 1e-9);
}

TEST(Mat4Test, TensorDecompositionRoundTrip) {
  std::mt19937_64 rng(5);
  for (int i = 0; i < 20; ++i) {
    const Mat2 a = random_unitary2(rng);
    const Mat2 b = random_unitary2(rng);
    const Mat4 m = qrc::la::kron(a, b);
    Mat2 ra;
    Mat2 rb;
    ASSERT_TRUE(qrc::la::decompose_tensor_product(m, ra, rb));
    EXPECT_TRUE(qrc::la::kron(ra, rb).approx_equal(m, 1e-7));
  }
}

TEST(Mat4Test, TensorDecompositionRejectsEntanglingGate) {
  Mat2 a;
  Mat2 b;
  EXPECT_FALSE(qrc::la::decompose_tensor_product(qrc::la::cx01_mat(), a, b));
}

TEST(Mat4Test, CanonicalGateUnitary) {
  std::mt19937_64 rng(13);
  std::uniform_real_distribution<double> ang(-kPi, kPi);
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(
        qrc::la::canonical_gate(ang(rng), ang(rng), ang(rng)).is_unitary());
  }
}

TEST(Mat4Test, CanonicalGateAtCxPointMatchesCxUpToLocals) {
  // canonical(pi/4, 0, 0) = e^{i pi XX / 4} is locally equivalent to CX:
  // they must share Makhlin invariants.
  const auto inv_a =
      qrc::la::local_invariants(qrc::la::canonical_gate(kPi / 4.0, 0.0, 0.0));
  const auto inv_b = qrc::la::local_invariants(qrc::la::cx01_mat());
  EXPECT_TRUE(inv_a.approx_equal(inv_b));
}

// --------------------------------------------------------------- Euler ----

TEST(EulerTest, ZyzRoundTripRandom) {
  std::mt19937_64 rng(17);
  for (int i = 0; i < 100; ++i) {
    const Mat2 u = random_unitary2(rng);
    const auto a = qrc::la::zyz_decompose(u);
    EXPECT_TRUE(qrc::la::zyz_compose(a).approx_equal(u, 1e-8))
        << "iteration " << i;
  }
}

TEST(EulerTest, ZxzRoundTripRandom) {
  std::mt19937_64 rng(19);
  for (int i = 0; i < 100; ++i) {
    const Mat2 u = random_unitary2(rng);
    const auto a = qrc::la::zxz_decompose(u);
    EXPECT_TRUE(qrc::la::zxz_compose(a).approx_equal(u, 1e-8))
        << "iteration " << i;
  }
}

TEST(EulerTest, U3RoundTripRandom) {
  std::mt19937_64 rng(23);
  for (int i = 0; i < 100; ++i) {
    const Mat2 u = random_unitary2(rng);
    const auto a = qrc::la::u3_decompose(u);
    EXPECT_TRUE(qrc::la::u3_compose(a).approx_equal(u, 1e-8))
        << "iteration " << i;
  }
}

TEST(EulerTest, ZxzxzRoundTripRandom) {
  std::mt19937_64 rng(29);
  for (int i = 0; i < 100; ++i) {
    const Mat2 u = random_unitary2(rng);
    const auto a = qrc::la::zxzxz_decompose(u);
    EXPECT_TRUE(qrc::la::zxzxz_compose(a).approx_equal(u, 1e-8))
        << "iteration " << i;
  }
}

TEST(EulerTest, ZyzOfDiagonalGate) {
  const auto a = qrc::la::zyz_decompose(qrc::la::rz_mat(0.7));
  EXPECT_NEAR(a.gamma, 0.0, 1e-9);
  EXPECT_TRUE(qrc::la::zyz_compose(a).approx_equal(qrc::la::rz_mat(0.7)));
}

TEST(EulerTest, ZyzOfAntiDiagonalGate) {
  const auto a = qrc::la::zyz_decompose(qrc::la::x_mat());
  EXPECT_NEAR(a.gamma, kPi, 1e-9);
  EXPECT_TRUE(qrc::la::zyz_compose(a).approx_equal(qrc::la::x_mat()));
}

TEST(EulerTest, ZxzxzOfHadamard) {
  const auto a = qrc::la::zxzxz_decompose(qrc::la::h_mat());
  EXPECT_TRUE(qrc::la::zxzxz_compose(a).approx_equal(qrc::la::h_mat(), 1e-9));
}

// ----------------------------------------------------------------- KAK ----

TEST(KakTest, JointDiagonalizationOfCommutingSymmetric) {
  // Build two commuting symmetric matrices from a shared eigenbasis.
  std::mt19937_64 rng(31);
  std::uniform_real_distribution<double> val(-2.0, 2.0);
  std::array<std::array<double, 4>, 4> q{};
  // Random orthogonal via Gram-Schmidt on a random matrix.
  std::array<std::array<double, 4>, 4> raw{};
  for (auto& row : raw) {
    for (double& v : row) {
      v = val(rng);
    }
  }
  for (int c = 0; c < 4; ++c) {
    std::array<double, 4> col{};
    for (int r = 0; r < 4; ++r) {
      col[static_cast<std::size_t>(r)] =
          raw[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)];
    }
    for (int prev = 0; prev < c; ++prev) {
      double dot = 0.0;
      for (int r = 0; r < 4; ++r) {
        dot += col[static_cast<std::size_t>(r)] *
               q[static_cast<std::size_t>(r)][static_cast<std::size_t>(prev)];
      }
      for (int r = 0; r < 4; ++r) {
        col[static_cast<std::size_t>(r)] -=
            dot *
            q[static_cast<std::size_t>(r)][static_cast<std::size_t>(prev)];
      }
    }
    double nrm = 0.0;
    for (const double v : col) {
      nrm += v * v;
    }
    nrm = std::sqrt(nrm);
    for (int r = 0; r < 4; ++r) {
      q[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)] =
          col[static_cast<std::size_t>(r)] / nrm;
    }
  }
  std::array<double, 4> da{};
  std::array<double, 4> db{};
  for (int i = 0; i < 4; ++i) {
    da[static_cast<std::size_t>(i)] = val(rng);
    db[static_cast<std::size_t>(i)] = val(rng);
  }
  std::array<std::array<double, 4>, 4> a{};
  std::array<std::array<double, 4>, 4> b{};
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      for (int k = 0; k < 4; ++k) {
        a[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] +=
            q[static_cast<std::size_t>(i)][static_cast<std::size_t>(k)] *
            da[static_cast<std::size_t>(k)] *
            q[static_cast<std::size_t>(j)][static_cast<std::size_t>(k)];
        b[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] +=
            q[static_cast<std::size_t>(i)][static_cast<std::size_t>(k)] *
            db[static_cast<std::size_t>(k)] *
            q[static_cast<std::size_t>(j)][static_cast<std::size_t>(k)];
      }
    }
  }
  std::array<std::array<double, 4>, 4> rot{};
  ASSERT_TRUE(qrc::la::joint_diagonalize(a, b, rot));
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      if (i != j) {
        EXPECT_NEAR(
            a[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)], 0.0,
            1e-8);
        EXPECT_NEAR(
            b[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)], 0.0,
            1e-8);
      }
    }
  }
}

TEST(KakTest, DecomposeRandomUnitaries) {
  std::mt19937_64 rng(37);
  for (int i = 0; i < 50; ++i) {
    const Mat4 u = random_unitary4(rng);
    const auto kak = qrc::la::kak_decompose(u);
    ASSERT_TRUE(kak.has_value()) << "iteration " << i;
    EXPECT_TRUE(kak->reconstruct().approx_equal(u, 1e-6)) << "iteration " << i;
  }
}

TEST(KakTest, DecomposeTensorProduct) {
  std::mt19937_64 rng(41);
  const Mat4 u = qrc::la::kron(random_unitary2(rng), random_unitary2(rng));
  const auto kak = qrc::la::kak_decompose(u);
  ASSERT_TRUE(kak.has_value());
  EXPECT_TRUE(kak->reconstruct().approx_equal(u, 1e-6));
}

TEST(KakTest, DecomposeCx) {
  const auto kak = qrc::la::kak_decompose(qrc::la::cx01_mat());
  ASSERT_TRUE(kak.has_value());
  EXPECT_TRUE(kak->reconstruct().approx_equal(qrc::la::cx01_mat(), 1e-6));
}

TEST(KakTest, CanonicalizePreservesUnitaryAndReachesWeylChamber) {
  std::mt19937_64 rng(43);
  for (int i = 0; i < 50; ++i) {
    const Mat4 u = random_unitary4(rng);
    auto kak = qrc::la::kak_decompose(u);
    ASSERT_TRUE(kak.has_value()) << "iteration " << i;
    kak->canonicalize();
    EXPECT_TRUE(kak->reconstruct().approx_equal(u, 1e-6)) << "iteration " << i;
    EXPECT_LE(kak->x, kPi / 4.0 + 1e-9) << "iteration " << i;
    EXPECT_GE(kak->x, kak->y - 1e-9) << "iteration " << i;
    EXPECT_GE(kak->y, std::abs(kak->z) - 1e-9) << "iteration " << i;
    EXPECT_GE(kak->y, -1e-9) << "iteration " << i;
  }
}

/// The exact bits of a 2x2 matrix, for bitwise comparison.
std::vector<std::uint64_t> mat2_bits(const Mat2& m) {
  std::vector<std::uint64_t> bits;
  for (int i = 0; i < 4; ++i) {
    bits.push_back(std::bit_cast<std::uint64_t>(m(i / 2, i % 2).real()));
    bits.push_back(std::bit_cast<std::uint64_t>(m(i / 2, i % 2).imag()));
  }
  return bits;
}

TEST(KakTest, StagesMatchTheWholeDecompositionBitForBit) {
  // kak_core() then weyl_moves() must reach the canonical coordinates of
  // kak_decompose() then canonicalize() bit for bit, and
  // kak_factor_locals() then canonicalize() its locals: the staged
  // resynthesis gate relies on both to decide exactly.
  std::mt19937_64 rng(59);
  std::vector<Mat4> inputs = {Mat4::identity(), qrc::la::cx01_mat(),
                              qrc::la::cz_mat(), qrc::la::swap_mat(),
                              qrc::la::iswap_mat()};
  const std::size_t named = inputs.size();
  for (std::size_t i = 0; i < named; ++i) {
    inputs.push_back(qrc::la::kron(random_unitary2(rng),
                                   random_unitary2(rng)) *
                     inputs[i] *
                     qrc::la::kron(random_unitary2(rng),
                                   random_unitary2(rng)));
  }
  for (int i = 0; i < 200; ++i) {
    inputs.push_back(random_unitary4(rng));
  }
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const Mat4& u = inputs[i];
    auto whole = qrc::la::kak_decompose(u);
    const auto core = qrc::la::kak_core(u);
    ASSERT_TRUE(whole.has_value()) << "input " << i;
    ASSERT_TRUE(core.has_value()) << "input " << i;
    whole->canonicalize();

    const auto moves = qrc::la::weyl_moves(core->x, core->y, core->z);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(moves.x),
              std::bit_cast<std::uint64_t>(whole->x))
        << "input " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(moves.y),
              std::bit_cast<std::uint64_t>(whole->y))
        << "input " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(moves.z),
              std::bit_cast<std::uint64_t>(whole->z))
        << "input " << i;

    auto locals = qrc::la::kak_factor_locals(*core);
    ASSERT_TRUE(locals.has_value()) << "input " << i;
    locals->canonicalize();
    EXPECT_EQ(mat2_bits(locals->k1_q1), mat2_bits(whole->k1_q1))
        << "input " << i;
    EXPECT_EQ(mat2_bits(locals->k1_q0), mat2_bits(whole->k1_q0))
        << "input " << i;
    EXPECT_EQ(mat2_bits(locals->k2_q1), mat2_bits(whole->k2_q1))
        << "input " << i;
    EXPECT_EQ(mat2_bits(locals->k2_q0), mat2_bits(whole->k2_q0))
        << "input " << i;
  }
}

TEST(KakTest, CanonicalCoordinatesOfCxClass) {
  auto kak = qrc::la::kak_decompose(qrc::la::cx01_mat());
  ASSERT_TRUE(kak.has_value());
  kak->canonicalize();
  EXPECT_NEAR(kak->x, kPi / 4.0, 1e-6);
  EXPECT_NEAR(kak->y, 0.0, 1e-6);
  EXPECT_NEAR(kak->z, 0.0, 1e-6);
}

TEST(KakTest, CanonicalCoordinatesOfCzMatchCx) {
  auto kak = qrc::la::kak_decompose(qrc::la::cz_mat());
  ASSERT_TRUE(kak.has_value());
  kak->canonicalize();
  EXPECT_NEAR(kak->x, kPi / 4.0, 1e-6);
  EXPECT_NEAR(kak->y, 0.0, 1e-6);
  EXPECT_NEAR(std::abs(kak->z), 0.0, 1e-6);
}

TEST(KakTest, CanonicalCoordinatesOfSwap) {
  auto kak = qrc::la::kak_decompose(qrc::la::swap_mat());
  ASSERT_TRUE(kak.has_value());
  kak->canonicalize();
  EXPECT_NEAR(kak->x, kPi / 4.0, 1e-6);
  EXPECT_NEAR(kak->y, kPi / 4.0, 1e-6);
  EXPECT_NEAR(std::abs(kak->z), kPi / 4.0, 1e-6);
}

TEST(KakTest, LocalInvariantsSeparateClasses) {
  const auto id = qrc::la::local_invariants(Mat4::identity());
  const auto cx = qrc::la::local_invariants(qrc::la::cx01_mat());
  const auto swap = qrc::la::local_invariants(qrc::la::swap_mat());
  EXPECT_FALSE(id.approx_equal(cx));
  EXPECT_FALSE(cx.approx_equal(swap));
  EXPECT_FALSE(id.approx_equal(swap));
}

TEST(KakTest, LocalInvariantsInvariantUnderLocals) {
  std::mt19937_64 rng(47);
  for (int i = 0; i < 20; ++i) {
    const Mat4 u = random_unitary4(rng);
    const Mat4 dressed = qrc::la::kron(random_unitary2(rng),
                                       random_unitary2(rng)) *
                         u *
                         qrc::la::kron(random_unitary2(rng),
                                       random_unitary2(rng));
    EXPECT_TRUE(qrc::la::local_invariants(u).approx_equal(
        qrc::la::local_invariants(dressed), 1e-6))
        << "iteration " << i;
  }
}

TEST(KakTest, CanonicalCoordsLocallyInvariant) {
  std::mt19937_64 rng(53);
  for (int i = 0; i < 10; ++i) {
    const Mat4 u = random_unitary4(rng);
    const Mat4 dressed =
        qrc::la::kron(random_unitary2(rng), random_unitary2(rng)) * u *
        qrc::la::kron(random_unitary2(rng), random_unitary2(rng));
    auto ka = qrc::la::kak_decompose(u);
    auto kb = qrc::la::kak_decompose(dressed);
    ASSERT_TRUE(ka.has_value());
    ASSERT_TRUE(kb.has_value());
    ka->canonicalize();
    kb->canonicalize();
    EXPECT_NEAR(ka->x, kb->x, 1e-5) << "iteration " << i;
    EXPECT_NEAR(ka->y, kb->y, 1e-5) << "iteration " << i;
    EXPECT_NEAR(std::abs(ka->z), std::abs(kb->z), 1e-5) << "iteration " << i;
  }
}

}  // namespace

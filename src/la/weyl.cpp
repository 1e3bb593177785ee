#include "la/weyl.hpp"

#include <algorithm>
#include <cmath>

namespace qrc::la {

namespace {

using Real4 = std::array<std::array<double, 4>, 4>;

/// The magic basis change matrix B: columns are the magic Bell states.
/// B = 1/sqrt(2) * [[1, 0, 0, i], [0, i, 1, 0], [0, i, -1, 0], [1, 0, 0, -i]].
Mat4 magic_basis() {
  const double s = 1.0 / std::sqrt(2.0);
  Mat4 b;
  b(0, 0) = s;
  b(0, 3) = cplx{0.0, s};
  b(1, 1) = cplx{0.0, s};
  b(1, 2) = s;
  b(2, 1) = cplx{0.0, s};
  b(2, 2) = -s;
  b(3, 0) = s;
  b(3, 3) = cplx{0.0, -s};
  return b;
}

/// Diagonal of Bdag * (sigma (x) sigma) * B for sigma in {X, Y, Z}; these are
/// real +-1 vectors because the magic basis diagonalises the canonical gates.
struct MagicDiagonals {
  std::array<double, 4> wx{};
  std::array<double, 4> wy{};
  std::array<double, 4> wz{};
};

MagicDiagonals magic_diagonals() {
  const Mat4 b = magic_basis();
  const Mat4 bdag = b.adjoint();
  MagicDiagonals out;
  const Mat4 xx = bdag * kron(x_mat(), x_mat()) * b;
  const Mat4 yy = bdag * kron(y_mat(), y_mat()) * b;
  const Mat4 zz = bdag * kron(z_mat(), z_mat()) * b;
  for (int i = 0; i < 4; ++i) {
    out.wx[static_cast<std::size_t>(i)] = xx(i, i).real();
    out.wy[static_cast<std::size_t>(i)] = yy(i, i).real();
    out.wz[static_cast<std::size_t>(i)] = zz(i, i).real();
  }
  return out;
}

/// Solves the 4x4 linear system m * v = rhs by Gaussian elimination with
/// partial pivoting. Returns false if singular.
bool solve4(std::array<std::array<double, 4>, 4> m, std::array<double, 4> rhs,
            std::array<double, 4>& v) {
  for (int col = 0; col < 4; ++col) {
    int pivot = col;
    for (int r = col + 1; r < 4; ++r) {
      if (std::abs(m[static_cast<std::size_t>(r)][static_cast<std::size_t>(
              col)]) > std::abs(m[static_cast<std::size_t>(
                           pivot)][static_cast<std::size_t>(col)])) {
        pivot = r;
      }
    }
    if (std::abs(m[static_cast<std::size_t>(pivot)]
                  [static_cast<std::size_t>(col)]) < 1e-12) {
      return false;
    }
    std::swap(m[static_cast<std::size_t>(col)],
              m[static_cast<std::size_t>(pivot)]);
    std::swap(rhs[static_cast<std::size_t>(col)],
              rhs[static_cast<std::size_t>(pivot)]);
    for (int r = 0; r < 4; ++r) {
      if (r == col) {
        continue;
      }
      const double f = m[static_cast<std::size_t>(r)]
                        [static_cast<std::size_t>(col)] /
                       m[static_cast<std::size_t>(col)]
                        [static_cast<std::size_t>(col)];
      for (int c = col; c < 4; ++c) {
        m[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)] -=
            f * m[static_cast<std::size_t>(col)][static_cast<std::size_t>(c)];
      }
      rhs[static_cast<std::size_t>(r)] -= f * rhs[static_cast<std::size_t>(col)];
    }
  }
  for (int i = 0; i < 4; ++i) {
    v[static_cast<std::size_t>(i)] =
        rhs[static_cast<std::size_t>(i)] /
        m[static_cast<std::size_t>(i)][static_cast<std::size_t>(i)];
  }
  return true;
}

double det3x3_real(const Real4& m, int skip_row, int skip_col) {
  std::array<double, 9> sub{};
  int idx = 0;
  for (int i = 0; i < 4; ++i) {
    if (i == skip_row) {
      continue;
    }
    for (int j = 0; j < 4; ++j) {
      if (j == skip_col) {
        continue;
      }
      sub[static_cast<std::size_t>(idx++)] =
          m[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
    }
  }
  return sub[0] * (sub[4] * sub[8] - sub[5] * sub[7]) -
         sub[1] * (sub[3] * sub[8] - sub[5] * sub[6]) +
         sub[2] * (sub[3] * sub[7] - sub[4] * sub[6]);
}

double det4_real(const Real4& m) {
  double acc = 0.0;
  double sign = 1.0;
  for (int j = 0; j < 4; ++j) {
    acc += sign * m[0][static_cast<std::size_t>(j)] * det3x3_real(m, 0, j);
    sign = -sign;
  }
  return acc;
}

}  // namespace

bool joint_diagonalize(Real4& a, Real4& b, Real4& q, int max_sweeps,
                       double tol) {
  // Initialise q to identity.
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      q[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
          (i == j) ? 1.0 : 0.0;
    }
  }
  const auto off = [&]() {
    double acc = 0.0;
    for (int i = 0; i < 4; ++i) {
      for (int j = 0; j < 4; ++j) {
        if (i != j) {
          acc += a[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] *
                     a[static_cast<std::size_t>(i)]
                      [static_cast<std::size_t>(j)] +
                 b[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] *
                     b[static_cast<std::size_t>(i)]
                      [static_cast<std::size_t>(j)];
        }
      }
    }
    return acc;
  };

  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    if (off() < tol) {
      return true;
    }
    for (int p = 0; p < 4; ++p) {
      for (int r = p + 1; r < 4; ++r) {
        const auto sp = static_cast<std::size_t>(p);
        const auto sr = static_cast<std::size_t>(r);
        // Minimise sum over both matrices of the rotated off-diagonal
        // (p, r) entry: entry(theta) = u cos(2t) - v sin(2t) with
        // u = m_pr and v = (m_pp - m_rr) / 2.
        double cp = 0.0;  // sum u * v
        double cq = 0.0;  // sum (v^2 - u^2)
        for (const Real4* m : {&a, &b}) {
          const double u = (*m)[sp][sr];
          const double v = ((*m)[sp][sp] - (*m)[sr][sr]) / 2.0;
          cp += u * v;
          cq += v * v - u * u;
        }
        // Stationary points of the quadratic form: tan(4t) = 2 P / Q;
        // evaluate both candidate roots and keep the minimiser.
        double theta = 0.25 * std::atan2(2.0 * cp, cq);
        const auto objective = [&](double t) {
          double acc = 0.0;
          const double c = std::cos(2.0 * t);
          const double s = std::sin(2.0 * t);
          for (const Real4* m : {&a, &b}) {
            const double u = (*m)[sp][sr];
            const double v = ((*m)[sp][sp] - (*m)[sr][sr]) / 2.0;
            const double e = u * c - v * s;
            acc += e * e;
          }
          return acc;
        };
        if (objective(theta + kPi / 4.0) < objective(theta)) {
          theta += kPi / 4.0;
        }
        const double c = std::cos(theta);
        const double s = std::sin(theta);
        if (std::abs(s) < 1e-15) {
          continue;
        }
        // Apply the Givens rotation G (rows/cols p and r) to both matrices:
        // m <- G^T m G, and accumulate q <- q G.
        for (Real4* m : {&a, &b}) {
          for (int k = 0; k < 4; ++k) {
            const auto sk = static_cast<std::size_t>(k);
            const double mk_p = (*m)[sk][sp];
            const double mk_r = (*m)[sk][sr];
            (*m)[sk][sp] = c * mk_p + s * mk_r;
            (*m)[sk][sr] = -s * mk_p + c * mk_r;
          }
          for (int k = 0; k < 4; ++k) {
            const auto sk = static_cast<std::size_t>(k);
            const double mp_k = (*m)[sp][sk];
            const double mr_k = (*m)[sr][sk];
            (*m)[sp][sk] = c * mp_k + s * mr_k;
            (*m)[sr][sk] = -s * mp_k + c * mr_k;
          }
        }
        for (int k = 0; k < 4; ++k) {
          const auto sk = static_cast<std::size_t>(k);
          const double qk_p = q[sk][sp];
          const double qk_r = q[sk][sr];
          q[sk][sp] = c * qk_p + s * qk_r;
          q[sk][sr] = -s * qk_p + c * qk_r;
        }
      }
    }
  }
  return off() < tol * 100.0;
}

Mat4 KakDecomposition::reconstruct() const {
  const Mat4 k1 = kron(k1_q1, k1_q0);
  const Mat4 k2 = kron(k2_q1, k2_q0);
  return (k1 * canonical_gate(x, y, z) * k2) * std::exp(cplx{0.0, phase});
}

WeylMoves weyl_moves(double x, double y, double z) {
  WeylMoves moves;
  std::array<double, 3> coord = {x, y, z};

  // Move 1: shift coordinate i by -pi/2 * k.
  for (std::size_t i = 0; i < 3; ++i) {
    const double k = std::round(coord[i] / (kPi / 2.0));
    moves.shift[i] = k;
    if (k != 0.0) {
      coord[i] -= k * (kPi / 2.0);
    }
  }

  // Moves 2 and 3: sign flips and swaps of coordinate pairs.
  const auto record = [&](bool swap, int i, int j) {
    moves.steps[static_cast<std::size_t>(moves.num_steps++)] = {swap, i, j};
  };
  const auto flip_pair = [&](int i, int j) {
    coord[static_cast<std::size_t>(i)] = -coord[static_cast<std::size_t>(i)];
    coord[static_cast<std::size_t>(j)] = -coord[static_cast<std::size_t>(j)];
    record(false, i, j);
  };
  const auto swap_pair = [&](int i, int j) {
    std::swap(coord[static_cast<std::size_t>(i)],
              coord[static_cast<std::size_t>(j)]);
    record(true, i, j);
  };

  // Sort by absolute value descending: |x| >= |y| >= |z|.
  for (int pass = 0; pass < 2; ++pass) {
    if (std::abs(coord[0]) < std::abs(coord[1])) {
      swap_pair(0, 1);
    }
    if (std::abs(coord[1]) < std::abs(coord[2])) {
      swap_pair(1, 2);
    }
  }
  // Make x and y non-negative (flip signs in pairs).
  if (coord[0] < 0.0 && coord[1] < 0.0) {
    flip_pair(0, 1);
  } else if (coord[0] < 0.0) {
    flip_pair(0, 2);
  } else if (coord[1] < 0.0) {
    flip_pair(1, 2);
  }
  // x may now sit exactly at -pi/4 + eps boundary cases; where x < y due to
  // earlier flips, re-sort once more (flips preserve absolute values, so a
  // single extra pass suffices).
  if (coord[0] < coord[1]) {
    swap_pair(0, 1);
  }
  if (coord[1] < std::abs(coord[2])) {
    // |y| >= |z| is guaranteed; y < |z| can only happen via tiny numerical
    // noise, so clamp by swapping.
    if (coord[1] < coord[2]) {
      swap_pair(1, 2);
    }
  }
  moves.x = coord[0];
  moves.y = coord[1];
  moves.z = coord[2];
  return moves;
}

void KakDecomposition::canonicalize() {
  const WeylMoves moves = weyl_moves(x, y, z);

  // Move 1: canonical(c + k*pi/2 along i) = canonical(c) * (i sigma sigma)^k,
  // so fold k powers of (sigma (x) sigma) into K2 and i^k into the phase.
  const Mat2 paulis[3] = {x_mat(), y_mat(), z_mat()};
  for (std::size_t i = 0; i < 3; ++i) {
    const double k = moves.shift[i];
    if (k == 0.0) {
      continue;
    }
    const int km = static_cast<int>(((static_cast<long long>(k) % 4) + 4) % 4);
    for (int rep = 0; rep < km; ++rep) {
      k2_q1 = paulis[i] * k2_q1;
      k2_q0 = paulis[i] * k2_q0;
    }
    phase += k * kPi / 2.0;
  }

  for (int s = 0; s < moves.num_steps; ++s) {
    const WeylMoves::Step& step = moves.steps[static_cast<std::size_t>(s)];
    if (!step.swap) {
      // Sign flip of a coordinate pair: conjugate with (P (x) I) where P
      // anticommutes with the two flipped sigmas:
      //   flip (x, y): P = Z, flip (x, z): P = Y, flip (y, z): P = X.
      const Mat2 p = paulis[3 - step.i - step.j];
      k1_q1 = k1_q1 * p;
      k2_q1 = p * k2_q1;
      continue;
    }
    // Swap of a coordinate pair: conjugate with (V (x) V).
    //   swap (x, y): V = S, swap (x, z): V = H, swap (y, z): V = Rx(pi/2).
    // canonical(..swapped..) = (V (x) V) canonical(c) (V (x) V)^dag, so
    // canonical(c) = (V^dag (x) V^dag) canonical(..swapped..) (V (x) V).
    Mat2 v;
    if (step.i + step.j == 1) {
      v = s_mat();
    } else if (step.i + step.j == 2) {
      v = h_mat();
    } else {
      v = rx_mat(kPi / 2.0);
    }
    const Mat2 vd = v.adjoint();
    k1_q1 = k1_q1 * vd;
    k1_q0 = k1_q0 * vd;
    k2_q1 = v * k2_q1;
    k2_q0 = v * k2_q0;
  }
  x = moves.x;
  y = moves.y;
  z = moves.z;
}

namespace {

/// The magic basis and its adjoint, built once.
const Mat4& magic_b() {
  static const Mat4 kB = magic_basis();
  return kB;
}

const Mat4& magic_bdag() {
  static const Mat4 kBdag = magic_basis().adjoint();
  return kBdag;
}

}  // namespace

std::optional<KakCore> kak_core(const Mat4& u) {
  if (!u.is_unitary(1e-8)) {
    return std::nullopt;
  }
  // Scale into SU(4).
  const cplx d = u.det();
  const double darg = std::arg(d);
  const cplx g = std::exp(cplx{0.0, darg / 4.0}) *
                 std::pow(std::abs(d), 0.25);
  const Mat4 su = u * (cplx{1.0, 0.0} / g);

  const Mat4 up = magic_bdag() * su * magic_b();  // U' in the magic basis
  const Mat4 m2 = up.transpose() * up;            // complex symmetric unitary

  Real4 re{};
  Real4 im{};
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      re[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
          m2(i, j).real();
      im[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
          m2(i, j).imag();
    }
  }
  Real4 q{};
  if (!joint_diagonalize(re, im, q)) {
    return std::nullopt;
  }

  // Ensure det(Q) = +1 by flipping one column.
  if (det4_real(q) < 0.0) {
    for (int i = 0; i < 4; ++i) {
      q[static_cast<std::size_t>(i)][0] = -q[static_cast<std::size_t>(i)][0];
    }
  }

  // Eigenphases: the diagonal of Q^T M2 Q is e^{2 i theta_j}.
  std::array<double, 4> theta{};
  for (int j = 0; j < 4; ++j) {
    const auto sj = static_cast<std::size_t>(j);
    const cplx dj{re[sj][sj], im[sj][sj]};
    theta[sj] = std::arg(dj) / 2.0;
  }

  // O = U' Q e^{-i Theta} must be real orthogonal with det +1. If
  // det(O) = -1, shift theta_0 by pi (flips the first column of O).
  KakCore out;
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      out.q(i, j) =
          q[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
    }
  }
  const auto build_o = [&](const std::array<double, 4>& th) {
    Mat4 o = up * out.q;
    for (int i = 0; i < 4; ++i) {
      for (int j = 0; j < 4; ++j) {
        o(i, j) *= std::exp(cplx{0.0, -th[static_cast<std::size_t>(j)]});
      }
    }
    return o;
  };
  out.o = build_o(theta);
  // Check realness.
  double max_imag = 0.0;
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      max_imag = std::max(max_imag, std::abs(out.o(i, j).imag()));
    }
  }
  if (max_imag > 1e-6) {
    return std::nullopt;
  }
  Real4 o_real{};
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      o_real[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
          out.o(i, j).real();
    }
  }
  if (det4_real(o_real) < 0.0) {
    theta[0] += kPi;
    out.o = build_o(theta);
  }

  // Solve theta_j = t + x*wx_j + y*wy_j + z*wz_j for (t, x, y, z).
  static const MagicDiagonals kDiag = magic_diagonals();
  std::array<std::array<double, 4>, 4> sys{};
  for (int j = 0; j < 4; ++j) {
    const auto sj = static_cast<std::size_t>(j);
    sys[sj][0] = 1.0;
    sys[sj][1] = kDiag.wx[sj];
    sys[sj][2] = kDiag.wy[sj];
    sys[sj][3] = kDiag.wz[sj];
  }
  std::array<double, 4> sol{};
  if (!solve4(sys, theta, sol)) {
    return std::nullopt;
  }
  out.phase = darg / 4.0 + sol[0];
  out.x = sol[1];
  out.y = sol[2];
  out.z = sol[3];
  return out;
}

std::optional<KakDecomposition> kak_factor_locals(const KakCore& core) {
  KakDecomposition out;
  out.phase = core.phase;
  out.x = core.x;
  out.y = core.y;
  out.z = core.z;
  // Locals: K1 = B O B^dag, K2 = B Q^T B^dag, both SU(2) (x) SU(2).
  const Mat4 k1m = magic_b() * core.o * magic_bdag();
  const Mat4 k2m = magic_b() * core.q.transpose() * magic_bdag();
  if (!decompose_tensor_product(k1m, out.k1_q1, out.k1_q0, 1e-5) ||
      !decompose_tensor_product(k2m, out.k2_q1, out.k2_q0, 1e-5)) {
    return std::nullopt;
  }
  return out;
}

bool kak_fix_phase(KakDecomposition& kak, const Mat4& u) {
  const Mat4 rebuilt = kak.reconstruct();
  int bi = 0;
  int bj = 0;
  double best = -1.0;
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      if (std::abs(rebuilt(i, j)) > best) {
        best = std::abs(rebuilt(i, j));
        bi = i;
        bj = j;
      }
    }
  }
  kak.phase += std::arg(u(bi, bj) / rebuilt(bi, bj));
  return kak.reconstruct().approx_equal(u, 1e-6);
}

std::optional<KakDecomposition> kak_decompose(const Mat4& u) {
  const auto core = kak_core(u);
  if (!core.has_value()) {
    return std::nullopt;
  }
  auto out = kak_factor_locals(*core);
  if (!out.has_value() || !kak_fix_phase(*out, u)) {
    return std::nullopt;
  }
  return out;
}

bool LocalInvariants::approx_equal(const LocalInvariants& rhs,
                                   double atol) const {
  return std::abs(g1 - rhs.g1) <= atol && std::abs(g2 - rhs.g2) <= atol &&
         std::abs(g3 - rhs.g3) <= atol;
}

LocalInvariants local_invariants(const Mat4& u) {
  // Makhlin invariants: with m = B^dag (U / det(U)^{1/4}) B and M = m^T m,
  //   g1 + i g2 = tr(M)^2 / 16, g3 = (tr(M)^2 - tr(M M)) / 4.
  const cplx d = u.det();
  const cplx g = std::exp(cplx{0.0, std::arg(d) / 4.0}) *
                 std::pow(std::abs(d), 0.25);
  const Mat4 su = u * (cplx{1.0, 0.0} / g);
  const Mat4 b = magic_basis();
  const Mat4 m = b.adjoint() * su * b;
  const Mat4 mm = m.transpose() * m;
  const cplx tr = mm.trace();
  const cplx tr2 = (mm * mm).trace();
  LocalInvariants out;
  const cplx g12 = tr * tr / 16.0;
  out.g1 = g12.real();
  out.g2 = g12.imag();
  out.g3 = ((tr * tr - tr2) / 4.0).real();
  return out;
}

}  // namespace qrc::la

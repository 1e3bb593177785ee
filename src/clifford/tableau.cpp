#include "clifford/tableau.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "la/complex.hpp"
#include "obs/stage.hpp"

namespace qrc::clifford {

using ir::GateKind;
using ir::Operation;

Tableau::Tableau(int num_qubits) : n_(num_qubits) {
  if (num_qubits < 1) {
    throw std::invalid_argument("Tableau: need at least one qubit");
  }
  words_ = (2 * n_ + 63) / 64;
  xb_.assign(static_cast<std::size_t>(n_) * words_u(), 0);
  zb_.assign(static_cast<std::size_t>(n_) * words_u(), 0);
  rb_.assign(words_u(), 0);
  for (int i = 0; i < n_; ++i) {
    // Destabilizer i = X_i, stabilizer i = Z_i.
    plane(xb_, i)[static_cast<std::size_t>(i) / 64] |=
        std::uint64_t{1} << (static_cast<std::size_t>(i) % 64);
    const auto si = static_cast<std::size_t>(n_ + i);
    plane(zb_, i)[si / 64] |= std::uint64_t{1} << (si % 64);
  }
}

// The word formulas below are the Aaronson-Gottesman per-row updates
// applied to all 64 rows of a word at once; boolean row identities:
//   H(q):     r ^= x&z, then swap x and z
//   S(q):     r ^= x&z;  z ^= x
//   Sdg(q):   r ^= x&~z; z ^= x          (= S^3)
//   CX(c,t):  r ^= xc & zt & ~(xt ^ zc); xt ^= xc; zc ^= zt
//   Z(q):     r ^= x     (= S^2)
//   X(q):     r ^= z     (= H Z H; the two H sign terms cancel)
//   Y(q):     r ^= x ^ z (= Z then X)
// Pad bits stay zero: every update ANDs or XORs existing plane words,
// whose pad bits are zero by construction.

void Tableau::apply_h(int q) {
  std::uint64_t* x = plane(xb_, q);
  std::uint64_t* z = plane(zb_, q);
  for (std::size_t w = 0; w < words_u(); ++w) {
    rb_[w] ^= x[w] & z[w];
    std::swap(x[w], z[w]);
  }
}

void Tableau::apply_s(int q) {
  const std::uint64_t* x = plane(xb_, q);
  std::uint64_t* z = plane(zb_, q);
  for (std::size_t w = 0; w < words_u(); ++w) {
    rb_[w] ^= x[w] & z[w];
    z[w] ^= x[w];
  }
}

void Tableau::apply_cx(int control, int target) {
  std::uint64_t* xc = plane(xb_, control);
  std::uint64_t* zc = plane(zb_, control);
  std::uint64_t* xt = plane(xb_, target);
  std::uint64_t* zt = plane(zb_, target);
  for (std::size_t w = 0; w < words_u(); ++w) {
    rb_[w] ^= xc[w] & zt[w] & ~(xt[w] ^ zc[w]);
    xt[w] ^= xc[w];
    zc[w] ^= zt[w];
  }
}

void Tableau::apply_sdg(int q) {
  const std::uint64_t* x = plane(xb_, q);
  std::uint64_t* z = plane(zb_, q);
  for (std::size_t w = 0; w < words_u(); ++w) {
    rb_[w] ^= x[w] & ~z[w];
    z[w] ^= x[w];
  }
}

void Tableau::apply_z(int q) {
  const std::uint64_t* x = plane(xb_, q);
  for (std::size_t w = 0; w < words_u(); ++w) {
    rb_[w] ^= x[w];
  }
}

void Tableau::apply_x(int q) {
  const std::uint64_t* z = plane(zb_, q);
  for (std::size_t w = 0; w < words_u(); ++w) {
    rb_[w] ^= z[w];
  }
}

void Tableau::apply_y(int q) {
  const std::uint64_t* x = plane(xb_, q);
  const std::uint64_t* z = plane(zb_, q);
  for (std::size_t w = 0; w < words_u(); ++w) {
    rb_[w] ^= x[w] ^ z[w];
  }
}

void Tableau::apply_sx(int q) {
  apply_h(q);
  apply_s(q);
  apply_h(q);
}

void Tableau::apply_sxdg(int q) {
  apply_h(q);
  apply_sdg(q);
  apply_h(q);
}

void Tableau::apply_cz(int a, int b) {
  apply_h(b);
  apply_cx(a, b);
  apply_h(b);
}

void Tableau::apply_cy(int control, int target) {
  apply_sdg(target);
  apply_cx(control, target);
  apply_s(target);
}

void Tableau::apply_swap(int a, int b) {
  // Conjugation by SWAP only exchanges the operand Paulis (all images carry
  // a + sign), so swapping the planes is the whole update.
  std::uint64_t* xa = plane(xb_, a);
  std::uint64_t* za = plane(zb_, a);
  std::swap_ranges(xa, xa + words_u(), plane(xb_, b));
  std::swap_ranges(za, za + words_u(), plane(zb_, b));
}

void Tableau::apply_iswap(int a, int b) {
  // iSWAP = (S (x) S) * CZ * SWAP (verified against the matrix definition).
  apply_swap(a, b);
  apply_cz(a, b);
  apply_s(a);
  apply_s(b);
}

void Tableau::apply_ecr(int a, int b) {
  // ECR = X_a * SX_b * S_a * CX(a, b) up to global phase (derived from the
  // conjugation images X_a -> -X_b Y_a, Z_a -> -Z_a, X_b -> X_b,
  // Z_b -> Z_a Y_b).
  apply_cx(a, b);
  apply_s(a);
  apply_sx(b);
  apply_x(a);
}

bool Tableau::apply(const Operation& op) {
  const auto ops = as_clifford_ops(op);
  if (!ops.has_value()) {
    return false;
  }
  for (const Operation& g : *ops) {
    switch (g.kind()) {
      case GateKind::kH:
        apply_h(g.qubit(0));
        break;
      case GateKind::kS:
        apply_s(g.qubit(0));
        break;
      case GateKind::kSdg:
        apply_sdg(g.qubit(0));
        break;
      case GateKind::kX:
        apply_x(g.qubit(0));
        break;
      case GateKind::kY:
        apply_y(g.qubit(0));
        break;
      case GateKind::kZ:
        apply_z(g.qubit(0));
        break;
      case GateKind::kSX:
        apply_sx(g.qubit(0));
        break;
      case GateKind::kSXdg:
        apply_sxdg(g.qubit(0));
        break;
      case GateKind::kI:
        break;
      case GateKind::kCX:
        apply_cx(g.qubit(0), g.qubit(1));
        break;
      case GateKind::kCZ:
        apply_cz(g.qubit(0), g.qubit(1));
        break;
      case GateKind::kCY:
        apply_cy(g.qubit(0), g.qubit(1));
        break;
      case GateKind::kSWAP:
        apply_swap(g.qubit(0), g.qubit(1));
        break;
      case GateKind::kISWAP:
        apply_iswap(g.qubit(0), g.qubit(1));
        break;
      case GateKind::kECR:
        apply_ecr(g.qubit(0), g.qubit(1));
        break;
      default:
        throw std::logic_error("Tableau::apply: unexpected primitive");
    }
  }
  return true;
}

std::optional<Tableau> Tableau::from_circuit(const ir::Circuit& circuit) {
  obs::Stage stage(obs::StageId::kTableauSweep);
  Tableau t(std::max(1, circuit.num_qubits()));
  for (const Operation& op : circuit.ops()) {
    if (!t.apply(op)) {
      return std::nullopt;
    }
  }
  return t;
}

bool Tableau::operator==(const Tableau& rhs) const {
  // Pad bits are invariantly zero on both sides, so whole-word compare is
  // exact row-by-row equality.
  return n_ == rhs.n_ && xb_ == rhs.xb_ && zb_ == rhs.zb_ && rb_ == rhs.rb_;
}

namespace {

/// A gate applied during tableau reduction; kept for reconstructing the
/// synthesised circuit.
struct AppliedGate {
  GateKind kind;
  int a;
  int b;  // -1 for 1q gates
};

GateKind inverse_primitive(GateKind kind) {
  switch (kind) {
    case GateKind::kS:
      return GateKind::kSdg;
    case GateKind::kSdg:
      return GateKind::kS;
    case GateKind::kSX:
      return GateKind::kSXdg;
    case GateKind::kSXdg:
      return GateKind::kSX;
    default:
      return kind;  // H, X, Z, CX, CZ, SWAP are self-inverse
  }
}

}  // namespace

ir::Circuit Tableau::to_circuit() const {
  Tableau work = *this;
  std::vector<AppliedGate> applied;
  const auto do_gate = [&](GateKind kind, int a, int b) {
    switch (kind) {
      case GateKind::kH:
        work.apply_h(a);
        break;
      case GateKind::kS:
        work.apply_s(a);
        break;
      case GateKind::kSX:
        work.apply_sx(a);
        break;
      case GateKind::kX:
        work.apply_x(a);
        break;
      case GateKind::kZ:
        work.apply_z(a);
        break;
      case GateKind::kCX:
        work.apply_cx(a, b);
        break;
      case GateKind::kCZ:
        work.apply_cz(a, b);
        break;
      case GateKind::kSWAP:
        work.apply_swap(a, b);
        break;
      default:
        throw std::logic_error("to_circuit: unexpected gate");
    }
    applied.push_back({kind, a, b});
  };

  const int n = n_;
  for (int i = 0; i < n; ++i) {
    const int di = i;      // destabilizer row
    const int si = n + i;  // stabilizer row

    // Step A: bring an X onto column i of the destabilizer row.
    int k_x = -1;
    int k_z = -1;
    for (int k = i; k < n; ++k) {
      if (k_x < 0 && work.x(di, k)) {
        k_x = k;
      }
      if (k_z < 0 && work.z(di, k)) {
        k_z = k;
      }
    }
    if (k_x < 0) {
      if (k_z < 0) {
        throw std::logic_error("to_circuit: degenerate tableau row");
      }
      do_gate(GateKind::kH, k_z, -1);
      k_x = k_z;
    }
    if (k_x != i) {
      do_gate(GateKind::kSWAP, i, k_x);
    }

    // Step B: clear remaining X components of the destabilizer row.
    for (int k = i + 1; k < n; ++k) {
      if (work.x(di, k)) {
        do_gate(GateKind::kCX, i, k);
      }
    }
    // Step C: clear Z components (first the Y on column i, then CZ links).
    if (work.z(di, i)) {
      do_gate(GateKind::kS, i, -1);
    }
    for (int k = i + 1; k < n; ++k) {
      if (work.z(di, k)) {
        do_gate(GateKind::kCZ, i, k);
      }
    }

    // Step D: clear X components of the stabilizer row on columns > i.
    for (int k = i + 1; k < n; ++k) {
      if (work.x(si, k)) {
        if (work.z(si, k)) {
          do_gate(GateKind::kS, k, -1);
        }
        do_gate(GateKind::kH, k, -1);
      }
    }
    // Column i of the stabilizer row: turn a Y into a Z (X_i preserved).
    if (work.x(si, i)) {
      do_gate(GateKind::kSX, i, -1);
    }
    // Step E: clear Z components of the stabilizer row on columns > i.
    for (int k = i + 1; k < n; ++k) {
      if (work.z(si, k)) {
        do_gate(GateKind::kCX, k, i);
      }
    }
  }

  // Step G: fix signs.
  for (int i = 0; i < n; ++i) {
    if (work.r(i)) {
      do_gate(GateKind::kZ, i, -1);
    }
    if (work.r(n + i)) {
      do_gate(GateKind::kX, i, -1);
    }
  }

  // applied reduces U to identity: G_k ... G_1 U = I, so
  // U = G_1^dag ... G_k^dag; as a circuit, G_k^dag executes first.
  ir::Circuit out(n, "clifford");
  for (auto it = applied.rbegin(); it != applied.rend(); ++it) {
    const GateKind inv = inverse_primitive(it->kind);
    if (it->b < 0) {
      const std::array<int, 1> qs{it->a};
      out.append(inv, qs);
    } else {
      const std::array<int, 2> qs{it->a, it->b};
      out.append(inv, qs);
    }
  }
  return out;
}

namespace {

/// Multiple of pi/2 within tolerance: returns k in {0, 1, 2, 3} for
/// angle = k * pi/2 (mod 2*pi), or -1.
int quarter_turns(double angle) {
  const double t = la::normalize_angle(angle);
  for (int k = -2; k <= 2; ++k) {
    if (std::abs(t - k * la::kPi / 2.0) < 1e-9) {
      return ((k % 4) + 4) % 4;
    }
  }
  return -1;
}

Operation make1(GateKind kind, int q) {
  const std::array<int, 1> qs{q};
  return Operation(kind, qs);
}

Operation make2(GateKind kind, int a, int b) {
  const std::array<int, 2> qs{a, b};
  return Operation(kind, qs);
}

/// rzz(k * pi/2) as primitive Cliffords.
void append_rzz(std::vector<Operation>& out, int k, int a, int b) {
  switch (k) {
    case 0:
      return;
    case 1:
      out.push_back(make2(GateKind::kCX, a, b));
      out.push_back(make1(GateKind::kS, b));
      out.push_back(make2(GateKind::kCX, a, b));
      return;
    case 2:
      out.push_back(make1(GateKind::kZ, a));
      out.push_back(make1(GateKind::kZ, b));
      return;
    case 3:
      out.push_back(make2(GateKind::kCX, a, b));
      out.push_back(make1(GateKind::kSdg, b));
      out.push_back(make2(GateKind::kCX, a, b));
      return;
    default:
      throw std::logic_error("append_rzz: bad quarter turn");
  }
}

}  // namespace

std::optional<std::vector<Operation>> as_clifford_ops(const Operation& op) {
  std::vector<Operation> out;
  switch (op.kind()) {
    case GateKind::kI:
      return out;
    case GateKind::kX:
    case GateKind::kY:
    case GateKind::kZ:
    case GateKind::kH:
    case GateKind::kS:
    case GateKind::kSdg:
    case GateKind::kSX:
    case GateKind::kSXdg:
    case GateKind::kCX:
    case GateKind::kCY:
    case GateKind::kCZ:
    case GateKind::kSWAP:
    case GateKind::kISWAP:
    case GateKind::kECR:
      out.push_back(op);
      return out;
    case GateKind::kRZ:
    case GateKind::kP: {
      const int k = quarter_turns(op.param(0));
      if (k < 0) {
        return std::nullopt;
      }
      static constexpr GateKind kSeq[4] = {GateKind::kI, GateKind::kS,
                                           GateKind::kZ, GateKind::kSdg};
      if (k != 0) {
        out.push_back(make1(kSeq[k], op.qubit(0)));
      }
      return out;
    }
    case GateKind::kRX: {
      const int k = quarter_turns(op.param(0));
      if (k < 0) {
        return std::nullopt;
      }
      static constexpr GateKind kSeq[4] = {GateKind::kI, GateKind::kSX,
                                           GateKind::kX, GateKind::kSXdg};
      if (k != 0) {
        out.push_back(make1(kSeq[k], op.qubit(0)));
      }
      return out;
    }
    case GateKind::kRY: {
      const int k = quarter_turns(op.param(0));
      if (k < 0) {
        return std::nullopt;
      }
      const int q = op.qubit(0);
      switch (k) {
        case 0:
          return out;
        case 1:  // ry(pi/2) = X * H as matrices: circuit [h, x]
          out.push_back(make1(GateKind::kH, q));
          out.push_back(make1(GateKind::kX, q));
          return out;
        case 2:
          out.push_back(make1(GateKind::kY, q));
          return out;
        case 3:  // ry(-pi/2) = H * X: circuit [x, h]
          out.push_back(make1(GateKind::kX, q));
          out.push_back(make1(GateKind::kH, q));
          return out;
        default:
          return std::nullopt;
      }
    }
    case GateKind::kCP: {
      const int k = quarter_turns(op.param(0));
      if (k == 0) {
        return out;
      }
      if (k == 2) {  // cp(pi) = CZ
        out.push_back(make2(GateKind::kCZ, op.qubit(0), op.qubit(1)));
        return out;
      }
      return std::nullopt;  // CS / CSdg are not Clifford
    }
    case GateKind::kCRZ: {
      // Controlled rotations are 4*pi-periodic: crz(pi) = Sdg_c * CZ,
      // crz(2pi) = Z_c, crz(3pi) = S_c * CZ.
      const double m = std::remainder(op.param(0), 4.0 * la::kPi);
      int k = -1;
      for (int cand = -2; cand <= 2; ++cand) {
        if (std::abs(m - cand * la::kPi) < 1e-9) {
          k = ((cand % 4) + 4) % 4;
          break;
        }
      }
      if (k < 0) {
        return std::nullopt;
      }
      const int c = op.qubit(0);
      const int tq = op.qubit(1);
      switch (k) {
        case 0:
          return out;
        case 1:
          out.push_back(make1(GateKind::kSdg, c));
          out.push_back(make2(GateKind::kCZ, c, tq));
          return out;
        case 2:
          out.push_back(make1(GateKind::kZ, c));
          return out;
        case 3:
          out.push_back(make1(GateKind::kS, c));
          out.push_back(make2(GateKind::kCZ, c, tq));
          return out;
        default:
          return std::nullopt;
      }
    }
    case GateKind::kRZZ: {
      const int k = quarter_turns(op.param(0));
      if (k < 0) {
        return std::nullopt;
      }
      append_rzz(out, k, op.qubit(0), op.qubit(1));
      return out;
    }
    case GateKind::kRXX: {
      const int k = quarter_turns(op.param(0));
      if (k < 0) {
        return std::nullopt;
      }
      if (k != 0) {
        out.push_back(make1(GateKind::kH, op.qubit(0)));
        out.push_back(make1(GateKind::kH, op.qubit(1)));
        append_rzz(out, k, op.qubit(0), op.qubit(1));
        out.push_back(make1(GateKind::kH, op.qubit(0)));
        out.push_back(make1(GateKind::kH, op.qubit(1)));
      }
      return out;
    }
    case GateKind::kRYY: {
      const int k = quarter_turns(op.param(0));
      if (k < 0) {
        return std::nullopt;
      }
      if (k != 0) {
        out.push_back(make1(GateKind::kSXdg, op.qubit(0)));
        out.push_back(make1(GateKind::kSXdg, op.qubit(1)));
        append_rzz(out, k, op.qubit(0), op.qubit(1));
        out.push_back(make1(GateKind::kSX, op.qubit(0)));
        out.push_back(make1(GateKind::kSX, op.qubit(1)));
      }
      return out;
    }
    case GateKind::kRZX: {
      // Z on operand 0, X on operand 1: conjugate rzz by H on operand 1.
      const int k = quarter_turns(op.param(0));
      if (k < 0) {
        return std::nullopt;
      }
      if (k != 0) {
        out.push_back(make1(GateKind::kH, op.qubit(1)));
        append_rzz(out, k, op.qubit(0), op.qubit(1));
        out.push_back(make1(GateKind::kH, op.qubit(1)));
      }
      return out;
    }
    case GateKind::kU3: {
      // Clifford only at quarter-turn Euler angles; conservative: treat as
      // non-Clifford (Optimize1qGates normalises these first).
      return std::nullopt;
    }
    default:
      return std::nullopt;
  }
}

bool is_clifford_circuit(const ir::Circuit& circuit) {
  for (const Operation& op : circuit.ops()) {
    if (!as_clifford_ops(op).has_value()) {
      return false;
    }
  }
  return true;
}

}  // namespace qrc::clifford

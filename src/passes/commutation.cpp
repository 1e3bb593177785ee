#include "passes/commutation.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "ir/sim.hpp"
#include "la/complex.hpp"

namespace qrc::passes {

namespace {

using ir::GateKind;
using ir::Operation;

bool is_x_type_1q(GateKind k) {
  return k == GateKind::kX || k == GateKind::kSX || k == GateKind::kSXdg ||
         k == GateKind::kRX;
}

/// Widest joint support the numeric check simulates.
constexpr std::size_t kMaxSupport = 5;

/// The check's input states: two Gaussian random states (seeds 777 and 778)
/// per support width, indexed [2 * width + trial]. Built once; every query
/// applies its ops to copies.
const std::vector<ir::Statevector>& commutation_inputs() {
  static const std::vector<ir::Statevector> inputs = [] {
    std::vector<ir::Statevector> out;
    for (std::size_t width = 0; width <= kMaxSupport; ++width) {
      for (std::uint64_t trial = 0; trial < 2; ++trial) {
        out.push_back(
            ir::Statevector::random(static_cast<int>(width), 777 + trial));
      }
    }
    return out;
  }();
  return inputs;
}

/// Exact commutation via simulation on the joint support (re-indexed):
/// AB and BA are applied to both input states, and must agree up to one
/// global phase (the overlaps and tolerances of ir::circuits_equivalent
/// with atol 1e-9).
bool numeric_commute(const Operation& a, const Operation& b) {
  std::vector<int> support;
  for (const int q : a.qubits()) {
    support.push_back(q);
  }
  for (const int q : b.qubits()) {
    if (std::find(support.begin(), support.end(), q) == support.end()) {
      support.push_back(q);
    }
  }
  if (support.size() > kMaxSupport) {
    return false;  // conservative
  }
  std::sort(support.begin(), support.end());
  const auto local = [&](int q) {
    return static_cast<int>(std::find(support.begin(), support.end(), q) -
                            support.begin());
  };
  Operation local_a = a;
  Operation local_b = b;
  for (int i = 0; i < a.num_qubits(); ++i) {
    local_a.set_qubit(i, local(a.qubit(i)));
  }
  for (int i = 0; i < b.num_qubits(); ++i) {
    local_b.set_qubit(i, local(b.qubit(i)));
  }
  constexpr double kAtol = 1e-9;
  const std::size_t first = 2 * support.size();
  la::cplx ref_phase{0.0, 0.0};
  for (std::size_t t = 0; t < 2; ++t) {
    ir::Statevector ab = commutation_inputs()[first + t];
    ir::Statevector ba = ab;
    ab.apply(local_a);
    ab.apply(local_b);
    ba.apply(local_b);
    ba.apply(local_a);
    const la::cplx overlap = ab.inner_product(ba);
    if (std::abs(std::abs(overlap) - 1.0) > kAtol) {
      return false;
    }
    if (t == 0) {
      ref_phase = overlap;
    } else if (std::abs(overlap - ref_phase) > kAtol * 10.0) {
      return false;
    }
  }
  return true;
}

}  // namespace

bool ops_commute(const Operation& a, const Operation& b) {
  if (!a.is_unitary() || !b.is_unitary()) {
    return false;
  }
  if (!a.overlaps(b)) {
    return true;
  }
  const auto& ia = a.info();
  const auto& ib = b.info();
  // Fast path: two diagonal gates always commute.
  if (ia.is_diagonal && ib.is_diagonal) {
    return true;
  }
  // Fast paths around CX, the dominant two-qubit gate.
  const auto cx_rule = [](const Operation& cx,
                          const Operation& other) -> int {
    // returns 1 = commute, 0 = don't know, -1 = no fast answer but likely
    // not commuting.
    if (cx.kind() != GateKind::kCX) {
      return 0;
    }
    if (other.num_qubits() == 1) {
      const int q = other.qubit(0);
      if (q == cx.qubit(0)) {  // control
        return other.info().is_diagonal ? 1 : -1;
      }
      if (q == cx.qubit(1)) {  // target
        return is_x_type_1q(other.kind()) ? 1 : -1;
      }
    }
    if (other.kind() == GateKind::kCX) {
      const bool share_control = other.qubit(0) == cx.qubit(0);
      const bool share_target = other.qubit(1) == cx.qubit(1);
      const bool cross = other.qubit(0) == cx.qubit(1) ||
                         other.qubit(1) == cx.qubit(0);
      if (share_control && share_target) {
        return 1;  // identical pair
      }
      if (cross) {
        return -1;
      }
      if (share_control || share_target) {
        return 1;
      }
    }
    return 0;
  };
  const int ab = cx_rule(a, b);
  if (ab == 1) {
    return true;
  }
  if (ab == -1) {
    return numeric_commute(a, b);
  }
  const int ba = cx_rule(b, a);
  if (ba == 1) {
    return true;
  }
  return numeric_commute(a, b);
}

}  // namespace qrc::passes

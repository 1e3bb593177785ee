#include "passes/layout/layout.hpp"

#include <algorithm>
#include <map>
#include <numeric>
#include <random>
#include <set>
#include <stdexcept>

#include "passes/routing/sabre.hpp"

namespace qrc::passes {

namespace {

using device::CouplingMap;
using ir::Circuit;

std::vector<int> trivial_layout(int n) {
  std::vector<int> out(static_cast<std::size_t>(n));
  std::iota(out.begin(), out.end(), 0);
  return out;
}

/// Interaction degree of each logical qubit (number of distinct partners).
std::vector<int> interaction_degrees(const Circuit& circuit) {
  std::set<std::pair<int, int>> edges;
  for (const ir::Operation& op : circuit.ops()) {
    if (op.is_unitary() && op.num_qubits() >= 2) {
      for (int i = 0; i < op.num_qubits(); ++i) {
        for (int j = i + 1; j < op.num_qubits(); ++j) {
          edges.insert({std::min(op.qubit(i), op.qubit(j)),
                        std::max(op.qubit(i), op.qubit(j))});
        }
      }
    }
  }
  std::vector<int> deg(static_cast<std::size_t>(circuit.num_qubits()), 0);
  for (const auto& [a, b] : edges) {
    ++deg[static_cast<std::size_t>(a)];
    ++deg[static_cast<std::size_t>(b)];
  }
  return deg;
}

/// Densest connected physical subset of size n, grown greedily from every
/// seed; logical qubits are matched by interaction degree to subset degree.
std::vector<int> dense_layout(const Circuit& circuit,
                              const device::Device& device) {
  const CouplingMap& cm = device.coupling();
  const int n = circuit.num_qubits();
  const int m = device.num_qubits();

  std::vector<int> best_set;
  int best_edges = -1;
  for (int seed_q = 0; seed_q < m; ++seed_q) {
    std::vector<int> set{seed_q};
    std::set<int> in_set{seed_q};
    int internal_edges = 0;
    for (int step = 1; step < n; ++step) {
      int best_v = -1;
      int best_gain = -1;
      for (const int v0 : set) {
        for (const int v : cm.neighbors(v0)) {
          if (in_set.contains(v)) {
            continue;
          }
          int gain = 0;
          for (const int u : cm.neighbors(v)) {
            if (in_set.contains(u)) {
              ++gain;
            }
          }
          if (gain > best_gain || (gain == best_gain && v < best_v)) {
            best_gain = gain;
            best_v = v;
          }
        }
      }
      if (best_v < 0) {
        break;  // device disconnected relative to this seed
      }
      set.push_back(best_v);
      in_set.insert(best_v);
      internal_edges += best_gain;
    }
    if (static_cast<int>(set.size()) == n && internal_edges > best_edges) {
      best_edges = internal_edges;
      best_set = set;
    }
  }
  if (best_set.empty()) {
    return trivial_layout(n);
  }

  // Rank physical qubits by internal degree, logical by interaction degree.
  std::vector<int> phys_rank = best_set;
  const std::set<int> in_best(best_set.begin(), best_set.end());
  std::sort(phys_rank.begin(), phys_rank.end(), [&](int a, int b) {
    const auto internal_deg = [&](int q) {
      int d = 0;
      for (const int u : cm.neighbors(q)) {
        if (in_best.contains(u)) {
          ++d;
        }
      }
      return d;
    };
    const int da = internal_deg(a);
    const int db = internal_deg(b);
    return da != db ? da > db : a < b;
  });
  const std::vector<int> ldeg = interaction_degrees(circuit);
  std::vector<int> logical_rank(static_cast<std::size_t>(n));
  std::iota(logical_rank.begin(), logical_rank.end(), 0);
  std::sort(logical_rank.begin(), logical_rank.end(), [&](int a, int b) {
    const int da = ldeg[static_cast<std::size_t>(a)];
    const int db = ldeg[static_cast<std::size_t>(b)];
    return da != db ? da > db : a < b;
  });

  std::vector<int> layout(static_cast<std::size_t>(n), -1);
  for (int i = 0; i < n; ++i) {
    layout[static_cast<std::size_t>(
        logical_rank[static_cast<std::size_t>(i)])] =
        phys_rank[static_cast<std::size_t>(i)];
  }
  return layout;
}

/// True if every pair of qubits that a unitary gate acts on (a 3+ qubit
/// gate counts as all its pairs) sits on coupled physical qubits.
bool interactions_coupled(const Circuit& circuit,
                          const std::vector<int>& layout,
                          const CouplingMap& cm) {
  for (const ir::Operation& op : circuit.ops()) {
    if (!op.is_unitary()) {
      continue;
    }
    for (int i = 0; i < op.num_qubits(); ++i) {
      for (int j = i + 1; j < op.num_qubits(); ++j) {
        if (!cm.are_coupled(layout[static_cast<std::size_t>(op.qubit(i))],
                            layout[static_cast<std::size_t>(op.qubit(j))])) {
          return false;
        }
      }
    }
  }
  return true;
}

/// SABRE layout: start from a seeded random placement, refine by routing
/// forward and backward; the placement surviving the iterations becomes
/// the initial layout. Refinement needs only where the swaps move the
/// logical qubits, so it runs the swap search without emitting gates.
std::vector<int> sabre_layout(const Circuit& original,
                              const device::Device& device,
                              std::uint64_t seed) {
  const int n = original.num_qubits();
  const int m = device.num_qubits();
  std::mt19937_64 rng(seed * 31337 + 5);
  std::vector<int> phys(static_cast<std::size_t>(m));
  std::iota(phys.begin(), phys.end(), 0);
  std::shuffle(phys.begin(), phys.end(), rng);
  std::vector<int> layout(phys.begin(),
                          phys.begin() + static_cast<std::ptrdiff_t>(n));

  // SabreSwap inserts a swap only for a blocked interaction. When the start
  // placement couples every one, each refinement pass emits no swap and
  // returns the identity permutation, so the placement is already final.
  if (interactions_coupled(original, layout, device.coupling())) {
    return layout;
  }

  // Routing requires arity <= 2; for layout purposes a 3+ qubit gate is a
  // clique of pairwise interactions, so build a 2q proxy circuit.
  Circuit circuit(n, original.name());
  for (const ir::Operation& op : original.ops()) {
    if (op.is_unitary() && op.num_qubits() > 2) {
      for (int i = 0; i < op.num_qubits(); ++i) {
        for (int j = i + 1; j < op.num_qubits(); ++j) {
          circuit.cx(op.qubit(i), op.qubit(j));
        }
      }
    } else if (op.kind() != ir::GateKind::kBarrier) {
      circuit.append(op);
    }
  }

  // The shuffle is the start placement: slot l holds logical l at
  // layout[l], the idle physical qubits fill the remaining slots. Each
  // search leaves the placement where its swaps took the logical qubits,
  // which is where the next search starts.
  const Circuit reversed = circuit.inverse();
  const SabreDag forward_dag(circuit);
  const SabreDag reversed_dag(reversed);
  constexpr int kIterations = 3;
  for (int iter = 0; iter < kIterations; ++iter) {
    (void)sabre_search(circuit, forward_dag, device, phys, nullptr);
    (void)sabre_search(reversed, reversed_dag, device, phys, nullptr);
  }
  phys.resize(static_cast<std::size_t>(n));
  return phys;
}

}  // namespace

std::string_view layout_name(LayoutKind kind) {
  switch (kind) {
    case LayoutKind::kTrivial:
      return "TrivialLayout";
    case LayoutKind::kDense:
      return "DenseLayout";
    case LayoutKind::kSabre:
      return "SabreLayout";
  }
  return "unknown";
}

std::vector<int> compute_layout(LayoutKind kind, const ir::Circuit& circuit,
                                const device::Device& device,
                                std::uint64_t seed) {
  if (circuit.num_qubits() > device.num_qubits()) {
    throw std::invalid_argument("compute_layout: circuit wider than device");
  }
  switch (kind) {
    case LayoutKind::kTrivial:
      return trivial_layout(circuit.num_qubits());
    case LayoutKind::kDense:
      return dense_layout(circuit, device);
    case LayoutKind::kSabre:
      return sabre_layout(circuit, device, seed);
  }
  throw std::invalid_argument("compute_layout: unknown kind");
}

ir::Circuit apply_layout(const ir::Circuit& circuit,
                         const std::vector<int>& layout,
                         const device::Device& device) {
  if (static_cast<int>(layout.size()) != circuit.num_qubits()) {
    throw std::invalid_argument("apply_layout: layout size mismatch");
  }
  std::set<int> distinct(layout.begin(), layout.end());
  if (distinct.size() != layout.size()) {
    throw std::invalid_argument("apply_layout: layout not injective");
  }
  for (const int p : layout) {
    if (p < 0 || p >= device.num_qubits()) {
      throw std::invalid_argument("apply_layout: physical qubit out of range");
    }
  }
  return circuit.remapped(layout, device.num_qubits());
}

}  // namespace qrc::passes

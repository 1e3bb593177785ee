#include "passes/routing/routing.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <random>
#include <span>
#include <stdexcept>
#include <utility>

#include "passes/routing/sabre.hpp"

namespace qrc::passes {

namespace {

using device::CouplingMap;
using ir::Circuit;
using ir::GateKind;
using ir::Operation;

/// Mutable placement: tau[slot] = physical qubit currently holding slot's
/// state; inv[physical] = slot.
struct Placement {
  std::vector<int> tau;
  std::vector<int> inv;

  /// The identity placement of `n` slots.
  explicit Placement(int n) : Placement(identity(n)) {}

  /// Slot `s` held by physical `start[s]`; `start` is a permutation.
  explicit Placement(std::vector<int> start)
      : tau(std::move(start)), inv(tau.size()) {
    for (std::size_t s = 0; s < tau.size(); ++s) {
      inv[static_cast<std::size_t>(tau[s])] = static_cast<int>(s);
    }
  }

  static std::vector<int> identity(int n) {
    std::vector<int> out(static_cast<std::size_t>(n));
    std::iota(out.begin(), out.end(), 0);
    return out;
  }

  [[nodiscard]] int phys(int slot) const {
    return tau[static_cast<std::size_t>(slot)];
  }

  /// Swaps the contents of two physical qubits.
  void swap_physical(int pa, int pb) {
    const int sa = inv[static_cast<std::size_t>(pa)];
    const int sb = inv[static_cast<std::size_t>(pb)];
    std::swap(inv[static_cast<std::size_t>(pa)],
              inv[static_cast<std::size_t>(pb)]);
    std::swap(tau[static_cast<std::size_t>(sa)],
              tau[static_cast<std::size_t>(sb)]);
  }
};

/// Emits `op` with operands translated through the placement.
void emit(Circuit& out, const Operation& op, const Placement& p) {
  Operation copy = op;
  for (int i = 0; i < op.num_qubits(); ++i) {
    copy.set_qubit(i, p.phys(op.qubit(i)));
  }
  out.append(copy);
}

void emit_swap(Circuit& out, Placement& p, int pa, int pb, int& swap_count) {
  out.swap(pa, pb);
  p.swap_physical(pa, pb);
  ++swap_count;
}

void check_preconditions(const Circuit& circuit,
                         const device::Device& device) {
  if (circuit.num_qubits() != device.num_qubits()) {
    throw std::invalid_argument(
        "route: circuit must be laid out onto the device first");
  }
  if (!circuit.max_gate_arity_at_most(2)) {
    throw std::invalid_argument("route: synthesise 3+ qubit gates first");
  }
}

// ---------------------------------------------------------- BasicSwap ----

/// In-order router: moves one operand along a shortest path until coupled.
RoutingOutcome route_basic(const Circuit& circuit,
                           const device::Device& device) {
  const CouplingMap& cm = device.coupling();
  RoutingOutcome out{Circuit(circuit.num_qubits(), circuit.name()), {}, 0};
  out.routed.add_global_phase(circuit.global_phase());
  Placement p(circuit.num_qubits());
  for (const Operation& op : circuit.ops()) {
    if (op.is_unitary() && op.num_qubits() == 2) {
      int pa = p.phys(op.qubit(0));
      int pb = p.phys(op.qubit(1));
      if (!cm.are_coupled(pa, pb)) {
        const auto path = cm.shortest_path(pa, pb);
        // Walk pa toward pb, stopping one hop short.
        for (std::size_t i = 0; i + 2 < path.size(); ++i) {
          emit_swap(out.routed, p, path[i], path[i + 1], out.swap_count);
        }
      }
    }
    emit(out.routed, op, p);
  }
  out.permutation = p.tau;
  return out;
}

// ------------------------------------------------------ StochasticSwap ----

/// Randomised variant: several trials; per blocked gate, a random endpoint
/// walks a randomised shortest path. Keeps the trial with fewest swaps.
RoutingOutcome route_stochastic(const Circuit& circuit,
                                const device::Device& device,
                                std::uint64_t seed, int trials = 8) {
  const CouplingMap& cm = device.coupling();
  std::optional<RoutingOutcome> best;
  for (int trial = 0; trial < trials; ++trial) {
    std::mt19937_64 rng(seed * 7919 + static_cast<std::uint64_t>(trial));
    RoutingOutcome out{Circuit(circuit.num_qubits(), circuit.name()), {}, 0};
    out.routed.add_global_phase(circuit.global_phase());
    Placement p(circuit.num_qubits());
    for (const Operation& op : circuit.ops()) {
      if (op.is_unitary() && op.num_qubits() == 2) {
        int slot_a = op.qubit(0);
        int slot_b = op.qubit(1);
        while (!cm.are_coupled(p.phys(slot_a), p.phys(slot_b))) {
          // Random endpoint walks one random distance-reducing step.
          const bool move_a = std::uniform_int_distribution<int>(0, 1)(rng);
          const int src = move_a ? p.phys(slot_a) : p.phys(slot_b);
          const int dst = move_a ? p.phys(slot_b) : p.phys(slot_a);
          std::vector<int> closer;
          for (const int nbr : cm.neighbors(src)) {
            if (cm.distance(nbr, dst) < cm.distance(src, dst)) {
              closer.push_back(nbr);
            }
          }
          const int step =
              closer[std::uniform_int_distribution<std::size_t>(
                  0, closer.size() - 1)(rng)];
          emit_swap(out.routed, p, src, step, out.swap_count);
        }
      }
      emit(out.routed, op, p);
    }
    out.permutation = p.tau;
    if (!best.has_value() || out.swap_count < best->swap_count) {
      best = std::move(out);
    }
  }
  return *best;
}

// ----------------------------------------------------------- SabreSwap ----

/// SabreSwap from the identity placement (the search is defined below).
RoutingOutcome route_sabre(const Circuit& circuit,
                           const device::Device& device) {
  RoutingOutcome out{Circuit(circuit.num_qubits(), circuit.name()),
                     Placement::identity(circuit.num_qubits()), 0};
  out.routed.add_global_phase(circuit.global_phase());
  out.swap_count = sabre_search(circuit, SabreDag(circuit), device,
                                out.permutation, &out.routed);
  return out;
}

// -------------------------------------------------- TKET-style router ----

/// In-order router with geometric lookahead over the next pending 2q gates
/// (structurally mirrors tket's LexiRoute-style swap selection).
RoutingOutcome route_tket(const Circuit& circuit,
                          const device::Device& device) {
  const CouplingMap& cm = device.coupling();
  const auto& ops = circuit.ops();
  RoutingOutcome out{Circuit(circuit.num_qubits(), circuit.name()), {}, 0};
  out.routed.add_global_phase(circuit.global_phase());
  Placement p(circuit.num_qubits());
  constexpr int kLookahead = 12;
  constexpr double kDiscount = 0.7;

  for (int i = 0; i < static_cast<int>(ops.size()); ++i) {
    const Operation& op = ops[static_cast<std::size_t>(i)];
    if (op.is_two_qubit_unitary()) {
      int guard = 0;
      while (!cm.are_coupled(p.phys(op.qubit(0)), p.phys(op.qubit(1)))) {
        // Candidate swaps: edges adjacent to either endpoint.
        std::vector<std::pair<int, int>> candidates;
        for (const int slot : {op.qubit(0), op.qubit(1)}) {
          const int phys = p.phys(slot);
          for (const int nbr : cm.neighbors(phys)) {
            candidates.emplace_back(std::min(phys, nbr),
                                    std::max(phys, nbr));
          }
        }
        std::sort(candidates.begin(), candidates.end());
        candidates.erase(std::unique(candidates.begin(), candidates.end()),
                         candidates.end());

        double best_score = 0.0;
        int best = -1;
        for (int ci = 0; ci < static_cast<int>(candidates.size()); ++ci) {
          const auto sw = candidates[static_cast<std::size_t>(ci)];
          const auto remap = [&](int q) {
            if (q == sw.first) {
              return sw.second;
            }
            if (q == sw.second) {
              return sw.first;
            }
            return q;
          };
          // Weighted distance over this gate and the next pending 2q gates.
          double score = 0.0;
          double weight = 1.0;
          int counted = 0;
          for (int j = i; j < static_cast<int>(ops.size()) &&
                          counted < kLookahead;
               ++j) {
            const Operation& future = ops[static_cast<std::size_t>(j)];
            if (!future.is_two_qubit_unitary()) {
              continue;
            }
            const int pa = remap(p.phys(future.qubit(0)));
            const int pb = remap(p.phys(future.qubit(1)));
            score += weight * static_cast<double>(cm.distance(pa, pb) - 1);
            weight *= kDiscount;
            ++counted;
          }
          if (best < 0 || score < best_score - 1e-12) {
            best_score = score;
            best = ci;
          }
        }
        const auto chosen = candidates[static_cast<std::size_t>(best)];
        emit_swap(out.routed, p, chosen.first, chosen.second,
                  out.swap_count);
        // Defensive: guarantee progress eventually.
        if (++guard > 4 * circuit.num_qubits() + 16) {
          const auto path =
              cm.shortest_path(p.phys(op.qubit(0)), p.phys(op.qubit(1)));
          for (std::size_t k = 0; k + 2 < path.size(); ++k) {
            emit_swap(out.routed, p, path[k], path[k + 1], out.swap_count);
          }
        }
      }
    }
    emit(out.routed, op, p);
  }
  out.permutation = p.tau;
  return out;
}

}  // namespace

// ----------------------------------------------------------- SabreSwap ----

SabreDag::SabreDag(const Circuit& circuit) {
  const auto& ops = circuit.ops();
  const auto n_ops = ops.size();
  indegree.assign(n_ops, 0);
  child_begin.assign(n_ops + 1, 0);
  needs_coupling.resize(n_ops);
  for (std::size_t i = 0; i < n_ops; ++i) {
    needs_coupling[i] = ops[i].is_two_qubit_unitary() ? 1 : 0;
  }
  // Every wire edge (last op on the wire -> op) is visited twice: once to
  // size the child ranges, once to fill them in the same order.
  std::vector<int> last_on_wire(static_cast<std::size_t>(circuit.num_qubits()));
  const auto for_each_edge = [&](auto&& edge) {
    std::fill(last_on_wire.begin(), last_on_wire.end(), -1);
    for (int i = 0; i < static_cast<int>(n_ops); ++i) {
      const Operation& op = ops[static_cast<std::size_t>(i)];
      const auto visit = [&](int q) {
        int& last = last_on_wire[static_cast<std::size_t>(q)];
        if (last >= 0) {
          edge(last, i);
        }
        last = i;
      };
      if (op.kind() == GateKind::kBarrier) {
        for (int q = 0; q < circuit.num_qubits(); ++q) {
          visit(q);
        }
      } else {
        for (const int q : op.qubits()) {
          visit(q);
        }
      }
    }
  };
  for_each_edge([&](int from, int to) {
    ++child_begin[static_cast<std::size_t>(from) + 1];
    ++indegree[static_cast<std::size_t>(to)];
  });
  std::partial_sum(child_begin.begin(), child_begin.end(),
                   child_begin.begin());
  children.resize(static_cast<std::size_t>(child_begin.back()));
  std::vector<int> next(child_begin.begin(), child_begin.end() - 1);
  for_each_edge([&](int from, int to) {
    children[static_cast<std::size_t>(next[static_cast<std::size_t>(from)]++)] =
        to;
  });
}

int sabre_search(const Circuit& circuit, const SabreDag& dag,
                 const device::Device& device, std::vector<int>& placement,
                 Circuit* out) {
  const CouplingMap& cm = device.coupling();
  const auto& ops = circuit.ops();
  const int m = device.num_qubits();
  constexpr double kDecayStep = 0.001;
  constexpr int kDecayResetInterval = 5;
  constexpr double kExtendedWeight = 0.5;
  constexpr std::size_t kExtendedSize = 20;

  Placement p(std::move(placement));
  std::vector<int> indegree = dag.indegree;
  const auto children = [&](int idx) {
    return std::span<const int>(
        dag.children.data() + dag.child_begin[static_cast<std::size_t>(idx)],
        dag.children.data() +
            dag.child_begin[static_cast<std::size_t>(idx) + 1]);
  };
  const auto slots = [&](int idx) {
    const Operation& op = ops[static_cast<std::size_t>(idx)];
    return std::pair<int, int>(op.qubit(0), op.qubit(1));
  };
  const auto distance = [&](std::pair<int, int> s) {
    return cm.distance(p.phys(s.first), p.phys(s.second));
  };

  std::vector<int> ready;
  std::vector<int> blocked;
  for (int i = 0; i < static_cast<int>(ops.size()); ++i) {
    if (indegree[static_cast<std::size_t>(i)] == 0) {
      ready.push_back(i);
    }
  }

  // Decay per physical qubit; only the qubits in `decayed` differ from 1.
  std::vector<double> decay(static_cast<std::size_t>(m), 1.0);
  std::vector<int> decayed;
  const auto reset_decay = [&] {
    for (const int q : decayed) {
      decay[static_cast<std::size_t>(q)] = 1.0;
    }
    decayed.clear();
  };

  // Front layer (the blocked ready ops, slot-disjoint) and extended set
  // (their first 2q descendants) as slot pairs, with each slot's partners
  // in both. They change only when an op executes; a swap changes only
  // their distances, and with them the two sums.
  std::vector<std::pair<int, int>> front;
  std::vector<std::pair<int, int>> extended;
  std::vector<int> front_partner(static_cast<std::size_t>(m), -1);
  std::vector<int> ext_head(static_cast<std::size_t>(m), -1);
  std::vector<int> ext_next;     // per entry 2k + side of extended pair k
  std::vector<int> ext_partner;  // same indexing
  std::vector<std::uint32_t> seen(ops.size(), 0);
  std::uint32_t generation = 0;
  std::vector<int> frontier;
  bool layer_stale = true;
  int front_sum = 0;
  int ext_sum = 0;
  const auto sum_distances = [&] {
    front_sum = 0;
    for (const auto& pair : front) {
      front_sum += distance(pair);
    }
    ext_sum = 0;
    for (const auto& pair : extended) {
      ext_sum += distance(pair);
    }
  };
  const auto rebuild_layer = [&] {
    for (const auto& [a, b] : front) {
      front_partner[static_cast<std::size_t>(a)] = -1;
      front_partner[static_cast<std::size_t>(b)] = -1;
    }
    for (const auto& [a, b] : extended) {
      ext_head[static_cast<std::size_t>(a)] = -1;
      ext_head[static_cast<std::size_t>(b)] = -1;
    }
    front.clear();
    for (const int idx : ready) {
      const auto [a, b] = slots(idx);
      front.emplace_back(a, b);
      front_partner[static_cast<std::size_t>(a)] = b;
      front_partner[static_cast<std::size_t>(b)] = a;
    }
    extended.clear();
    if (++generation == 0) {
      std::fill(seen.begin(), seen.end(), 0);
      generation = 1;
    }
    frontier = ready;
    for (std::size_t head = 0;
         head < frontier.size() && extended.size() < kExtendedSize; ++head) {
      for (const int child : children(frontier[head])) {
        if (seen[static_cast<std::size_t>(child)] == generation) {
          continue;
        }
        seen[static_cast<std::size_t>(child)] = generation;
        if (dag.needs_coupling[static_cast<std::size_t>(child)] != 0) {
          extended.push_back(slots(child));
        }
        frontier.push_back(child);
      }
    }
    ext_next.resize(2 * extended.size());
    ext_partner.resize(2 * extended.size());
    for (int k = 0; k < static_cast<int>(extended.size()); ++k) {
      const auto [a, b] = extended[static_cast<std::size_t>(k)];
      const auto e = static_cast<std::size_t>(2 * k);
      ext_next[e] = std::exchange(ext_head[static_cast<std::size_t>(a)], 2 * k);
      ext_partner[e] = b;
      ext_next[e + 1] =
          std::exchange(ext_head[static_cast<std::size_t>(b)], 2 * k + 1);
      ext_partner[e + 1] = a;
    }
    sum_distances();
    layer_stale = false;
  };

  // Distance change of the pairs on slot `s` when it moves from physical
  // `from` to `to`, skipping the pair shared with `partner_slot` (a swap
  // keeps that distance). Adds to the front and extended deltas.
  const auto pair_deltas = [&](int s, int from, int to, int partner_slot,
                               int& front_delta, int& ext_delta) {
    const auto moved = [&](int other) {
      if (other == partner_slot) {
        return 0;
      }
      const int at = p.phys(other);
      return cm.distance(to, at) - cm.distance(from, at);
    };
    if (const int other = front_partner[static_cast<std::size_t>(s)];
        other >= 0) {
      front_delta += moved(other);
    }
    for (int e = ext_head[static_cast<std::size_t>(s)]; e >= 0;
         e = ext_next[static_cast<std::size_t>(e)]) {
      ext_delta += moved(ext_partner[static_cast<std::size_t>(e)]);
    }
  };

  const auto apply_swap = [&](int pa, int pb) {
    if (out != nullptr) {
      out->swap(pa, pb);
    }
    p.swap_physical(pa, pb);
  };

  int swap_count = 0;
  int swaps_since_progress = 0;
  std::size_t executed = 0;
  const std::size_t total = ops.size();
  // Candidate swap (a, b), a < b, packed as a << 32 | b: sorting the keys
  // sorts the pairs.
  std::vector<std::uint64_t> candidates;
  while (executed < total) {
    // Execute everything executable. Ops released here are checked in the
    // same sweep, so what stays in `ready` is blocked.
    for (std::size_t i = 0; i < ready.size(); ++i) {
      const int idx = ready[i];
      if (dag.needs_coupling[static_cast<std::size_t>(idx)] != 0) {
        const auto [a, b] = slots(idx);
        if (!cm.are_coupled(p.phys(a), p.phys(b))) {
          blocked.push_back(idx);
          continue;
        }
      }
      if (out != nullptr) {
        emit(*out, ops[static_cast<std::size_t>(idx)], p);
      }
      ++executed;
      for (const int child : children(idx)) {
        if (--indegree[static_cast<std::size_t>(child)] == 0) {
          ready.push_back(child);
        }
      }
      swaps_since_progress = 0;
      reset_decay();
      layer_stale = true;
    }
    ready.swap(blocked);
    blocked.clear();
    if (executed >= total) {
      break;
    }
    if (layer_stale) {
      rebuild_layer();
    }

    // Candidate swaps: edges touching any physical qubit involved in the
    // front layer, in sorted order.
    candidates.clear();
    for (const auto& [a, b] : front) {
      for (const int phys : {p.phys(a), p.phys(b)}) {
        for (const int nbr : cm.neighbors(phys)) {
          candidates.push_back(
              static_cast<std::uint64_t>(std::min(phys, nbr)) << 32 |
              static_cast<std::uint64_t>(std::max(phys, nbr)));
        }
      }
    }
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());

    // Score = decay * (mean front distance + weight * mean extended
    // distance) after the swap. The sums are integers, so adding a swap's
    // integer deltas gives exactly the sums a full rescan would.
    double best_score = 0.0;
    int best_idx = -1;
    int best_front_delta = 0;
    int best_ext_delta = 0;
    for (int ci = 0; ci < static_cast<int>(candidates.size()); ++ci) {
      const auto key = candidates[static_cast<std::size_t>(ci)];
      const auto a = static_cast<int>(key >> 32);
      const auto b = static_cast<int>(key & 0xffffffffU);
      const int sa = p.inv[static_cast<std::size_t>(a)];
      const int sb = p.inv[static_cast<std::size_t>(b)];
      int front_delta = 0;
      int ext_delta = 0;
      pair_deltas(sa, a, b, sb, front_delta, ext_delta);
      pair_deltas(sb, b, a, sa, front_delta, ext_delta);
      const double basic = static_cast<double>(front_sum + front_delta) /
                           static_cast<double>(front.size());
      double ext = 0.0;
      if (!extended.empty()) {
        ext = static_cast<double>(ext_sum + ext_delta) /
              static_cast<double>(extended.size());
      }
      const double d = std::max(decay[static_cast<std::size_t>(a)],
                                decay[static_cast<std::size_t>(b)]);
      const double s = d * (basic + kExtendedWeight * ext);
      if (best_idx < 0 || s < best_score - 1e-12) {
        best_score = s;
        best_idx = ci;
        best_front_delta = front_delta;
        best_ext_delta = ext_delta;
      }
    }
    if (best_idx < 0) {
      throw std::logic_error("sabre: no candidate swaps");
    }
    const auto key = candidates[static_cast<std::size_t>(best_idx)];
    const auto chosen_a = static_cast<int>(key >> 32);
    const auto chosen_b = static_cast<int>(key & 0xffffffffU);
    apply_swap(chosen_a, chosen_b);
    ++swap_count;
    front_sum += best_front_delta;
    ext_sum += best_ext_delta;
    decay[static_cast<std::size_t>(chosen_a)] += kDecayStep;
    decay[static_cast<std::size_t>(chosen_b)] += kDecayStep;
    decayed.push_back(chosen_a);
    decayed.push_back(chosen_b);
    if (++swaps_since_progress % kDecayResetInterval == 0) {
      reset_decay();
    }
    // Defensive bound against pathological non-progress.
    if (swaps_since_progress > 10 * m + 100) {
      // Fall back to a forced shortest-path move for the first blocked op.
      const auto [a, b] = front.front();
      const auto path = cm.shortest_path(p.phys(a), p.phys(b));
      for (std::size_t i = 0; i + 2 < path.size(); ++i) {
        apply_swap(path[i], path[i + 1]);
        ++swap_count;
      }
      sum_distances();
      swaps_since_progress = 0;
    }
  }
  placement = std::move(p.tau);
  return swap_count;
}

std::string_view routing_name(RoutingKind kind) {
  switch (kind) {
    case RoutingKind::kBasicSwap:
      return "BasicSwap";
    case RoutingKind::kStochasticSwap:
      return "StochasticSwap";
    case RoutingKind::kSabreSwap:
      return "SabreSwap";
    case RoutingKind::kTketRouting:
      return "TketRouting";
  }
  return "unknown";
}

RoutingOutcome route(RoutingKind kind, const ir::Circuit& circuit,
                     const device::Device& device, std::uint64_t seed) {
  check_preconditions(circuit, device);

  // A measure carries no explicit classical operand — `measure q[i]`
  // records into c[i] — so its classical record is tied to the physical
  // wire it is emitted on. A measure emitted mid-stream goes stale the
  // moment a later swap moves a different slot onto that wire (the routed
  // circuit then measures two slots into one classical bit and leaves
  // another bit unwritten). Terminal measures (no later op on their wire)
  // are therefore split off here, the body is routed, and the measures are
  // re-emitted through the *final* placement — uniformly for every router,
  // including the DAG-driven SABRE which otherwise schedules them early.
  const auto& ops = circuit.ops();
  std::vector<bool> deferred(ops.size(), false);
  std::vector<bool> wire_busy(static_cast<std::size_t>(circuit.num_qubits()),
                              false);
  bool any_deferred = false;
  for (int i = static_cast<int>(ops.size()) - 1; i >= 0; --i) {
    const Operation& op = ops[static_cast<std::size_t>(i)];
    if (op.kind() == GateKind::kMeasure &&
        !wire_busy[static_cast<std::size_t>(op.qubit(0))]) {
      deferred[static_cast<std::size_t>(i)] = true;
      any_deferred = true;
      continue;
    }
    if (op.kind() == GateKind::kBarrier) {
      std::fill(wire_busy.begin(), wire_busy.end(), true);
      continue;
    }
    for (const int q : op.qubits()) {
      wire_busy[static_cast<std::size_t>(q)] = true;
    }
  }

  Circuit body(circuit.num_qubits(), circuit.name());
  body.add_global_phase(circuit.global_phase());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (!deferred[i]) {
      body.append(ops[i]);
    }
  }

  const auto run = [&](const Circuit& c) {
    switch (kind) {
      case RoutingKind::kBasicSwap:
        return route_basic(c, device);
      case RoutingKind::kStochasticSwap:
        return route_stochastic(c, device, seed);
      case RoutingKind::kSabreSwap:
        return route_sabre(c, device);
      case RoutingKind::kTketRouting:
        return route_tket(c, device);
    }
    throw std::invalid_argument("route: unknown kind");
  };

  RoutingOutcome out = run(body);
  if (any_deferred) {
    for (std::size_t i = 0; i < ops.size(); ++i) {
      if (deferred[i]) {
        Operation copy = ops[i];
        copy.set_qubit(0, out.permutation[static_cast<std::size_t>(
                               copy.qubit(0))]);
        out.routed.append(copy);
      }
    }
  }
  return out;
}

}  // namespace qrc::passes

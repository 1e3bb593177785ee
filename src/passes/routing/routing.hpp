/// \file routing.hpp
/// \brief Routing passes: make every two-qubit gate act on coupled qubits
///        by inserting SWAP gates. Four algorithms mirroring the paper's
///        action set: BasicSwap, StochasticSwap, SabreSwap (lookahead +
///        decay heuristic per Li et al.) and a TKET-style lookahead router.
#pragma once

#include <cstdint>
#include <vector>

#include "device/device.hpp"
#include "ir/circuit.hpp"

namespace qrc::passes {

enum class RoutingKind : std::uint8_t {
  kBasicSwap,
  kStochasticSwap,
  kSabreSwap,
  kTketRouting,
};

[[nodiscard]] std::string_view routing_name(RoutingKind kind);

/// Result of routing a circuit whose qubits are already physical slots
/// (i.e. after a layout has been applied).
struct RoutingOutcome {
  ir::Circuit routed;  ///< same width; every 2q gate coupled; SWAPs inserted
  /// permutation[slot] = physical qubit finally holding the state that
  /// started on `slot`; size = circuit.num_qubits().
  std::vector<int> permutation;
  int swap_count = 0;
};

/// Routes `circuit` on `device`. Precondition: circuit.num_qubits() ==
/// device.num_qubits() (apply a layout first). Deterministic: only
/// StochasticSwap reads `seed`; BasicSwap, SabreSwap and TketRouting give
/// the same result for every seed. 3+ qubit gates must have been
/// synthesised away beforehand.
[[nodiscard]] RoutingOutcome route(RoutingKind kind,
                                   const ir::Circuit& circuit,
                                   const device::Device& device,
                                   std::uint64_t seed = 1);

}  // namespace qrc::passes

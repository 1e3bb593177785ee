/// \file sabre.hpp
/// \brief The SABRE swap search (lookahead + decay heuristic, Li et al.),
///        shared by SabreSwap routing and SabreLayout refinement.
#pragma once

#include <cstdint>
#include <vector>

#include "device/device.hpp"
#include "ir/circuit.hpp"

namespace qrc::passes {

/// Wire dependencies of a circuit's ops in flat arrays: op `i` waits on
/// `indegree[i]` earlier ops and unlocks
/// `children[child_begin[i] .. child_begin[i + 1])`, in op order. A barrier
/// orders every wire. It depends only on the circuit, so one DAG serves
/// every search over that circuit.
struct SabreDag {
  explicit SabreDag(const ir::Circuit& circuit);

  std::vector<int> indegree;
  std::vector<int> child_begin;
  std::vector<int> children;
  /// 1 for ops that need coupled operands (two-qubit unitaries).
  std::vector<std::uint8_t> needs_coupling;
};

/// Runs the SABRE search over `circuit`, whose operands are slots.
/// `placement[slot]` is the physical qubit holding `slot`; it must cover
/// every physical qubit of `device` (slots at or above
/// circuit.num_qubits() are idle) and is left holding the final placement.
/// Swaps are chosen from physical qubits alone, so idle slots never change
/// the result. When `out` is given, the routed ops and swaps are appended
/// to it. Deterministic; returns the number of swaps inserted.
int sabre_search(const ir::Circuit& circuit, const SabreDag& dag,
                 const device::Device& device, std::vector<int>& placement,
                 ir::Circuit* out);

}  // namespace qrc::passes

#include "passes/opt/consolidate.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "passes/blocks.hpp"
#include "passes/two_qubit_decomp.hpp"

namespace qrc::passes {

namespace {

using ir::Circuit;
using ir::Operation;

/// The staged resynthesis of every block unitary seen in one pass run,
/// keyed on the exact bits of the unitary. Each stage is pure, so a hit
/// holds what fresh stages would compute; the entry keeps every stage that
/// has run, and runs a later one only when a block's cost asks for it.
/// Identical blocks repeat within a circuit, and every block a sweep
/// leaves unchanged comes back in the next sweep.
class ResynthMemo {
 public:
  /// The resynthesis of `u` when it has fewer gates than `cost`, else
  /// nullptr; valid until the memo is destroyed.
  const Circuit* replacement(const la::Mat4& u, GateCounts cost) {
    Key key;
    for (int i = 0; i < 16; ++i) {
      const la::cplx z = u(i / 4, i % 4);
      key[static_cast<std::size_t>(2 * i)] =
          std::bit_cast<std::uint64_t>(z.real());
      key[static_cast<std::size_t>(2 * i + 1)] =
          std::bit_cast<std::uint64_t>(z.imag());
    }
    return results_.try_emplace(key, u).first->second.replacement(cost);
  }

 private:
  using Key = std::array<std::uint64_t, 32>;
  struct KeyHash {
    std::size_t operator()(const Key& key) const {
      std::uint64_t h = 0xcbf29ce484222325ULL;
      for (const std::uint64_t word : key) {
        h = (h ^ word) * 0x100000001b3ULL;
      }
      return static_cast<std::size_t>(h ^ (h >> 32));
    }
  };
  std::unordered_map<Key, StagedResynthesis, KeyHash> results_;
};

/// One consolidation sweep over the 2q blocks of `circuit`;
/// `min_two_qubit` selects which blocks are attacked.
bool consolidate_once(Circuit& circuit, int min_two_qubit,
                      ResynthMemo& memo) {
  const auto blocks = collect_2q_blocks(circuit);
  if (blocks.empty()) {
    return false;
  }
  std::vector<bool> removed(circuit.size(), false);
  std::vector<std::pair<int, std::vector<Operation>>> insertions;
  double phase = 0.0;
  bool changed = false;

  for (const TwoQubitBlock& blk : blocks) {
    if (blk.two_qubit_count < min_two_qubit) {
      continue;
    }
    // Local 2-qubit circuit: qubit_a -> 0, qubit_b -> 1.
    Circuit mini(2);
    for (const int idx : blk.op_indices) {
      Operation op = circuit.ops()[static_cast<std::size_t>(idx)];
      for (int k = 0; k < op.num_qubits(); ++k) {
        op.set_qubit(k, op.qubit(k) == blk.qubit_a ? 0 : 1);
      }
      mini.append(op);
    }
    const Circuit* resynth = memo.replacement(
        two_qubit_circuit_unitary(mini),
        {blk.two_qubit_count, static_cast<int>(blk.op_indices.size())});
    if (resynth == nullptr) {
      continue;
    }
    std::vector<Operation> mapped;
    mapped.reserve(resynth->size());
    for (Operation op : resynth->ops()) {
      for (int k = 0; k < op.num_qubits(); ++k) {
        op.set_qubit(k, op.qubit(k) == 0 ? blk.qubit_a : blk.qubit_b);
      }
      mapped.push_back(op);
    }
    for (const int idx : blk.op_indices) {
      removed[static_cast<std::size_t>(idx)] = true;
    }
    insertions.emplace_back(blk.op_indices.back(), std::move(mapped));
    phase += resynth->global_phase();
    changed = true;
  }
  if (!changed) {
    return false;
  }

  Circuit rebuilt(circuit.num_qubits(), circuit.name());
  rebuilt.add_global_phase(circuit.global_phase() + phase);
  for (int i = 0; i < static_cast<int>(circuit.size()); ++i) {
    const auto ins = std::find_if(insertions.begin(), insertions.end(),
                                  [i](const auto& e) { return e.first == i; });
    if (ins != insertions.end()) {
      for (const Operation& op : ins->second) {
        rebuilt.append(op);
      }
    }
    if (!removed[static_cast<std::size_t>(i)]) {
      rebuilt.append(circuit.ops()[static_cast<std::size_t>(i)]);
    }
  }
  circuit = std::move(rebuilt);
  return true;
}

/// Iterates sweeps until convergence: resynthesised blocks can fuse with
/// neighbouring gates into new consolidatable blocks.
bool consolidate(Circuit& circuit, int min_two_qubit) {
  ResynthMemo memo;
  bool any = false;
  for (int round = 0; round < 8; ++round) {
    if (!consolidate_once(circuit, min_two_qubit, memo)) {
      break;
    }
    any = true;
  }
  return any;
}

}  // namespace

bool ConsolidateBlocks::run(ir::Circuit& circuit, const PassContext&) const {
  return consolidate(circuit, /*min_two_qubit=*/2);
}

bool PeepholeOptimise2Q::run(ir::Circuit& circuit, const PassContext&) const {
  return consolidate(circuit, /*min_two_qubit=*/1);
}

}  // namespace qrc::passes

/// \file engine.hpp
/// \brief Entry point of the policy-guided search engine: run one beam or
///        MCTS search over the compilation MDP for a circuit, using the
///        trained policy network for priors and the value network for
///        leaf bootstraps. The engine plans over bare CompilationStates
///        (CompilationEnv::peek_step) and batches every network
///        evaluation of a frontier / leaf batch into one
///        Mlp::forward_batch call with rows spread over a WorkerPool —
///        results are bitwise-deterministic for a fixed (seed, options)
///        pair regardless of the pool size (deadline-bounded runs
///        excepted: they stop on wall clock).
#pragma once

#include <string>
#include <vector>

#include "core/compilation_state.hpp"
#include "search/search.hpp"

namespace qrc::rl {
class Mlp;
class WorkerPool;
}  // namespace qrc::rl

namespace qrc::reward {
enum class RewardKind : std::uint8_t;
}

namespace qrc::search {

/// Everything the engine needs from the trained model. All pointers are
/// non-owning and must outlive the search.
struct SearchContext {
  const rl::Mlp* policy = nullptr;  ///< action priors
  const rl::Mlp* value = nullptr;   ///< leaf bootstraps
  reward::RewardKind reward{};      ///< terminal objective
  std::uint64_t seed = 1;           ///< drives stochastic passes
  int max_steps = 40;               ///< depth horizon
};

/// Outcome of one search run. When no terminal was found within the
/// budget, `found_terminal` is false and the caller falls back to its
/// greedy baseline (the anytime contract: search never loses reward).
struct SearchResult {
  bool found_terminal = false;
  core::CompilationState state;  ///< best terminal state
  std::vector<int> actions;      ///< action ids along its trajectory
  double reward = 0.0;
  SearchStats stats;
};

/// Transposition key of an MDP state: the exact circuit fingerprint
/// (ir::canonical_key) extended with the platform/device/layout
/// bookkeeping that distinguishes otherwise-identical circuits at
/// different compilation phases. States reached by commuting pass orders
/// collide on purpose — they are the same search node.
[[nodiscard]] std::string state_key(const core::CompilationState& state);

/// Runs the configured strategy. `pool` hosts the batched network
/// forwards and the parallel child expansions; it never affects results.
/// `progress`, when non-empty, is called once per search quantum (beam
/// depth / MCTS batch) with the best-so-far snapshot — observation only,
/// it cannot change the search outcome.
/// \throws std::invalid_argument on nonsense options (width < 1, ...).
[[nodiscard]] SearchResult run_search(const ir::Circuit& circuit,
                                      const SearchContext& context,
                                      const SearchOptions& options,
                                      rl::WorkerPool& pool,
                                      const ProgressFn& progress = {});

}  // namespace qrc::search

/// \file rollout.hpp
/// \brief The batched greedy-policy rollout core: one lockstep loop that
///        walks any number of episodes with a single batched policy
///        forward per step. Predictor::compile_all runs every compile
///        through it, searched ones included (their greedy baselines) —
///        one implementation, every caller bitwise-identical.
#pragma once

#include <cstdint>
#include <span>
#include <tuple>
#include <vector>

#include "core/compilation_env.hpp"

namespace qrc::rl {
class Mlp;
class WorkerPool;
}  // namespace qrc::rl

namespace qrc::core {

/// Cheap state fingerprint for cycle detection in deterministic rollouts.
/// Collisions only cost an extra banned action, never correctness.
using Fingerprint = std::tuple<std::size_t, int, int, double, int, bool,
                               const device::Device*>;

/// `mdp` is `state.state()`, which every caller already holds.
[[nodiscard]] Fingerprint fingerprint_of(const CompilationState& state,
                                         MdpState mdp);

/// Outcome of one greedy episode.
struct GreedyEpisode {
  CompilationState state;    ///< where the rollout ended
  std::vector<int> actions;  ///< attempted action ids, no-ops included
  double reward = 0.0;       ///< terminal reward (0 unless done)
  bool done = false;         ///< reached MdpState::kDone within the budget
};

/// Rolls out one greedy episode per circuit over bare CompilationStates
/// (no env allocation): every step gathers the observations of all
/// still-running episodes, issues ONE batched policy forward (rows spread
/// over `pool`), picks each episode's argmax among valid un-exhausted
/// actions, and steps the episodes in parallel. Deterministic greedy
/// rollouts can cycle — through single no-op actions, or pass pairs that
/// keep rewriting each other's output — so an action is banned whenever it
/// lands on an already-visited state and everything is unbanned on
/// genuine progress. An episode whose platform pick leaves no device wide
/// enough for the circuit ends at that pick (not done): no pass changes
/// the width, so Done is out of reach. Each episode's MdpState is computed
/// once per step, after its action, and serves the next mask, the
/// fingerprint and the dead-end check; a platform or device pick leaves
/// the circuit, and so the observation, as it was. `masked_feature` >= 0
/// zeroes that observation column at every inference step (the ablation
/// hook).
///
/// Per-step seeds follow CompilationEnv::step_seed(seed, 1, step), i.e.
/// the first episode of a fresh env — the contract that keeps these
/// rollouts and the env path bit-for-bit identical up to a dead-end pick,
/// which the env keeps stepping until truncation. beam(1) search returns
/// the greedy result bit for bit.
[[nodiscard]] std::vector<GreedyEpisode> run_greedy_episodes(
    const rl::Mlp& policy, std::span<const ir::Circuit> circuits,
    const CompilationEnvConfig& env_config, int masked_feature,
    rl::WorkerPool& pool);

}  // namespace qrc::core

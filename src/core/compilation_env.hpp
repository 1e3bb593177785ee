/// \file compilation_env.hpp
/// \brief The Gym-style environment for the compilation MDP: observations
///        are the seven circuit features, actions come from the registry,
///        and the sparse reward is paid on reaching Done (Section III-B).
#pragma once

#include <cstdint>
#include <memory>
#include <random>
#include <vector>

#include "core/actions.hpp"
#include "core/compilation_state.hpp"
#include "reward/reward.hpp"
#include "rl/env.hpp"

namespace qrc::core {

struct CompilationEnvConfig {
  reward::RewardKind reward = reward::RewardKind::kFidelity;
  int max_steps = 40;  ///< truncation horizon (reward 0)
  std::uint64_t seed = 1;
};

/// Samples a training circuit per episode and walks the Fig. 2 MDP.
class CompilationEnv final : public rl::Env {
 public:
  CompilationEnv(std::vector<ir::Circuit> circuits,
                 CompilationEnvConfig config);

  /// Shares an existing corpus instead of copying it — the cheap
  /// construction path behind VecEnv fan-out (N envs, one corpus).
  CompilationEnv(std::shared_ptr<const std::vector<ir::Circuit>> circuits,
                 CompilationEnvConfig config);

  /// A fresh env over the same (shared, never copied) corpus with its own
  /// RNG stream. Use one distinct seed per vectorized env.
  [[nodiscard]] std::unique_ptr<CompilationEnv> clone_with_seed(
      std::uint64_t seed) const;

  [[nodiscard]] int observation_size() const override;
  [[nodiscard]] int num_actions() const override;

  std::vector<double> reset() override;
  [[nodiscard]] std::vector<bool> action_mask() const override;
  rl::StepResult step(int action) override;

  /// Starts an episode on a *specific* circuit (used at inference time).
  std::vector<double> reset_with(const ir::Circuit& circuit);

  [[nodiscard]] const CompilationState& state() const { return state_; }

  // ---- bare-state path -----------------------------------------------
  // The greedy rollout core and the search engine walk the MDP over plain
  // CompilationState values: one state copy per child, no env clone, no
  // corpus shared_ptr churn, no RNG. (Cloning an env per search node used
  // to cost a corpus-vector allocation plus a second circuit copy per
  // expansion — the bare-state path is a single circuit copy, which
  // bench_search_quality measures as nodes/sec.) The env's own step() and
  // observe() are thin wrappers over these, so trajectories agree
  // bit-for-bit between the env, the rollout core and the search engine,
  // up to a platform pick that no device can hold: only the rollout core
  // ends the episode there.

  /// The deterministic per-step seed driving stochastic passes:
  /// episode 1, step d is what a fresh env seeded with `env_seed` uses on
  /// its d-th step after reset_with().
  [[nodiscard]] static std::uint64_t step_seed(std::uint64_t env_seed,
                                               std::uint64_t episode,
                                               int step);

  /// Feature observation of a bare state.
  /// \throws std::logic_error on a non-finite feature (poisoned input).
  [[nodiscard]] static std::vector<double> observe_state(
      const CompilationState& state);

  /// Applies `action` to `state` in place; `seed` drives stochastic
  /// passes. \throws std::out_of_range / std::logic_error on an invalid
  /// action, exactly like step().
  static void apply_action(CompilationState& state, int action,
                           std::uint64_t seed);

  /// apply_action() for a caller that already holds
  /// `mdp == state.state()`.
  static void apply_action(CompilationState& state, int action,
                           std::uint64_t seed, MdpState mdp);

  /// True for a platform or device pick: the circuit, and so its
  /// observation, is the same after the action as before.
  [[nodiscard]] static bool keeps_circuit(int action);

  /// Copy-then-apply: the cheap per-child expansion path for search.
  [[nodiscard]] static CompilationState peek_step(
      const CompilationState& state, int action, std::uint64_t seed);

 private:
  [[nodiscard]] std::vector<double> observe() const;

  std::shared_ptr<const std::vector<ir::Circuit>> circuits_;
  CompilationEnvConfig config_;
  const ActionRegistry& registry_;
  CompilationState state_;
  std::mt19937_64 rng_;
  int steps_in_episode_ = 0;
  std::uint64_t episode_counter_ = 0;
};

}  // namespace qrc::core

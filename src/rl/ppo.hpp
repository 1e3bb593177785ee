/// \file ppo.hpp
/// \brief Proximal Policy Optimization (Schulman et al., 2017) with the
///        clipped surrogate objective, GAE(lambda) advantages, entropy
///        regularisation and action masking — the learner the paper drives
///        through Stable-Baselines3, rebuilt natively.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "rl/adam.hpp"
#include "rl/mlp.hpp"

namespace qrc::obs {
class MetricsRegistry;
}  // namespace qrc::obs

namespace qrc::rl {

struct PpoConfig {
  int total_timesteps = 100000;
  int steps_per_update = 1024;  ///< rollout horizon
  int minibatch_size = 64;
  int epochs_per_update = 10;
  double gamma = 0.99;
  double gae_lambda = 0.95;
  double clip_range = 0.2;
  double learning_rate = 3e-4;
  double entropy_coef = 0.01;
  double value_coef = 0.5;
  double max_grad_norm = 0.5;
  std::vector<int> hidden_sizes = {64, 64};
  std::uint64_t seed = 1;
};

/// Per-update training statistics. Every field is a pure observation of
/// quantities the update computes anyway (or wall-clock timing), so
/// collecting them never perturbs the trained weights.
struct PpoUpdateStats {
  int update_index = 0;  ///< 0-based position in the training run
  int timesteps = 0;     ///< cumulative env steps after this update
  double mean_episode_reward = 0.0;
  double mean_episode_length = 0.0;  ///< steps, over episodes ended this update
  double policy_loss = 0.0;
  double value_loss = 0.0;
  double entropy = 0.0;
  /// Mean of (old_log_prob - new_log_prob) over all epoch samples — the
  /// usual first-order KL estimate (Schulman's approx_kl).
  double approx_kl = 0.0;
  /// Fraction of epoch samples whose ratio left [1-clip, 1+clip].
  double clip_fraction = 0.0;
  double env_steps_per_sec = 0.0;  ///< rollout + optimisation wall rate
  std::int64_t update_duration_us = 0;
  int episodes = 0;
};

/// The trained agent: policy and value networks plus the config used.
class PpoAgent {
 public:
  PpoAgent(int obs_size, int num_actions, const PpoConfig& config);

  /// Greedy (deterministic) action for inference.
  [[nodiscard]] int act_greedy(std::span<const double> observation,
                               const std::vector<bool>& mask) const;

  /// Stochastic action (used during training).
  [[nodiscard]] int act_sample(std::span<const double> observation,
                               const std::vector<bool>& mask,
                               std::mt19937_64& rng) const;

  [[nodiscard]] double value(std::span<const double> observation) const;

  void save(std::ostream& os) const;
  static PpoAgent load(std::istream& is);

  [[nodiscard]] Mlp& policy() { return policy_; }
  [[nodiscard]] Mlp& value_net() { return value_; }
  [[nodiscard]] const Mlp& policy() const { return policy_; }
  [[nodiscard]] const Mlp& value_net() const { return value_; }
  [[nodiscard]] const PpoConfig& config() const { return config_; }

 private:
  PpoConfig config_;
  Mlp policy_;
  Mlp value_;
};

class VecEnv;

/// Runs PPO on `envs` and returns the trained agent plus per-update stats.
/// It is the one trainer: a one-env run uses a one-env VecEnv. Each
/// update fills the `steps_per_update` horizon (rounded down to a multiple
/// of num_envs, minimum one round per env) in lockstep rounds: ONE batched
/// policy forward and ONE batched value forward over all N observations,
/// on the live networks (the optimizer writes them only in the epochs),
/// then sampling from per-env RNG streams and env stepping on the
/// VecEnv's pool. The epochs batch each minibatch likewise. All batched
/// math is bitwise-identical to the per-sample path, so the result is
/// bitwise-deterministic for a fixed (config.seed, envs.num_envs()) pair,
/// independent of the worker count.
/// `progress` (optional) runs after every update; `metrics` (optional)
/// receives the qrc_train_* families, observed without changing results.
PpoAgent train_ppo_vec(
    VecEnv& envs, const PpoConfig& config,
    std::vector<PpoUpdateStats>* stats_out = nullptr,
    const std::function<void(const PpoUpdateStats&)>& progress = {},
    obs::MetricsRegistry* metrics = nullptr);

}  // namespace qrc::rl

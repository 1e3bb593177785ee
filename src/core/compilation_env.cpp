#include "core/compilation_env.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "features/features.hpp"

namespace qrc::core {

CompilationEnv::CompilationEnv(std::vector<ir::Circuit> circuits,
                               CompilationEnvConfig config)
    : CompilationEnv(std::make_shared<const std::vector<ir::Circuit>>(
                         std::move(circuits)),
                     config) {}

CompilationEnv::CompilationEnv(
    std::shared_ptr<const std::vector<ir::Circuit>> circuits,
    CompilationEnvConfig config)
    : circuits_(std::move(circuits)),
      config_(config),
      registry_(ActionRegistry::instance()),
      rng_(config.seed * 40503 + 11) {
  if (circuits_ == nullptr || circuits_->empty()) {
    throw std::invalid_argument("CompilationEnv: need training circuits");
  }
}

std::unique_ptr<CompilationEnv> CompilationEnv::clone_with_seed(
    std::uint64_t seed) const {
  CompilationEnvConfig config = config_;
  config.seed = seed;
  return std::make_unique<CompilationEnv>(circuits_, config);
}

int CompilationEnv::observation_size() const {
  return features::kNumFeatures;
}

int CompilationEnv::num_actions() const { return registry_.size(); }

std::uint64_t CompilationEnv::step_seed(std::uint64_t env_seed,
                                        std::uint64_t episode, int step) {
  return env_seed * 1000003 + episode * 101 +
         static_cast<std::uint64_t>(step);
}

std::vector<double> CompilationEnv::observe_state(
    const CompilationState& state) {
  const auto obs = features::extract_features(state.circuit).observation();
  // A NaN/Inf observation would silently poison every PPO update that
  // touches it (degenerate circuits — empty, single-qubit — are the usual
  // suspects via the n-1 / depth divisions in the feature formulas, which
  // features.cpp guards). Fail loudly instead of training on garbage.
  for (std::size_t i = 0; i < obs.size(); ++i) {
    if (!std::isfinite(obs[i])) {
      throw std::logic_error(
          "CompilationEnv::observe: non-finite feature at index " +
          std::to_string(i));
    }
  }
  return {obs.begin(), obs.end()};
}

void CompilationEnv::apply_action(CompilationState& state, int action,
                                  std::uint64_t seed) {
  apply_action(state, action, seed, state.state());
}

void CompilationEnv::apply_action(CompilationState& state, int action,
                                  std::uint64_t seed, MdpState mdp) {
  const ActionRegistry& registry = ActionRegistry::instance();
  if (action < 0 || action >= registry.size()) {
    throw std::out_of_range("CompilationEnv::step: bad action id");
  }
  const Action& act = registry.at(action);
  if (!act.valid(state, mdp)) {
    throw std::logic_error("CompilationEnv::step: invalid action '" +
                           act.name() + "' in state " +
                           std::string(mdp_state_name(mdp)));
  }
  act.apply(state, seed);
}

bool CompilationEnv::keeps_circuit(int action) {
  const ActionType type = ActionRegistry::instance().at(action).type();
  return type == ActionType::kPlatformSelection ||
         type == ActionType::kDeviceSelection;
}

CompilationState CompilationEnv::peek_step(const CompilationState& state,
                                           int action, std::uint64_t seed) {
  CompilationState next = state;
  apply_action(next, action, seed);
  return next;
}

std::vector<double> CompilationEnv::observe() const {
  return observe_state(state_);
}

std::vector<double> CompilationEnv::reset() {
  std::uniform_int_distribution<std::size_t> pick(0, circuits_->size() - 1);
  return reset_with((*circuits_)[pick(rng_)]);
}

std::vector<double> CompilationEnv::reset_with(const ir::Circuit& circuit) {
  state_ = CompilationState{};
  state_.circuit = circuit;
  steps_in_episode_ = 0;
  ++episode_counter_;
  return observe();
}

std::vector<bool> CompilationEnv::action_mask() const {
  return registry_.mask(state_);
}

rl::StepResult CompilationEnv::step(int action) {
  // Deterministic per-step seed so stochastic passes are reproducible.
  apply_action(state_, action,
               step_seed(config_.seed, episode_counter_, steps_in_episode_));
  ++steps_in_episode_;

  rl::StepResult result;
  result.observation = observe();
  if (state_.state() == MdpState::kDone) {
    result.done = true;
    result.reward =
        reward::compute_reward(config_.reward, state_.circuit, *state_.device);
  } else if (steps_in_episode_ >= config_.max_steps) {
    result.truncated = true;
    result.reward = 0.0;
  }
  return result;
}

}  // namespace qrc::core

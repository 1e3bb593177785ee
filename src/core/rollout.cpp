#include "core/rollout.hpp"

#include <algorithm>
#include <set>

#include "obs/stage.hpp"
#include "reward/reward.hpp"
#include "rl/categorical.hpp"
#include "rl/mlp.hpp"
#include "rl/thread_pool.hpp"

namespace qrc::core {

Fingerprint fingerprint_of(const CompilationState& s, MdpState mdp) {
  return {s.circuit.size(),        s.circuit.two_qubit_gate_count(),
          s.circuit.gate_count(),  s.circuit.global_phase(),
          static_cast<int>(mdp),   s.layout_applied, s.device};
}

std::vector<GreedyEpisode> run_greedy_episodes(
    const rl::Mlp& policy, std::span<const ir::Circuit> circuits,
    const CompilationEnvConfig& env_config, int masked_feature,
    rl::WorkerPool& pool) {
  const ActionRegistry& registry = ActionRegistry::instance();
  const int num_circuits = static_cast<int>(circuits.size());
  const auto obs_size = static_cast<std::size_t>(policy.input_size());
  std::vector<const Action*> device_actions;
  for (int a = 0; a < registry.size(); ++a) {
    if (registry.at(a).type() == ActionType::kDeviceSelection) {
      device_actions.push_back(&registry.at(a));
    }
  }
  // After a platform pick that no device selection can follow, Done is out
  // of reach: no pass changes the circuit's width.
  const auto no_device_fits = [&](const CompilationState& state,
                                  MdpState mdp) {
    return std::none_of(
        device_actions.begin(), device_actions.end(),
        [&](const Action* a) { return a->valid(state, mdp); });
  };

  struct Episode {
    GreedyEpisode out;
    std::vector<double> obs;
    std::set<int> exhausted;
    std::set<Fingerprint> visited;
    int action = -1;
    MdpState mdp = MdpState::kStart;  ///< state() after the last step
    bool active = true;  ///< false once every valid action proved no-op
                         ///< or the platform pick hit a dead end
  };
  std::vector<Episode> episodes(static_cast<std::size_t>(num_circuits));
  for (int c = 0; c < num_circuits; ++c) {
    auto& ep = episodes[static_cast<std::size_t>(c)];
    ep.out.state.circuit = circuits[c];
    ep.obs = CompilationEnv::observe_state(ep.out.state);
    ep.visited.insert(fingerprint_of(ep.out.state, ep.mdp));
  }

  std::vector<int> live;
  std::vector<int> stepping;
  std::vector<double> obs_batch;
  std::vector<double> logits_batch;
  std::vector<std::vector<bool>> mask_batch;
  for (int step = 0; step < env_config.max_steps; ++step) {
    live.clear();
    for (int c = 0; c < num_circuits; ++c) {
      const auto& ep = episodes[static_cast<std::size_t>(c)];
      if (ep.active && !ep.out.done) {
        live.push_back(c);
      }
    }
    if (live.empty()) {
      break;
    }
    const int n_live = static_cast<int>(live.size());

    // One batched policy forward over every still-running episode.
    obs_batch.resize(live.size() * obs_size);
    mask_batch.resize(live.size());
    for (std::size_t i = 0; i < live.size(); ++i) {
      const auto& ep = episodes[static_cast<std::size_t>(live[i])];
      std::copy(ep.obs.begin(), ep.obs.end(),
                obs_batch.begin() + i * obs_size);
      if (masked_feature >= 0 &&
          masked_feature < static_cast<int>(obs_size)) {
        obs_batch[i * obs_size + static_cast<std::size_t>(masked_feature)] =
            0.0;
      }
      mask_batch[i] = registry.mask(ep.out.state, ep.mdp);
    }
    {
      obs::Stage stage(obs::StageId::kPolicyForward);
      policy.forward_batch(obs_batch, n_live, logits_batch, &pool);
    }
    const rl::BatchedMaskedCategorical dist(logits_batch, mask_batch);

    // Greedy action per episode among valid, un-exhausted actions.
    stepping.clear();
    for (std::size_t i = 0; i < live.size(); ++i) {
      auto& ep = episodes[static_cast<std::size_t>(live[i])];
      const auto probs = dist.probs(static_cast<int>(i));
      int action = -1;
      for (int a = 0; a < dist.num_actions(); ++a) {
        if (!mask_batch[i][static_cast<std::size_t>(a)] ||
            ep.exhausted.contains(a)) {
          continue;
        }
        if (action < 0 || probs[static_cast<std::size_t>(a)] >
                              probs[static_cast<std::size_t>(action)]) {
          action = a;
        }
      }
      if (action < 0) {
        ep.active = false;  // every valid action proved ineffective
        continue;
      }
      ep.action = action;
      ep.out.actions.push_back(action);
      stepping.push_back(live[i]);
    }

    // Step the chosen actions in parallel — each episode owns its state.
    const std::uint64_t seed =
        CompilationEnv::step_seed(env_config.seed, 1, step);
    {
      obs::Stage stage(obs::StageId::kEnvStep);
      pool.parallel_for(static_cast<int>(stepping.size()), [&](int i) {
        auto& ep = episodes[static_cast<std::size_t>(
            stepping[static_cast<std::size_t>(i)])];
        CompilationEnv::apply_action(ep.out.state, ep.action, seed, ep.mdp);
        ep.mdp = ep.out.state.state();
        if (ep.mdp != MdpState::kDone &&
            !CompilationEnv::keeps_circuit(ep.action)) {
          ep.obs = CompilationEnv::observe_state(ep.out.state);
        }
      });
    }
    for (const int c : stepping) {
      auto& ep = episodes[static_cast<std::size_t>(c)];
      if (!ep.visited.insert(fingerprint_of(ep.out.state, ep.mdp)).second) {
        ep.exhausted.insert(ep.action);  // known state: no progress
      } else {
        ep.exhausted.clear();
      }
      if (ep.mdp == MdpState::kDone) {
        ep.out.done = true;
        ep.out.reward = reward::compute_reward(
            env_config.reward, ep.out.state.circuit, *ep.out.state.device);
      } else if (ep.mdp == MdpState::kPlatformChosen &&
                 no_device_fits(ep.out.state, ep.mdp)) {
        ep.active = false;  // the caller's fallback restarts from the input
      }
    }
  }

  std::vector<GreedyEpisode> out;
  out.reserve(episodes.size());
  for (auto& ep : episodes) {
    out.push_back(std::move(ep.out));
  }
  return out;
}

}  // namespace qrc::core

#include "rl/ppo.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <istream>
#include <numeric>
#include <ostream>
#include <span>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "rl/categorical.hpp"
#include "rl/thread_pool.hpp"
#include "rl/vec_env.hpp"

namespace qrc::rl {

namespace {

std::vector<int> network_sizes(int obs, const std::vector<int>& hidden,
                               int out) {
  std::vector<int> sizes{obs};
  sizes.insert(sizes.end(), hidden.begin(), hidden.end());
  sizes.push_back(out);
  return sizes;
}

/// One transition of the rollout buffer.
struct Transition {
  std::vector<double> obs;
  std::vector<bool> mask;
  int action = 0;
  double log_prob = 0.0;
  double value = 0.0;
  double reward = 0.0;
  bool episode_end = false;   ///< done or truncated after this step
  double bootstrap = 0.0;     ///< value of the next state when truncated
};

/// GAE(lambda) over one contiguous trajectory segment (one env's slice of
/// the rollout). `value_after_last` is V(s_{T}) for the state following
/// the segment's last transition (ignored when that transition ended an
/// episode — the in-loop reset applies then).
void compute_gae_segment(std::span<const Transition> segment,
                         double value_after_last, const PpoConfig& config,
                         std::span<double> advantages,
                         std::span<double> returns) {
  const std::size_t n = segment.size();
  double next_value = value_after_last;
  double gae = 0.0;
  for (std::size_t i = n; i-- > 0;) {
    const Transition& tr = segment[i];
    if (tr.episode_end) {
      next_value = tr.bootstrap;  // 0 unless truncated
      gae = 0.0;
    }
    const double delta = tr.reward + config.gamma * next_value - tr.value;
    gae = delta + config.gamma * config.gae_lambda * gae;
    advantages[i] = gae;
    returns[i] = gae + tr.value;
    next_value = tr.value;
  }
}

void normalize_advantages(std::vector<double>& advantages) {
  const auto n = static_cast<double>(advantages.size());
  const double mean =
      std::accumulate(advantages.begin(), advantages.end(), 0.0) / n;
  double var = 0.0;
  for (const double a : advantages) {
    var += (a - mean) * (a - mean);
  }
  const double stddev = std::sqrt(var / n) + 1e-8;
  for (double& a : advantages) {
    a = (a - mean) / stddev;
  }
}

/// The clipped-surrogate optimization epochs over one rollout buffer;
/// fills the loss fields of `stats`. Each minibatch runs one batched
/// policy forward, one batched value forward and one batched backward per
/// network instead of per-sample passes; every per-sample quantity and
/// every gradient accumulation keeps the scalar operation order, so the
/// update is bitwise-identical to the per-sample loop it replaces. `pool`
/// spreads the batched forwards across workers.
void run_ppo_epochs(const std::vector<Transition>& buffer,
                    const std::vector<double>& advantages,
                    const std::vector<double>& returns,
                    const PpoConfig& config, Mlp& policy, Mlp& value_net,
                    Adam& optimizer, std::mt19937_64& rng,
                    PpoUpdateStats& stats, WorkerPool* pool) {
  const std::size_t n = buffer.size();
  const auto obs_size = static_cast<std::size_t>(policy.input_size());
  const auto n_act = static_cast<std::size_t>(policy.output_size());
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::vector<double> obs_batch;
  std::vector<std::vector<bool>> mask_batch;
  std::vector<double> grad_logits;
  std::vector<double> value_grads;
  std::vector<double> logp_grad(n_act);
  std::vector<double> ent_grad(n_act);
  int loss_samples = 0;
  for (int epoch = 0; epoch < config.epochs_per_update; ++epoch) {
    std::shuffle(order.begin(), order.end(), rng);
    for (std::size_t start = 0; start < n;
         start += static_cast<std::size_t>(config.minibatch_size)) {
      const std::size_t end = std::min(
          n, start + static_cast<std::size_t>(config.minibatch_size));
      const int bsz = static_cast<int>(end - start);
      policy.zero_grad();
      value_net.zero_grad();
      const double inv_batch = 1.0 / static_cast<double>(bsz);

      // Gather the minibatch into row-major buffers.
      obs_batch.resize(static_cast<std::size_t>(bsz) * obs_size);
      mask_batch.resize(static_cast<std::size_t>(bsz));
      for (int k = 0; k < bsz; ++k) {
        const Transition& tr = buffer[order[start + static_cast<std::size_t>(k)]];
        std::copy(tr.obs.begin(), tr.obs.end(),
                  obs_batch.begin() + static_cast<std::size_t>(k) * obs_size);
        mask_batch[static_cast<std::size_t>(k)] = tr.mask;
      }

      // One batched forward per network for the whole minibatch.
      const auto& logits = policy.forward_batch_cached(obs_batch, bsz, pool);
      const BatchedMaskedCategorical dist(logits, mask_batch);
      const auto& values = value_net.forward_batch_cached(obs_batch, bsz, pool);

      grad_logits.assign(static_cast<std::size_t>(bsz) * n_act, 0.0);
      value_grads.resize(static_cast<std::size_t>(bsz));
      for (int k = 0; k < bsz; ++k) {
        const std::size_t idx = order[start + static_cast<std::size_t>(k)];
        const Transition& tr = buffer[idx];
        const double adv = advantages[idx];
        const double ret = returns[idx];

        // Policy gradient wrt row k's logits.
        const double logp = dist.log_prob(k, tr.action);
        const double ratio = std::exp(logp - tr.log_prob);
        const double clipped = std::clamp(ratio, 1.0 - config.clip_range,
                                          1.0 + config.clip_range);
        const bool use_unclipped = ratio * adv <= clipped * adv;
        // Loss = -min(r*A, clip(r)*A) - ent_coef * H.
        const double dl_dratio = use_unclipped ? -adv : 0.0;
        dist.log_prob_grad(k, tr.action, logp_grad);
        dist.entropy_grad(k, ent_grad);
        double* grow =
            grad_logits.data() + static_cast<std::size_t>(k) * n_act;
        for (std::size_t j = 0; j < n_act; ++j) {
          grow[j] = (dl_dratio * ratio * logp_grad[j] -
                     config.entropy_coef * ent_grad[j]) *
                    inv_batch;
        }

        // Value gradient for row k.
        const double v = values[static_cast<std::size_t>(k)];
        value_grads[static_cast<std::size_t>(k)] =
            config.value_coef * (v - ret) * inv_batch;

        stats.policy_loss += -std::min(ratio * adv, clipped * adv);
        stats.value_loss += 0.5 * (v - ret) * (v - ret);
        stats.entropy += dist.entropy(k);
        // Diagnostics over already-computed per-sample values; nothing
        // here feeds back into the gradients.
        stats.approx_kl += tr.log_prob - logp;
        if (std::fabs(ratio - 1.0) > config.clip_range) {
          stats.clip_fraction += 1.0;
        }
        ++loss_samples;
      }
      policy.backward_batch(grad_logits, bsz);
      value_net.backward_batch(value_grads, bsz);
      optimizer.step(config.max_grad_norm);
    }
  }
  if (loss_samples > 0) {
    stats.policy_loss /= loss_samples;
    stats.value_loss /= loss_samples;
    stats.entropy /= loss_samples;
    stats.approx_kl /= loss_samples;
    stats.clip_fraction /= loss_samples;
  }
}

/// Finalises the timing fields of one update's stats and publishes the
/// qrc_train_* families. Purely observational — called after the
/// optimiser has already stepped.
void finish_update_stats(PpoUpdateStats& stats, int steps_this_update,
                         std::chrono::steady_clock::time_point update_start,
                         obs::MetricsRegistry* metrics) {
  const auto elapsed = std::chrono::steady_clock::now() - update_start;
  stats.update_duration_us =
      std::chrono::duration_cast<std::chrono::microseconds>(elapsed).count();
  stats.env_steps_per_sec =
      stats.update_duration_us > 0
          ? static_cast<double>(steps_this_update) * 1e6 /
                static_cast<double>(stats.update_duration_us)
          : 0.0;
  if (metrics == nullptr) return;
  metrics->counter("qrc_train_updates_total", "PPO updates completed.").inc();
  metrics
      ->counter("qrc_train_timesteps_total",
                "Environment steps consumed by training.")
      .inc(static_cast<std::uint64_t>(steps_this_update));
  metrics
      ->counter("qrc_train_episodes_total",
                "Training episodes ended (done or truncated).")
      .inc(static_cast<std::uint64_t>(stats.episodes));
  metrics
      ->float_gauge("qrc_train_policy_loss",
                    "Mean clipped-surrogate policy loss, last update.")
      .set(stats.policy_loss);
  metrics
      ->float_gauge("qrc_train_value_loss",
                    "Mean value-function loss, last update.")
      .set(stats.value_loss);
  metrics
      ->float_gauge("qrc_train_entropy",
                    "Mean policy entropy, last update.")
      .set(stats.entropy);
  metrics
      ->float_gauge("qrc_train_approx_kl",
                    "Mean approximate KL(old||new), last update.")
      .set(stats.approx_kl);
  metrics
      ->float_gauge("qrc_train_clip_fraction",
                    "Fraction of samples with a clipped ratio, last update.")
      .set(stats.clip_fraction);
  metrics
      ->float_gauge("qrc_train_episode_reward_mean",
                    "Mean reward of episodes ended in the last update.")
      .set(stats.mean_episode_reward);
  metrics
      ->float_gauge("qrc_train_episode_length_mean",
                    "Mean length of episodes ended in the last update.")
      .set(stats.mean_episode_length);
  metrics
      ->float_gauge("qrc_train_env_steps_per_sec",
                    "Environment-step throughput of the last update.")
      .set(stats.env_steps_per_sec);
}

}  // namespace

PpoAgent::PpoAgent(int obs_size, int num_actions, const PpoConfig& config)
    : config_(config),
      policy_(network_sizes(obs_size, config.hidden_sizes, num_actions),
              config.seed * 2 + 1),
      value_(network_sizes(obs_size, config.hidden_sizes, 1),
             config.seed * 2 + 2) {}

int PpoAgent::act_greedy(std::span<const double> observation,
                         const std::vector<bool>& mask) const {
  const auto logits = policy_.forward(observation);
  const MaskedCategorical dist(logits, mask);
  return dist.argmax();
}

int PpoAgent::act_sample(std::span<const double> observation,
                         const std::vector<bool>& mask,
                         std::mt19937_64& rng) const {
  const auto logits = policy_.forward(observation);
  const MaskedCategorical dist(logits, mask);
  return dist.sample(rng);
}

double PpoAgent::value(std::span<const double> observation) const {
  return value_.forward(observation)[0];
}

void PpoAgent::save(std::ostream& os) const {
  os << "ppo_agent 1\n";
  os << config_.gamma << " " << config_.gae_lambda << " "
     << config_.clip_range << " " << config_.learning_rate << "\n";
  policy_.save(os);
  value_.save(os);
}

PpoAgent PpoAgent::load(std::istream& is) {
  std::string tag;
  int version = 0;
  is >> tag >> version;
  if (tag != "ppo_agent" || version != 1) {
    throw std::runtime_error("PpoAgent::load: bad header");
  }
  PpoConfig config;
  is >> config.gamma >> config.gae_lambda >> config.clip_range >>
      config.learning_rate;
  Mlp policy = Mlp::load(is);
  Mlp value = Mlp::load(is);
  PpoAgent agent(policy.input_size(), policy.output_size(), config);
  agent.policy_ = std::move(policy);
  agent.value_ = std::move(value);
  return agent;
}

PpoAgent train_ppo_vec(
    VecEnv& envs, const PpoConfig& config,
    std::vector<PpoUpdateStats>* stats_out,
    const std::function<void(const PpoUpdateStats&)>& progress,
    obs::MetricsRegistry* metrics) {
  const int num_envs = envs.num_envs();
  PpoAgent agent(envs.observation_size(), envs.num_actions(), config);
  Mlp& policy = agent.policy();
  Mlp& value_net = agent.value_net();

  std::vector<double*> params;
  std::vector<double*> grads;
  policy.collect_parameters(params, grads);
  value_net.collect_parameters(params, grads);
  Adam optimizer(params, grads, {.lr = config.learning_rate});

  // Minibatch shuffles draw from the update RNG; each env draws actions
  // from its own stream so the collected experience is independent of how
  // the envs are scheduled onto workers.
  std::mt19937_64 update_rng(config.seed * 9176 + 3);
  std::vector<std::mt19937_64> env_rngs;
  env_rngs.reserve(static_cast<std::size_t>(num_envs));
  for (int e = 0; e < num_envs; ++e) {
    env_rngs.emplace_back(config.seed * 9176 + 3 +
                          9973 * static_cast<std::uint64_t>(e + 1));
  }

  envs.reset();
  std::vector<double> episode_reward(static_cast<std::size_t>(num_envs), 0.0);
  std::vector<int> episode_length(static_cast<std::size_t>(num_envs), 0);

  const int rounds = std::max(1, config.steps_per_update / num_envs);
  std::vector<std::vector<Transition>> env_buf(
      static_cast<std::size_t>(num_envs));

  const auto obs_size = static_cast<std::size_t>(envs.observation_size());
  WorkerPool& pool = envs.pool();
  // Round-scoped scratch, hoisted out of the hot loop.
  std::vector<double> obs_batch;
  std::vector<double> logits_batch;
  std::vector<double> values_batch;
  std::vector<double> boot_obs;
  std::vector<double> boot_values;
  std::vector<int> boot_envs;
  std::vector<int> actions(static_cast<std::size_t>(num_envs), 0);

  int timesteps_done = 0;
  int update_index = 0;
  while (timesteps_done < config.total_timesteps) {
    const auto update_start = std::chrono::steady_clock::now();
    // ---- Rollout collection: all envs advance in lockstep rounds ----
    for (auto& buf : env_buf) {
      buf.clear();
      buf.reserve(static_cast<std::size_t>(rounds));
    }
    double reward_sum = 0.0;
    std::int64_t length_sum = 0;
    int episodes = 0;
    for (int r = 0; r < rounds; ++r) {
      // One batched policy forward and one batched value forward over all
      // N observations of the round — the MLP is evaluated as a single
      // row-parallel [N x obs] pass instead of N scalar calls.
      envs.gather_observations(obs_batch);
      const auto& masks = envs.action_masks();
      policy.forward_batch(obs_batch, num_envs, logits_batch, &pool);
      value_net.forward_batch(obs_batch, num_envs, values_batch, &pool);
      const BatchedMaskedCategorical dist(logits_batch, masks);
      // Sampling consumes each env's own RNG stream in fixed env order, so
      // the collected experience is identical to per-env scalar inference.
      for (int e = 0; e < num_envs; ++e) {
        const auto idx = static_cast<std::size_t>(e);
        Transition tr;
        tr.obs = envs.observations()[idx];
        tr.mask = masks[idx];
        tr.action = dist.sample(e, env_rngs[idx]);
        tr.log_prob = dist.log_prob(e, tr.action);
        tr.value = values_batch[idx];
        actions[idx] = tr.action;
        env_buf[idx].push_back(std::move(tr));
      }
      const auto& results = envs.step(actions);
      // Value bootstrap for time-limit truncations, batched over the
      // (typically few) envs that hit the limit this round.
      boot_envs.clear();
      for (int e = 0; e < num_envs; ++e) {
        const auto idx = static_cast<std::size_t>(e);
        Transition& tr = env_buf[idx].back();
        tr.reward = results[idx].reward;
        tr.episode_end = results[idx].done || results[idx].truncated;
        if (results[idx].truncated && !results[idx].done) {
          boot_envs.push_back(e);
        }
      }
      if (!boot_envs.empty()) {
        boot_obs.resize(boot_envs.size() * obs_size);
        for (std::size_t i = 0; i < boot_envs.size(); ++i) {
          const auto& term_obs =
              results[static_cast<std::size_t>(boot_envs[i])].observation;
          std::copy(term_obs.begin(), term_obs.end(),
                    boot_obs.begin() + i * obs_size);
        }
        value_net.forward_batch(
            boot_obs, static_cast<int>(boot_envs.size()), boot_values, &pool);
        for (std::size_t i = 0; i < boot_envs.size(); ++i) {
          env_buf[static_cast<std::size_t>(boot_envs[i])].back().bootstrap =
              boot_values[i];
        }
      }
      // Episode bookkeeping in fixed env order (deterministic sums).
      for (int e = 0; e < num_envs; ++e) {
        const auto idx = static_cast<std::size_t>(e);
        episode_reward[idx] += results[idx].reward;
        ++episode_length[idx];
        if (results[idx].done || results[idx].truncated) {
          reward_sum += episode_reward[idx];
          length_sum += episode_length[idx];
          episode_reward[idx] = 0.0;
          episode_length[idx] = 0;
          ++episodes;
        }
      }
      timesteps_done += num_envs;
    }

    // ---- GAE(lambda), one segment per env ----
    // Tail values V(s_T) for envs whose last transition did not end an
    // episode, in one batched value forward.
    std::vector<double> tail_values(static_cast<std::size_t>(num_envs), 0.0);
    boot_envs.clear();
    for (int e = 0; e < num_envs; ++e) {
      if (!env_buf[static_cast<std::size_t>(e)].back().episode_end) {
        boot_envs.push_back(e);
      }
    }
    if (!boot_envs.empty()) {
      boot_obs.resize(boot_envs.size() * obs_size);
      for (std::size_t i = 0; i < boot_envs.size(); ++i) {
        const auto& live_obs =
            envs.observations()[static_cast<std::size_t>(boot_envs[i])];
        std::copy(live_obs.begin(), live_obs.end(),
                  boot_obs.begin() + i * obs_size);
      }
      value_net.forward_batch(
          boot_obs, static_cast<int>(boot_envs.size()), boot_values, &pool);
      for (std::size_t i = 0; i < boot_envs.size(); ++i) {
        tail_values[static_cast<std::size_t>(boot_envs[i])] = boot_values[i];
      }
    }
    std::vector<Transition> buffer;
    buffer.reserve(static_cast<std::size_t>(rounds * num_envs));
    std::vector<double> advantages(
        static_cast<std::size_t>(rounds * num_envs), 0.0);
    std::vector<double> returns(advantages.size(), 0.0);
    std::size_t offset = 0;
    for (int e = 0; e < num_envs; ++e) {
      const auto idx = static_cast<std::size_t>(e);
      const std::size_t len = env_buf[idx].size();
      compute_gae_segment(
          env_buf[idx], tail_values[idx], config,
          std::span<double>(advantages).subspan(offset, len),
          std::span<double>(returns).subspan(offset, len));
      for (Transition& tr : env_buf[idx]) {
        buffer.push_back(std::move(tr));
      }
      offset += len;
    }
    normalize_advantages(advantages);

    // ---- PPO epochs ----
    PpoUpdateStats stats;
    stats.update_index = update_index++;
    stats.timesteps = timesteps_done;
    stats.episodes = episodes;
    stats.mean_episode_reward =
        episodes > 0 ? reward_sum / static_cast<double>(episodes) : 0.0;
    stats.mean_episode_length =
        episodes > 0 ? static_cast<double>(length_sum) /
                           static_cast<double>(episodes)
                     : 0.0;
    run_ppo_epochs(buffer, advantages, returns, config, policy, value_net,
                   optimizer, update_rng, stats, &pool);
    finish_update_stats(stats, rounds * num_envs, update_start, metrics);
    if (stats_out != nullptr) {
      stats_out->push_back(stats);
    }
    if (progress) {
      progress(stats);
    }
  }
  return agent;
}

}  // namespace qrc::rl

// Rollout-throughput microbench for the vectorized PPO engine: measures
// environment steps/sec of policy-driven rollouts over the compilation MDP
// for several (num_envs, num_workers) configurations, scalar-vs-batched
// policy forward throughput (Mlp::forward vs Mlp::forward_batch on the
// worker pool), plus end-to-end train_ppo_vec timing for one env against
// 4 envs on 4 workers.
//
// Knobs (see experiment_common.hpp): QRC_TRAIN_STEPS caps the measured
// rollout steps per configuration (default 20000); QRC_EVAL_COUNT sizes the
// corpus. Results are printed and also written to
// BENCH_rollout_throughput.json in the working directory.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <random>
#include <span>
#include <thread>
#include <vector>

#include "experiment_common.hpp"
#include "core/compilation_env.hpp"
#include "rl/mlp.hpp"
#include "rl/ppo.hpp"
#include "rl/thread_pool.hpp"
#include "rl/vec_env.hpp"

namespace {

using namespace qrc;
using Clock = std::chrono::steady_clock;

struct Measurement {
  int num_envs = 1;
  int num_workers = 1;
  double steps_per_sec = 0.0;
};

rl::VecEnv make_vec_env(const core::CompilationEnv& prototype, int num_envs,
                        int num_workers) {
  return rl::VecEnv(
      [&](int i) {
        return prototype.clone_with_seed(
            17 + 7919 * static_cast<std::uint64_t>(i + 1));
      },
      num_envs, num_workers);
}

/// Policy-driven rollout (sample + step + auto-reset), the hot loop of
/// train_ppo_vec's collection phase, without the optimizer.
Measurement measure_rollout(const core::CompilationEnv& prototype,
                            const rl::PpoConfig& ppo, int num_envs,
                            int num_workers, int total_steps) {
  rl::VecEnv envs = make_vec_env(prototype, num_envs, num_workers);
  const rl::PpoAgent agent(envs.observation_size(), envs.num_actions(), ppo);
  std::vector<std::mt19937_64> rngs;
  for (int e = 0; e < num_envs; ++e) {
    rngs.emplace_back(101 + 31 * static_cast<std::uint64_t>(e));
  }

  envs.reset();
  int steps = 0;
  const auto start = Clock::now();
  while (steps < total_steps) {
    envs.step_with([&](int e) {
      const auto idx = static_cast<std::size_t>(e);
      return agent.act_sample(envs.observations()[idx],
                              envs.action_masks()[idx], rngs[idx]);
    });
    steps += num_envs;
  }
  const double seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  return {num_envs, num_workers, static_cast<double>(steps) / seconds};
}

/// Scalar-vs-batched policy forward throughput: the same MLP evaluates the
/// same observations one at a time (Mlp::forward, the pre-batching hot
/// path) and as row-major batches (Mlp::forward_batch on a worker pool).
struct ForwardMeasurement {
  int batch = 0;
  int workers = 0;
  double scalar_obs_per_sec = 0.0;
  double batch_obs_per_sec = 0.0;
  double speedup = 0.0;
};

ForwardMeasurement measure_forward(int obs_size, int num_actions, int batch,
                                   int total_samples, int workers) {
  const rl::Mlp policy({obs_size, 64, 64, num_actions}, 17);
  std::mt19937_64 rng(23);
  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  std::vector<double> inputs(static_cast<std::size_t>(batch) *
                             static_cast<std::size_t>(obs_size));
  for (double& v : inputs) {
    v = uniform(rng);
  }
  const int rounds = std::max(1, total_samples / batch);

  ForwardMeasurement out;
  out.batch = batch;
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  out.workers = workers > 0 ? workers : std::max(1, hw);

  double sink = 0.0;
  auto start = Clock::now();
  for (int r = 0; r < rounds; ++r) {
    for (int i = 0; i < batch; ++i) {
      const auto row = std::span<const double>(inputs).subspan(
          static_cast<std::size_t>(i) * static_cast<std::size_t>(obs_size),
          static_cast<std::size_t>(obs_size));
      sink += policy.forward(row)[0];
    }
  }
  double seconds = std::chrono::duration<double>(Clock::now() - start).count();
  out.scalar_obs_per_sec =
      static_cast<double>(rounds) * batch / std::max(seconds, 1e-12);

  rl::WorkerPool pool(out.workers);
  std::vector<double> outputs;
  start = Clock::now();
  for (int r = 0; r < rounds; ++r) {
    policy.forward_batch(inputs, batch, outputs, &pool);
    sink += outputs[0];
  }
  seconds = std::chrono::duration<double>(Clock::now() - start).count();
  out.batch_obs_per_sec =
      static_cast<double>(rounds) * batch / std::max(seconds, 1e-12);
  out.speedup = out.batch_obs_per_sec / out.scalar_obs_per_sec;
  if (sink == 12345.6789) {  // defeat dead-code elimination
    std::printf("#\n");
  }
  return out;
}

double measure_train_seconds(const std::vector<ir::Circuit>& corpus,
                             rl::PpoConfig ppo, int num_envs,
                             int num_workers) {
  core::CompilationEnvConfig env_config;
  env_config.seed = 17;
  const auto start = Clock::now();
  const core::CompilationEnv prototype(corpus, env_config);
  rl::VecEnv envs = make_vec_env(prototype, num_envs, num_workers);
  (void)rl::train_ppo_vec(envs, ppo);
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

int main() {
  const int total_steps = bench_harness::env_int("QRC_TRAIN_STEPS", 20000);
  const int corpus_size =
      std::max(4, bench_harness::env_int("QRC_EVAL_COUNT", 20));
  const auto corpus = bench::benchmark_suite(2, 12, corpus_size);
  std::printf("# rollout throughput: %d steps per config, corpus of %zu "
              "circuits (2-12 qubits)\n",
              total_steps, corpus.size());

  core::CompilationEnvConfig env_config;
  env_config.seed = 17;
  const core::CompilationEnv prototype(corpus, env_config);
  rl::PpoConfig ppo;
  ppo.seed = 17;

  std::vector<Measurement> results;
  for (const auto [envs, workers] :
       {std::pair{1, 1}, {4, 1}, {4, 2}, {4, 4}, {8, 4}}) {
    results.push_back(
        measure_rollout(prototype, ppo, envs, workers, total_steps));
    const auto& m = results.back();
    std::printf("  num_envs=%d workers=%d  %10.1f steps/sec\n", m.num_envs,
                m.num_workers, m.steps_per_sec);
    std::fflush(stdout);
  }
  const double base = results.front().steps_per_sec;
  double speedup_4w = 0.0;
  for (const auto& m : results) {
    if (m.num_envs == 4 && m.num_workers == 4) {
      speedup_4w = m.steps_per_sec / base;
    }
  }
  std::printf("  -> 4 envs / 4 workers vs 1 env: %.2fx (target >= 2x on "
              ">= 4 hardware threads)\n",
              speedup_4w);

  // Scalar vs batched policy forward (the per-round inference of the
  // batched rollout engine): one observation at a time vs one row-major
  // [batch x obs] pass on the worker pool.
  const ForwardMeasurement fwd = measure_forward(
      prototype.observation_size(), prototype.num_actions(), 256,
      std::max(total_steps, 50000),
      bench_harness::env_int("QRC_ROLLOUT_WORKERS", 0));
  std::printf("  policy forward: scalar %10.0f obs/sec, batched(%d rows, "
              "%d workers) %10.0f obs/sec -> %.2fx (target >= 2x on >= 4 "
              "hardware threads)\n",
              fwd.scalar_obs_per_sec, fwd.batch, fwd.workers,
              fwd.batch_obs_per_sec, fwd.speedup);

  // End-to-end PPO wall time on a short budget.
  rl::PpoConfig train_ppo_cfg;
  train_ppo_cfg.seed = 17;
  train_ppo_cfg.total_timesteps = std::min(total_steps, 8192);
  train_ppo_cfg.steps_per_update = 512;
  const double one_env_s =
      measure_train_seconds(corpus, train_ppo_cfg, 1, 1);
  const double vec_s = measure_train_seconds(corpus, train_ppo_cfg, 4, 4);
  std::printf("  train_ppo_vec %d steps: 1 env %.2fs, 4 envs/4 workers "
              "%.2fs (%.2fx)\n",
              train_ppo_cfg.total_timesteps, one_env_s, vec_s,
              one_env_s / vec_s);

  std::FILE* json = std::fopen("BENCH_rollout_throughput.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "{\n");
    bench_harness::write_meta(json);
    std::fprintf(json, "  \"bench\": \"rollout_throughput\",\n"
                       "  \"total_steps\": %d,\n  \"configs\": [\n",
                 total_steps);
    for (std::size_t i = 0; i < results.size(); ++i) {
      std::fprintf(json,
                   "    {\"num_envs\": %d, \"workers\": %d, "
                   "\"steps_per_sec\": %.1f}%s\n",
                   results[i].num_envs, results[i].num_workers,
                   results[i].steps_per_sec,
                   i + 1 < results.size() ? "," : "");
    }
    std::fprintf(json,
                 "  ],\n  \"speedup_4env_4worker\": %.3f,\n"
                 "  \"forward_scalar_obs_per_sec\": %.1f,\n"
                 "  \"forward_batch_obs_per_sec\": %.1f,\n"
                 "  \"forward_batch_speedup\": %.3f,\n"
                 "  \"forward_batch_size\": %d,\n"
                 "  \"forward_batch_workers\": %d,\n"
                 "  \"train_serial_sec\": %.3f,\n"
                 "  \"train_vec_sec\": %.3f\n}\n",
                 speedup_4w, fwd.scalar_obs_per_sec, fwd.batch_obs_per_sec,
                 fwd.speedup, fwd.batch, fwd.workers, one_env_s, vec_s);
    std::fclose(json);
    std::printf("  results written to BENCH_rollout_throughput.json\n");
  }
  return 0;
}

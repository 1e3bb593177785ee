// Tests for the RL substrate: MLP gradients (numerical check), Adam,
// masked categorical distribution, GAE behaviour through PPO on toy
// environments, and serialisation round-trips.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <random>
#include <span>
#include <sstream>
#include <string>

#include "rl/adam.hpp"
#include "rl/categorical.hpp"
#include "rl/env.hpp"
#include "rl/mlp.hpp"
#include "rl/ppo.hpp"
#include "rl/thread_pool.hpp"
#include "rl/vec_env.hpp"

namespace {

using qrc::rl::Adam;
using qrc::rl::BatchedMaskedCategorical;
using qrc::rl::Env;
using qrc::rl::MaskedCategorical;
using qrc::rl::Mlp;
using qrc::rl::PpoAgent;
using qrc::rl::PpoConfig;
using qrc::rl::PpoUpdateStats;
using qrc::rl::StepResult;
using qrc::rl::VecEnv;
using qrc::rl::WorkerPool;

// ------------------------------------------------------------------ MLP ---

TEST(MlpTest, ForwardShapes) {
  Mlp net({3, 8, 2}, 1);
  const std::vector<double> x{0.1, -0.4, 0.7};
  const auto y = net.forward(x);
  ASSERT_EQ(y.size(), 2U);
}

TEST(MlpTest, ForwardMatchesCachedForward) {
  Mlp net({4, 16, 16, 3}, 2);
  const std::vector<double> x{0.3, -0.2, 0.9, 0.0};
  const auto a = net.forward(x);
  const auto b = net.forward_cached(x);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i], b[i], 1e-14);
  }
}

TEST(MlpTest, NumericalGradientCheck) {
  // Loss = sum of outputs squared / 2; check dL/dparam by finite
  // differences on a small net.
  Mlp net({3, 5, 2}, 7);
  const std::vector<double> x{0.2, -0.5, 0.8};

  const auto loss_of = [&](Mlp& m) {
    const auto y = m.forward(x);
    double l = 0.0;
    for (const double v : y) {
      l += 0.5 * v * v;
    }
    return l;
  };

  // Analytic gradients.
  net.zero_grad();
  const auto y = net.forward_cached(x);
  std::vector<double> grad_out(y.begin(), y.end());  // dL/dy = y
  net.backward(grad_out);

  std::vector<double*> params;
  std::vector<double*> grads;
  net.collect_parameters(params, grads);

  std::mt19937_64 rng(11);
  std::uniform_int_distribution<std::size_t> pick(0, params.size() - 1);
  const double eps = 1e-6;
  for (int trial = 0; trial < 25; ++trial) {
    const std::size_t i = pick(rng);
    const double orig = *params[i];
    *params[i] = orig + eps;
    const double lp = loss_of(net);
    *params[i] = orig - eps;
    const double lm = loss_of(net);
    *params[i] = orig;
    const double numeric = (lp - lm) / (2.0 * eps);
    EXPECT_NEAR(*grads[i], numeric, 1e-5)
        << "param " << i << " trial " << trial;
  }
}

TEST(MlpTest, GradientsAccumulate) {
  Mlp net({2, 4, 1}, 3);
  const std::vector<double> x{0.5, -0.5};
  net.zero_grad();
  (void)net.forward_cached(x);
  const std::array<double, 1> g{1.0};
  net.backward(g);
  std::vector<double*> params;
  std::vector<double*> grads;
  net.collect_parameters(params, grads);
  const double first = *grads[0];
  (void)net.forward_cached(x);
  net.backward(g);
  EXPECT_NEAR(*grads[0], 2.0 * first, 1e-12);
}

TEST(MlpTest, ForwardBatchMatchesScalarBitwise) {
  constexpr int kBatch = 13;
  const Mlp net({5, 16, 8, 3}, 21);
  std::mt19937_64 rng(77);
  std::uniform_real_distribution<double> uniform(-1.0, 1.0);
  std::vector<double> inputs(kBatch * 5);
  for (double& v : inputs) {
    v = uniform(rng);
  }
  std::vector<double> batch_out;
  net.forward_batch(inputs, kBatch, batch_out);
  ASSERT_EQ(batch_out.size(), static_cast<std::size_t>(kBatch * 3));
  for (int r = 0; r < kBatch; ++r) {
    const auto row = std::span<const double>(inputs).subspan(
        static_cast<std::size_t>(r) * 5, 5);
    const auto scalar = net.forward(row);
    for (int j = 0; j < 3; ++j) {
      // EXPECT_EQ: the batched path must be bitwise-identical, not just
      // numerically close.
      EXPECT_EQ(scalar[static_cast<std::size_t>(j)],
                batch_out[static_cast<std::size_t>(r * 3 + j)])
          << "row " << r << " output " << j;
    }
  }
  // Row-parallel execution on a pool must not change a single bit either.
  WorkerPool pool(4);
  std::vector<double> pooled_out;
  net.forward_batch(inputs, kBatch, pooled_out, &pool);
  EXPECT_EQ(pooled_out, batch_out);
}

TEST(MlpTest, BackwardBatchMatchesPerSampleBitwise) {
  constexpr int kBatch = 9;
  Mlp scalar_net({4, 12, 2}, 31);
  Mlp batch_net({4, 12, 2}, 31);  // same seed => identical weights
  std::mt19937_64 rng(13);
  std::uniform_real_distribution<double> uniform(-1.0, 1.0);
  std::vector<double> inputs(kBatch * 4);
  std::vector<double> grad_out(kBatch * 2);
  for (double& v : inputs) {
    v = uniform(rng);
  }
  for (double& v : grad_out) {
    v = uniform(rng);
  }

  scalar_net.zero_grad();
  for (int r = 0; r < kBatch; ++r) {
    (void)scalar_net.forward_cached(std::span<const double>(inputs).subspan(
        static_cast<std::size_t>(r) * 4, 4));
    scalar_net.backward(std::span<const double>(grad_out).subspan(
        static_cast<std::size_t>(r) * 2, 2));
  }

  batch_net.zero_grad();
  const auto& batch_out = batch_net.forward_batch_cached(inputs, kBatch);
  for (int r = 0; r < kBatch; ++r) {
    const auto scalar_out = scalar_net.forward(
        std::span<const double>(inputs).subspan(
            static_cast<std::size_t>(r) * 4, 4));
    EXPECT_EQ(scalar_out[0], batch_out[static_cast<std::size_t>(r * 2)]);
  }
  batch_net.backward_batch(grad_out, kBatch);

  std::vector<double*> pa;
  std::vector<double*> ga;
  std::vector<double*> pb;
  std::vector<double*> gb;
  scalar_net.collect_parameters(pa, ga);
  batch_net.collect_parameters(pb, gb);
  ASSERT_EQ(ga.size(), gb.size());
  for (std::size_t i = 0; i < ga.size(); ++i) {
    EXPECT_EQ(*ga[i], *gb[i]) << "gradient " << i;
  }
}

TEST(MlpTest, ForwardBatchRejectsBadShapes) {
  Mlp net({3, 4, 2}, 1);
  std::vector<double> out;
  const std::vector<double> data(7, 0.0);  // not a multiple of 3
  EXPECT_THROW(net.forward_batch(data, 2, out), std::invalid_argument);
  EXPECT_THROW((void)net.forward_batch_cached(data, 0),
               std::invalid_argument);
  const std::vector<double> grads(4, 0.0);
  EXPECT_THROW(net.backward_batch(grads, 2), std::invalid_argument);
}

TEST(MlpTest, SaveLoadRoundTrip) {
  Mlp net({3, 6, 4}, 5);
  std::stringstream ss;
  net.save(ss);
  Mlp back = Mlp::load(ss);
  const std::vector<double> x{0.1, 0.2, 0.3};
  const auto a = net.forward(x);
  const auto b = back.forward(x);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i], b[i], 1e-15);
  }
}

TEST(MlpTest, LoadRejectsGarbage) {
  std::stringstream ss("not a network");
  EXPECT_THROW((void)Mlp::load(ss), std::runtime_error);
}

TEST(MlpTest, LoadRejectsOversizedNetworks) {
  // 65536 x 65536 overflows an int to 0; 65536 x 30000 asks for 15.7 GB.
  // Both are refused before anything is allocated.
  const auto load_error = [](const std::string& text) -> std::string {
    std::stringstream ss(text);
    try {
      (void)Mlp::load(ss);
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "";
  };
  EXPECT_EQ(load_error("mlp 2\n65536 65536\n"),
            "Mlp::load: 4295032832 parameters; at most 4194304");
  EXPECT_EQ(load_error("mlp 2\n65536 30000\n"),
            "Mlp::load: 1966110000 parameters; at most 4194304");
  // Exactly 2^22 parameters pass the check and fail on the missing data.
  EXPECT_EQ(load_error("mlp 2\n1023 4096\n"),
            "Mlp::load: truncated parameter data");
  EXPECT_EQ(load_error("mlp 2\n1024 4096\n"),
            "Mlp::load: 4198400 parameters; at most 4194304");
}

// ----------------------------------------------------------------- Adam ---

TEST(AdamTest, MinimisesQuadratic) {
  // One-parameter problem: f(w) = (w - 3)^2.
  double w = 0.0;
  double g = 0.0;
  Adam opt({&w}, {&g}, {.lr = 0.1});
  for (int i = 0; i < 500; ++i) {
    g = 2.0 * (w - 3.0);
    opt.step();
  }
  EXPECT_NEAR(w, 3.0, 1e-2);
}

TEST(AdamTest, GradientClippingBoundsStep) {
  double w = 0.0;
  double g = 1e9;
  Adam opt({&w}, {&g}, {.lr = 0.1});
  opt.step(1.0);  // clip to unit norm
  // First Adam step magnitude is ~lr regardless, but must be finite/sane.
  EXPECT_LT(std::abs(w), 0.2);
}

// ----------------------------------------------------------- categorical --

TEST(CategoricalTest, ProbabilitiesSumToOne) {
  const std::vector<double> logits{0.3, -0.1, 2.0, 0.0};
  const std::vector<bool> mask{true, true, true, true};
  const MaskedCategorical dist(logits, mask);
  double sum = 0.0;
  for (const double p : dist.probs()) {
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(CategoricalTest, MaskedActionsHaveZeroProbability) {
  const std::vector<double> logits{5.0, 1.0, 1.0};
  const std::vector<bool> mask{false, true, true};
  const MaskedCategorical dist(logits, mask);
  EXPECT_EQ(dist.probs()[0], 0.0);
  EXPECT_GT(dist.probs()[1], 0.0);
  std::mt19937_64 rng(1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_NE(dist.sample(rng), 0);
  }
}

TEST(CategoricalTest, AllMaskedThrows) {
  const std::vector<double> logits{1.0, 2.0};
  const std::vector<bool> mask{false, false};
  EXPECT_THROW(MaskedCategorical(logits, mask), std::invalid_argument);
}

TEST(CategoricalTest, EntropyOfUniformIsLogN) {
  const std::vector<double> logits{0.7, 0.7, 0.7, 0.7};
  const std::vector<bool> mask{true, true, true, true};
  const MaskedCategorical dist(logits, mask);
  EXPECT_NEAR(dist.entropy(), std::log(4.0), 1e-12);
}

TEST(CategoricalTest, ArgmaxPicksLargestValid) {
  const std::vector<double> logits{9.0, 2.0, 3.0};
  const std::vector<bool> mask{false, true, true};
  const MaskedCategorical dist(logits, mask);
  EXPECT_EQ(dist.argmax(), 2);
}

TEST(CategoricalTest, LogProbGradSumsToZero) {
  const std::vector<double> logits{0.5, -1.0, 2.0};
  const std::vector<bool> mask{true, true, true};
  const MaskedCategorical dist(logits, mask);
  const auto grad = dist.log_prob_grad(1);
  double sum = 0.0;
  for (const double g : grad) {
    sum += g;
  }
  EXPECT_NEAR(sum, 0.0, 1e-12);
  EXPECT_GT(grad[1], 0.0);
}

TEST(CategoricalTest, SamplingFollowsDistribution) {
  const std::vector<double> logits{std::log(0.7), std::log(0.3)};
  const std::vector<bool> mask{true, true};
  const MaskedCategorical dist(logits, mask);
  std::mt19937_64 rng(42);
  int count0 = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    if (dist.sample(rng) == 0) {
      ++count0;
    }
  }
  EXPECT_NEAR(static_cast<double>(count0) / trials, 0.7, 0.02);
}

TEST(CategoricalTest, BatchedMatchesScalarBitwise) {
  const std::vector<std::vector<double>> logit_rows = {
      {0.3, -0.1, 2.0, 0.0},
      {5.0, 1.0, -2.0, 0.7},
      {0.0, 0.0, 0.0, 0.0},
  };
  const std::vector<std::vector<bool>> masks = {
      {true, true, true, true},
      {false, true, true, false},
      {true, false, true, true},
  };
  std::vector<double> flat;
  for (const auto& row : logit_rows) {
    flat.insert(flat.end(), row.begin(), row.end());
  }
  const BatchedMaskedCategorical batched(flat, masks);
  ASSERT_EQ(batched.batch_size(), 3);
  ASSERT_EQ(batched.num_actions(), 4);
  std::vector<double> grad_batched(4);
  for (int r = 0; r < 3; ++r) {
    const MaskedCategorical scalar(logit_rows[static_cast<std::size_t>(r)],
                                   masks[static_cast<std::size_t>(r)]);
    const auto row_probs = batched.probs(r);
    for (int a = 0; a < 4; ++a) {
      EXPECT_EQ(row_probs[static_cast<std::size_t>(a)],
                scalar.probs()[static_cast<std::size_t>(a)])
          << "row " << r << " action " << a;
      EXPECT_EQ(batched.log_prob(r, a), scalar.log_prob(a));
    }
    EXPECT_EQ(batched.argmax(r), scalar.argmax());
    EXPECT_EQ(batched.entropy(r), scalar.entropy());
    const int probe = scalar.argmax();
    batched.log_prob_grad(r, probe, grad_batched);
    const auto grad_scalar = scalar.log_prob_grad(probe);
    for (int a = 0; a < 4; ++a) {
      EXPECT_EQ(grad_batched[static_cast<std::size_t>(a)],
                grad_scalar[static_cast<std::size_t>(a)]);
    }
    batched.entropy_grad(r, grad_batched);
    const auto ent_scalar = scalar.entropy_grad();
    for (int a = 0; a < 4; ++a) {
      EXPECT_EQ(grad_batched[static_cast<std::size_t>(a)],
                ent_scalar[static_cast<std::size_t>(a)]);
    }
    // Sampling consumes the RNG stream identically.
    std::mt19937_64 rng_a(99 + static_cast<std::uint64_t>(r));
    std::mt19937_64 rng_b(99 + static_cast<std::uint64_t>(r));
    for (int t = 0; t < 64; ++t) {
      EXPECT_EQ(batched.sample(r, rng_a), scalar.sample(rng_b));
    }
  }
}

TEST(CategoricalTest, BatchedRejectsBadInput) {
  const std::vector<double> logits{0.0, 1.0};
  EXPECT_THROW(BatchedMaskedCategorical(logits, {}), std::invalid_argument);
  // Two rows of two actions need four logits.
  EXPECT_THROW(BatchedMaskedCategorical(logits, {{true, true}, {true, true}}),
               std::invalid_argument);
  // Ragged masks are rejected.
  const std::vector<double> four{0.0, 1.0, 2.0, 3.0};
  EXPECT_THROW(BatchedMaskedCategorical(four, {{true, true}, {true}}),
               std::invalid_argument);
  // A row with no valid action is rejected like the scalar distribution.
  EXPECT_THROW(BatchedMaskedCategorical(logits, {{false, false}}),
               std::invalid_argument);
}

// ------------------------------------------------------------- toy envs ---

/// One-step environment: 4 actions, reward = preset payout; action 2 pays
/// best. Tests basic policy improvement.
class BanditEnv final : public Env {
 public:
  int observation_size() const override { return 2; }
  int num_actions() const override { return 4; }
  std::vector<double> reset() override { return {1.0, 0.0}; }
  std::vector<bool> action_mask() const override {
    return {true, true, true, true};
  }
  StepResult step(int action) override {
    static constexpr double kPayout[4] = {0.1, 0.4, 1.0, 0.2};
    return {.observation = {1.0, 0.0},
            .reward = kPayout[action],
            .done = true,
            .truncated = false};
  }
};

/// Corridor of length 5: action 1 moves right (reward 1 at the end),
/// action 0 moves left. Action 2 is always invalid (mask honoured).
/// Episodes truncate after 20 steps.
class CorridorEnv final : public Env {
 public:
  int observation_size() const override { return 1; }
  int num_actions() const override { return 3; }
  std::vector<double> reset() override {
    pos_ = 0;
    steps_ = 0;
    return observe();
  }
  std::vector<bool> action_mask() const override {
    return {pos_ > 0, true, false};
  }
  StepResult step(int action) override {
    if (action == 2) {
      throw std::logic_error("CorridorEnv: invalid action taken");
    }
    pos_ += action == 1 ? 1 : -1;
    pos_ = std::max(0, pos_);
    ++steps_;
    StepResult r;
    r.observation = observe();
    if (pos_ >= 5) {
      r.reward = 1.0;
      r.done = true;
    } else if (steps_ >= 20) {
      r.truncated = true;
    }
    return r;
  }

 private:
  std::vector<double> observe() const {
    return {static_cast<double>(pos_) / 5.0};
  }
  int pos_ = 0;
  int steps_ = 0;
};

/// Endless one-state task paying reward 1 every step. Episodes never
/// reach a terminal state; they are either cut off by the time limit
/// (truncated — the value estimate of the next state must be
/// bootstrapped, so V heads towards 1/(1-gamma)) or, in the control
/// variant, genuinely terminated (V converges to the short episodic sum).
class EndlessRewardEnv final : public Env {
 public:
  explicit EndlessRewardEnv(bool truncate) : truncate_(truncate) {}
  int observation_size() const override { return 1; }
  int num_actions() const override { return 1; }
  std::vector<double> reset() override {
    steps_ = 0;
    return {1.0};
  }
  std::vector<bool> action_mask() const override { return {true}; }
  StepResult step(int) override {
    ++steps_;
    StepResult r;
    r.observation = {1.0};
    r.reward = 1.0;
    if (steps_ >= 2) {
      if (truncate_) {
        r.truncated = true;
      } else {
        r.done = true;
      }
    }
    return r;
  }

 private:
  bool truncate_ = false;
  int steps_ = 0;
};

/// Trains PPO on one `EnvT(args...)`, through a one-env VecEnv as every
/// training run goes.
template <typename EnvT, typename... Args>
PpoAgent train_one(const PpoConfig& config,
                   std::vector<PpoUpdateStats>* stats, Args... args) {
  VecEnv envs([&](int) { return std::make_unique<EnvT>(args...); }, 1);
  return qrc::rl::train_ppo_vec(envs, config, stats);
}

TEST(PpoTest, TruncationBootstrapsValueEstimate) {
  // Identical MDPs except for how the 2-step episodes end. Treating the
  // time limit as terminal caps the value at 1 + gamma = 1.9; correct
  // truncation handling bootstraps V(s') and drives the estimate towards
  // the infinite-horizon 1/(1-gamma) = 10.
  PpoConfig config;
  config.total_timesteps = 8192;
  config.steps_per_update = 256;
  config.minibatch_size = 64;
  config.epochs_per_update = 10;
  config.gamma = 0.9;
  config.learning_rate = 1e-2;
  config.hidden_sizes = {8};
  config.seed = 4;
  const auto agent_trunc = train_one<EndlessRewardEnv>(config, nullptr, true);
  const auto agent_term = train_one<EndlessRewardEnv>(config, nullptr, false);
  const std::vector<double> obs{1.0};
  EXPECT_LT(agent_term.value(obs), 3.0);
  EXPECT_GT(agent_trunc.value(obs), 4.0);
  EXPECT_GT(agent_trunc.value(obs), agent_term.value(obs) + 1.0);
}

TEST(PpoTest, LearnsBanditOptimalArm) {
  PpoConfig config;
  config.total_timesteps = 4096;
  config.steps_per_update = 256;
  config.minibatch_size = 64;
  config.epochs_per_update = 6;
  config.learning_rate = 3e-3;
  config.hidden_sizes = {16};
  config.seed = 5;
  const auto agent = train_one<BanditEnv>(config, nullptr);
  const std::vector<double> obs{1.0, 0.0};
  const std::vector<bool> mask{true, true, true, true};
  EXPECT_EQ(agent.act_greedy(obs, mask), 2);
}

TEST(PpoTest, LearnsCorridorAndHonoursMask) {
  PpoConfig config;
  config.total_timesteps = 8192;
  config.steps_per_update = 512;
  config.minibatch_size = 64;
  config.epochs_per_update = 8;
  config.learning_rate = 3e-3;
  config.hidden_sizes = {16};
  config.seed = 9;
  std::vector<PpoUpdateStats> stats;
  const auto agent = train_one<CorridorEnv>(config, &stats);
  ASSERT_FALSE(stats.empty());
  // After training, the greedy policy should walk straight to the goal.
  CorridorEnv env;
  auto obs = env.reset();
  int steps = 0;
  bool done = false;
  while (!done && steps < 20) {
    const auto mask = env.action_mask();
    const int action = agent.act_greedy(obs, mask);
    ASSERT_TRUE(mask[static_cast<std::size_t>(action)]);
    const auto result = env.step(action);
    obs = result.observation;
    done = result.done;
    ++steps;
  }
  EXPECT_TRUE(done);
  EXPECT_EQ(steps, 5);
  // Mean episode reward should improve from first to last update.
  EXPECT_GE(stats.back().mean_episode_reward,
            stats.front().mean_episode_reward);
}

TEST(PpoTest, TrainingIsDeterministicGivenSeed) {
  PpoConfig config;
  config.total_timesteps = 1024;
  config.steps_per_update = 256;
  config.hidden_sizes = {8};
  config.seed = 33;
  std::vector<PpoUpdateStats> sa;
  std::vector<PpoUpdateStats> sb;
  (void)train_one<BanditEnv>(config, &sa);
  (void)train_one<BanditEnv>(config, &sb);
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_DOUBLE_EQ(sa[i].mean_episode_reward, sb[i].mean_episode_reward);
    EXPECT_DOUBLE_EQ(sa[i].policy_loss, sb[i].policy_loss);
  }
}

TEST(PpoTest, AgentSaveLoadRoundTrip) {
  PpoConfig config;
  config.total_timesteps = 1024;
  config.steps_per_update = 256;
  config.hidden_sizes = {8};
  config.seed = 2;
  const auto agent = train_one<BanditEnv>(config, nullptr);
  std::stringstream ss;
  agent.save(ss);
  const auto back = PpoAgent::load(ss);
  const std::vector<double> obs{1.0, 0.0};
  const std::vector<bool> mask{true, true, true, true};
  EXPECT_EQ(agent.act_greedy(obs, mask), back.act_greedy(obs, mask));
  EXPECT_NEAR(agent.value(obs), back.value(obs), 1e-12);
}

}  // namespace

// Tests for the compilation MDP: state machine transitions, action
// masking, environment episodes, the end-to-end predictor and the baseline
// pipelines. Integration-grade: these drive every module in the library.

#include <gtest/gtest.h>

#include <random>
#include <sstream>

#include "baselines/baselines.hpp"
#include "bench_suite/benchmarks.hpp"
#include "core/actions.hpp"
#include "core/compilation_env.hpp"
#include "core/predictor.hpp"
#include "device/library.hpp"
#include "features/features.hpp"
#include "ir/sim.hpp"
#include "rl/ppo.hpp"

namespace {

using qrc::bench::BenchmarkFamily;
using qrc::core::ActionRegistry;
using qrc::core::CompilationEnv;
using qrc::core::CompilationEnvConfig;
using qrc::core::CompilationState;
using qrc::core::MdpState;
using qrc::device::DeviceId;
using qrc::ir::Circuit;
using qrc::reward::RewardKind;

Circuit small_ghz() {
  Circuit c(3, "ghz3");
  c.h(0);
  c.cx(0, 1);
  c.cx(1, 2);
  c.measure_all();
  return c;
}

void apply_by_name(CompilationState& state, std::string_view name,
                   std::uint64_t seed = 1) {
  const auto& registry = ActionRegistry::instance();
  const int id = registry.index_of(name);
  ASSERT_TRUE(registry.at(id).valid(state)) << name;
  registry.at(id).apply(state, seed);
}

// --------------------------------------------------------- state machine --

TEST(MdpStateTest, RegistryHas29Actions) {
  EXPECT_EQ(ActionRegistry::instance().size(), 29);
}

TEST(MdpStateTest, WalkThroughAllStates) {
  CompilationState state;
  state.circuit = small_ghz();
  EXPECT_EQ(state.state(), MdpState::kStart);

  apply_by_name(state, "platform_ibm");
  EXPECT_EQ(state.state(), MdpState::kPlatformChosen);

  apply_by_name(state, "device_ibmq_montreal");
  EXPECT_EQ(state.state(), MdpState::kDeviceChosen);

  apply_by_name(state, "BasisTranslator");
  EXPECT_EQ(state.state(), MdpState::kOnlyNativeGates);
  EXPECT_TRUE(state.is_native());
  EXPECT_FALSE(state.is_mapped());

  apply_by_name(state, "TrivialLayout");
  // GHZ chain on montreal: qubits 0-1 coupled, 1-2 uncoupled -> not done.
  EXPECT_TRUE(state.layout_applied);

  if (state.state() != MdpState::kDone) {
    apply_by_name(state, "SabreSwap");
    // Inserted SWAPs are non-native again.
    apply_by_name(state, "BasisTranslator");
  }
  EXPECT_EQ(state.state(), MdpState::kDone);
  EXPECT_TRUE(state.device->circuit_is_native(state.circuit));
  EXPECT_TRUE(state.device->circuit_respects_topology(state.circuit));
}

TEST(MdpStateTest, MasksFollowFigureTwo) {
  const auto& registry = ActionRegistry::instance();
  CompilationState state;
  state.circuit = small_ghz();

  // Start: platforms + optimizations only.
  auto mask = registry.mask(state);
  for (int i = 0; i < registry.size(); ++i) {
    const auto type = registry.at(i).type();
    const bool expected = type == qrc::core::ActionType::kPlatformSelection ||
                          type == qrc::core::ActionType::kOptimization;
    EXPECT_EQ(mask[static_cast<std::size_t>(i)], expected)
        << registry.at(i).name();
  }

  // PlatformChosen(IBM): IBM devices + optimizations.
  apply_by_name(state, "platform_ibm");
  mask = registry.mask(state);
  EXPECT_TRUE(mask[static_cast<std::size_t>(
      registry.index_of("device_ibmq_montreal"))]);
  EXPECT_TRUE(mask[static_cast<std::size_t>(
      registry.index_of("device_ibmq_washington"))]);
  EXPECT_FALSE(
      mask[static_cast<std::size_t>(registry.index_of("device_oqc_lucy"))]);
  EXPECT_FALSE(
      mask[static_cast<std::size_t>(registry.index_of("platform_ibm"))]);
  EXPECT_FALSE(
      mask[static_cast<std::size_t>(registry.index_of("TrivialLayout"))]);

  // DeviceChosen: synthesis + layout + optimizations; no routing yet.
  apply_by_name(state, "device_ibmq_montreal");
  mask = registry.mask(state);
  EXPECT_TRUE(
      mask[static_cast<std::size_t>(registry.index_of("BasisTranslator"))]);
  EXPECT_TRUE(
      mask[static_cast<std::size_t>(registry.index_of("SabreLayout"))]);
  EXPECT_FALSE(
      mask[static_cast<std::size_t>(registry.index_of("SabreSwap"))]);

  // After layout: routing valid (if unmapped), layout invalid.
  apply_by_name(state, "BasisTranslator");
  apply_by_name(state, "TrivialLayout");
  mask = registry.mask(state);
  EXPECT_FALSE(
      mask[static_cast<std::size_t>(registry.index_of("TrivialLayout"))]);
  if (state.state() != MdpState::kDone) {
    EXPECT_TRUE(
        mask[static_cast<std::size_t>(registry.index_of("BasicSwap"))]);
  }
}

TEST(MdpStateTest, DeviceTooSmallIsMasked) {
  CompilationState state;
  state.circuit = qrc::bench::make_benchmark(BenchmarkFamily::kGhz, 15, 1);
  apply_by_name(state, "platform_oqc");
  const auto& registry = ActionRegistry::instance();
  // Lucy has 8 qubits < 15.
  EXPECT_FALSE(registry.at(registry.index_of("device_oqc_lucy"))
                   .valid(state));
}

TEST(MdpStateTest, OptimizationsLeaveAPlatformPickWithoutDevice) {
  // The greedy rollout ends an episode whose platform pick no device can
  // follow. That rests on this invariant: no optimization pass changes
  // the circuit's width, the platform or the device in PlatformChosen.
  const auto& registry = ActionRegistry::instance();
  for (const BenchmarkFamily family : qrc::bench::all_families()) {
    for (const int n : {9, 12, 20}) {
      CompilationState state;
      state.circuit = qrc::bench::make_benchmark(family, n, 1);
      const std::string name = state.circuit.name();
      apply_by_name(state, "platform_ionq");
      int optimizations = 0;
      for (int a = 0; a < registry.size(); ++a) {
        const auto& action = registry.at(a);
        if (action.type() != qrc::core::ActionType::kOptimization) {
          continue;
        }
        ++optimizations;
        ASSERT_TRUE(action.valid(state)) << name << " " << action.name();
        action.apply(state, 1);
        EXPECT_EQ(state.circuit.num_qubits(), n) << name << " "
                                                 << action.name();
        EXPECT_EQ(state.platform, qrc::device::Platform::kIonQ)
            << name << " " << action.name();
        EXPECT_EQ(state.device, nullptr) << name << " " << action.name();
        EXPECT_EQ(state.state(), MdpState::kPlatformChosen)
            << name << " " << action.name();
      }
      EXPECT_EQ(optimizations, 12);
    }
  }
}

TEST(MdpStateTest, MaskMatchesEachActionAlongRandomWalks) {
  // The mask computes state() once and hands it to all 29 rules; along
  // seeded random walks it must agree with every one-argument valid(),
  // and the two rules rewritten in terms of the MdpState with their
  // original definitions.
  using qrc::core::ActionType;
  const auto& registry = ActionRegistry::instance();
  std::mt19937_64 rng(22);
  int checked = 0;
  int routing_states = 0;
  for (const BenchmarkFamily family : qrc::bench::all_families()) {
    for (const char* platform :
         {"platform_ibm", "platform_rigetti", "platform_ionq",
          "platform_oqc"}) {
      CompilationState state;
      state.circuit = qrc::bench::make_benchmark(family, 5, 3);
      const std::string where =
          state.circuit.name() + " via " + std::string(platform);
      apply_by_name(state, platform);
      for (int step = 0; step < 16; ++step) {
        const auto mask = registry.mask(state);
        ASSERT_EQ(mask, registry.mask(state, state.state())) << where;
        std::vector<int> valid;
        for (int a = 0; a < registry.size(); ++a) {
          const auto& action = registry.at(a);
          ASSERT_EQ(mask[static_cast<std::size_t>(a)], action.valid(state))
              << where << " step " << step << " " << action.name();
          if (action.type() == ActionType::kSynthesis) {
            EXPECT_EQ(action.valid(state),
                      state.state() == MdpState::kDeviceChosen &&
                          !state.is_native())
                << where << " step " << step;
          }
          if (action.type() == ActionType::kRouting) {
            EXPECT_EQ(action.valid(state),
                      state.device != nullptr && state.layout_applied &&
                          state.circuit.max_gate_arity_at_most(2) &&
                          !state.is_mapped())
                << where << " step " << step << " " << action.name();
            routing_states += state.layout_applied ? 1 : 0;
          }
          if (mask[static_cast<std::size_t>(a)]) {
            valid.push_back(a);
          }
        }
        ++checked;
        if (valid.empty()) {
          break;  // Done, or a platform pick that no device can hold
        }
        const int pick = valid[rng() % valid.size()];
        registry.at(pick).apply(state, rng());
      }
    }
  }
  EXPECT_GT(checked, 22 * 4 * 4);
  EXPECT_GT(routing_states, 0);
}

TEST(MdpStateTest, PlatformAndDevicePicksKeepTheObservation) {
  // Only passes touch the circuit, so the rollout reuses the observation
  // after a platform or device pick; the env's fresh one must equal it.
  const auto& registry = ActionRegistry::instance();
  for (const BenchmarkFamily family : qrc::bench::all_families()) {
    const Circuit circuit = qrc::bench::make_benchmark(family, 5, 1);
    CompilationEnv env({circuit}, CompilationEnvConfig{});
    const auto start = env.reset_with(circuit);
    for (const char* name : {"platform_ibm", "device_ibmq_montreal"}) {
      ASSERT_TRUE(CompilationEnv::keeps_circuit(registry.index_of(name)));
      const auto result = env.step(registry.index_of(name));
      EXPECT_EQ(result.observation, start) << circuit.name() << " " << name;
      EXPECT_EQ(result.observation, CompilationEnv::observe_state(env.state()))
          << circuit.name() << " " << name;
    }
    const auto synthesized = env.step(registry.index_of("BasisTranslator"));
    EXPECT_FALSE(
        CompilationEnv::keeps_circuit(registry.index_of("BasisTranslator")));
    EXPECT_EQ(synthesized.observation,
              CompilationEnv::observe_state(env.state()))
        << circuit.name();
  }
}

TEST(MdpStateTest, RoutingMaskedForThreeQubitGates) {
  CompilationState state;
  state.circuit = Circuit(3);
  state.circuit.ccx(0, 1, 2);
  apply_by_name(state, "platform_ibm");
  apply_by_name(state, "device_ibmq_montreal");
  apply_by_name(state, "TrivialLayout");
  const auto& registry = ActionRegistry::instance();
  EXPECT_FALSE(
      registry.at(registry.index_of("SabreSwap")).valid(state));
  // Synthesis lowers the Toffoli, after which routing unlocks.
  apply_by_name(state, "BasisTranslator");
  EXPECT_TRUE(state.circuit.max_gate_arity_at_most(2));
}

TEST(MdpStateTest, OptimizationsKeepCircuitExecutableAfterMapping) {
  // Run every optimization action on a mapped circuit; connectivity and
  // semantics must be preserved.
  const auto& registry = ActionRegistry::instance();
  CompilationState state;
  state.circuit = qrc::bench::make_benchmark(BenchmarkFamily::kQaoa, 4, 2);
  apply_by_name(state, "platform_ibm");
  apply_by_name(state, "device_ibmq_montreal");
  apply_by_name(state, "BasisTranslator");
  apply_by_name(state, "SabreLayout");
  if (!state.is_mapped()) {
    apply_by_name(state, "SabreSwap");
    apply_by_name(state, "BasisTranslator");
  }
  ASSERT_EQ(state.state(), MdpState::kDone);
  // Done is terminal: no action is valid any more. To exercise the
  // optimizations on mapped circuits we evaluate pass validity just before
  // completion instead.
  const auto mask = registry.mask(state);
  for (int i = 0; i < registry.size(); ++i) {
    EXPECT_FALSE(mask[static_cast<std::size_t>(i)])
        << registry.at(i).name() << " valid in Done";
  }
}

// ---------------------------------------------------------------- env -----

TEST(CompilationEnvTest, ObservationShapeAndRange) {
  CompilationEnv env({small_ghz()}, CompilationEnvConfig{});
  const auto obs = env.reset();
  ASSERT_EQ(obs.size(), 7U);
  for (const double v : obs) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
  EXPECT_EQ(env.num_actions(), 29);
}

TEST(CompilationEnvTest, ScriptedEpisodeReachesDoneWithReward) {
  CompilationEnvConfig config;
  config.reward = RewardKind::kFidelity;
  CompilationEnv env({small_ghz()}, config);
  (void)env.reset();
  const auto& registry = ActionRegistry::instance();
  const std::vector<std::string> script = {
      "platform_ibm", "device_ibmq_montreal", "BasisTranslator",
      "SabreLayout"};
  double reward = 0.0;
  bool done = false;
  for (const auto& name : script) {
    const auto result = env.step(registry.index_of(name));
    reward = result.reward;
    done = result.done;
    if (done) {
      break;
    }
  }
  while (!done) {
    // Finish with routing + synthesis as needed.
    const auto mask = env.action_mask();
    const int sabre = registry.index_of("SabreSwap");
    const int translate = registry.index_of("BasisTranslator");
    const int action = mask[static_cast<std::size_t>(sabre)] ? sabre
                                                             : translate;
    const auto result = env.step(action);
    reward = result.reward;
    done = result.done;
  }
  EXPECT_TRUE(done);
  EXPECT_GT(reward, 0.5);  // small circuit: decent fidelity
  EXPECT_LE(reward, 1.0);
}

TEST(CompilationEnvTest, InvalidActionThrows) {
  CompilationEnv env({small_ghz()}, CompilationEnvConfig{});
  (void)env.reset();
  const auto& registry = ActionRegistry::instance();
  EXPECT_THROW((void)env.step(registry.index_of("SabreSwap")),
               std::logic_error);
}

TEST(CompilationEnvTest, TruncationAfterMaxSteps) {
  CompilationEnvConfig config;
  config.max_steps = 3;
  CompilationEnv env({small_ghz()}, config);
  (void)env.reset();
  const auto& registry = ActionRegistry::instance();
  // Waste steps on optimizations that change nothing.
  const int noop = registry.index_of("CXCancellation");
  qrc::rl::StepResult result;
  for (int i = 0; i < 3; ++i) {
    result = env.step(noop);
  }
  EXPECT_TRUE(result.truncated);
  EXPECT_EQ(result.reward, 0.0);
}

TEST(CompilationEnvTest, MaskAlwaysHasValidAction) {
  // Random-walk episodes: at every step at least one action is valid.
  CompilationEnvConfig config;
  config.seed = 5;
  auto circuits = qrc::bench::benchmark_suite(2, 6, 10);
  CompilationEnv env(std::move(circuits), config);
  std::mt19937_64 rng(3);
  for (int episode = 0; episode < 4; ++episode) {
    (void)env.reset();
    for (int step = 0; step < 25; ++step) {
      const auto mask = env.action_mask();
      std::vector<int> valid;
      for (int i = 0; i < static_cast<int>(mask.size()); ++i) {
        if (mask[static_cast<std::size_t>(i)]) {
          valid.push_back(i);
        }
      }
      ASSERT_FALSE(valid.empty()) << "episode " << episode << " step "
                                  << step;
      const int action = valid[std::uniform_int_distribution<std::size_t>(
          0, valid.size() - 1)(rng)];
      const auto result = env.step(action);
      if (result.done || result.truncated) {
        break;
      }
    }
  }
}

// ------------------------------------------------------------ predictor ---

TEST(PredictorTest, TrainCompileRoundTrip) {
  qrc::core::PredictorConfig config;
  config.reward = RewardKind::kFidelity;
  config.seed = 11;
  config.ppo.total_timesteps = 768;
  config.ppo.steps_per_update = 256;
  config.ppo.epochs_per_update = 4;
  config.ppo.hidden_sizes = {32};
  qrc::core::Predictor predictor(config);

  std::vector<Circuit> circuits;
  for (const int n : {3, 4}) {
    circuits.push_back(
        qrc::bench::make_benchmark(BenchmarkFamily::kGhz, n, 1));
    circuits.push_back(
        qrc::bench::make_benchmark(BenchmarkFamily::kVqe, n, 1));
  }
  const auto stats = predictor.train(circuits);
  EXPECT_FALSE(stats.empty());
  ASSERT_TRUE(predictor.is_trained());

  const auto result = predictor.compile(
      qrc::bench::make_benchmark(BenchmarkFamily::kGhz, 4, 2));
  ASSERT_NE(result.device, nullptr);
  EXPECT_TRUE(result.device->circuit_is_native(result.circuit));
  EXPECT_TRUE(result.device->circuit_respects_topology(result.circuit));
  EXPECT_GE(result.reward, 0.0);
  EXPECT_LE(result.reward, 1.0);
  EXPECT_FALSE(result.action_trace.empty());
}

TEST(PredictorTest, SaveLoadProducesSameCompilation) {
  // End-to-end save -> load equivalence: the reloaded model must produce
  // identical compilations (action traces, rewards, circuits, layouts)
  // across a corpus spanning several families and widths, through both
  // the scalar and the batched compile paths.
  qrc::core::PredictorConfig config;
  config.reward = RewardKind::kCriticalDepth;
  config.seed = 13;
  config.ppo.total_timesteps = 512;
  config.ppo.steps_per_update = 256;
  config.ppo.hidden_sizes = {16};
  qrc::core::Predictor predictor(config);
  (void)predictor.train({small_ghz()});

  std::stringstream ss;
  predictor.save(ss);
  const auto loaded = qrc::core::Predictor::load(ss);
  EXPECT_EQ(loaded.config().reward, config.reward);
  EXPECT_EQ(loaded.config().seed, config.seed);

  std::vector<Circuit> corpus;
  for (const int n : {2, 3, 4}) {
    corpus.push_back(
        qrc::bench::make_benchmark(BenchmarkFamily::kWstate, n, 1));
    corpus.push_back(
        qrc::bench::make_benchmark(BenchmarkFamily::kGhz, n, 1));
    corpus.push_back(
        qrc::bench::make_benchmark(BenchmarkFamily::kQft, n, 1));
  }
  const auto batched_original = predictor.compile_all(corpus);
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const auto a = predictor.compile(corpus[i]);
    const auto b = loaded.compile(corpus[i]);
    EXPECT_EQ(a.action_trace, b.action_trace) << corpus[i].name();
    EXPECT_EQ(a.reward, b.reward) << corpus[i].name();
    EXPECT_EQ(a.used_fallback, b.used_fallback) << corpus[i].name();
    EXPECT_EQ(a.device, b.device) << corpus[i].name();
    EXPECT_TRUE(a.circuit == b.circuit) << corpus[i].name();
    EXPECT_EQ(a.initial_layout, b.initial_layout) << corpus[i].name();
    EXPECT_EQ(a.final_layout, b.final_layout) << corpus[i].name();
    // The batched loop agrees with the scalar one on both models.
    EXPECT_EQ(batched_original[i].action_trace, a.action_trace);
    EXPECT_TRUE(batched_original[i].circuit == b.circuit);
  }
}

TEST(PredictorTest, CompileBeforeTrainThrows) {
  qrc::core::Predictor predictor({});
  EXPECT_THROW((void)predictor.compile(small_ghz()), std::logic_error);
  EXPECT_THROW((void)predictor.compile_all({}), std::logic_error);
}

TEST(PredictorTest, CompileAllMatchesIndividualCompiles) {
  // One engine behind every option shape: the batched suite compile (one
  // policy forward over all still-running episodes per step, then the
  // per-circuit search and the verify gate) must reproduce compile()
  // exactly per circuit.
  qrc::core::PredictorConfig config;
  config.seed = 11;
  config.ppo.total_timesteps = 512;
  config.ppo.steps_per_update = 256;
  config.ppo.hidden_sizes = {16};
  config.rollout_workers = 2;
  qrc::core::Predictor predictor(config);
  (void)predictor.train({small_ghz()});

  std::vector<Circuit> suite;
  for (const int n : {2, 3, 4}) {
    suite.push_back(qrc::bench::make_benchmark(BenchmarkFamily::kGhz, n, 1));
    suite.push_back(qrc::bench::make_benchmark(BenchmarkFamily::kVqe, n, 1));
  }
  using qrc::core::CompileOptions;
  const auto beam = qrc::search::parse_spec("beam:2");
  const std::vector<std::pair<std::string, CompileOptions>> shapes = {
      {"default", {}},
      {"verify", {.verify = qrc::verify::VerifyOptions{}}},
      {"masked_feature=3", {.masked_feature = 3}},
      {"beam:2", {.search = beam}},
      {"beam:2+verify",
       {.verify = qrc::verify::VerifyOptions{}, .search = beam}},
  };
  for (const auto& [label, options] : shapes) {
    const auto batched = predictor.compile_all(suite, nullptr, options);
    ASSERT_EQ(batched.size(), suite.size()) << label;
    for (std::size_t i = 0; i < suite.size(); ++i) {
      const auto single = predictor.compile(suite[i], options);
      const std::string context = label + " on " + suite[i].name();
      EXPECT_TRUE(batched[i].circuit == single.circuit) << context;
      EXPECT_EQ(batched[i].initial_layout, single.initial_layout) << context;
      EXPECT_EQ(batched[i].final_layout, single.final_layout) << context;
      EXPECT_EQ(batched[i].action_trace, single.action_trace) << context;
      EXPECT_EQ(batched[i].reward, single.reward) << context;
      EXPECT_EQ(batched[i].used_fallback, single.used_fallback) << context;
      EXPECT_EQ(batched[i].device, single.device) << context;
      ASSERT_EQ(batched[i].verification.has_value(),
                options.verify.has_value())
          << context;
      ASSERT_EQ(single.verification.has_value(), options.verify.has_value())
          << context;
      if (options.verify.has_value()) {
        EXPECT_EQ(batched[i].verification->verdict,
                  single.verification->verdict)
            << context;
      }
      ASSERT_EQ(batched[i].search_stats.has_value(),
                options.search.has_value())
          << context;
      ASSERT_EQ(single.search_stats.has_value(), options.search.has_value())
          << context;
      if (options.search.has_value()) {
        EXPECT_EQ(batched[i].search_stats->nodes_expanded,
                  single.search_stats->nodes_expanded)
            << context;
      }
      ASSERT_NE(batched[i].device, nullptr) << context;
      EXPECT_TRUE(batched[i].device->circuit_is_native(batched[i].circuit))
          << context;
    }
  }
}

TEST(PredictorTest, ExtensionObjectivesTrainAndCompile) {
  // The gate-count and depth objectives (Section III-B's "further target
  // metrics") flow through the same training/compilation path.
  for (const auto kind : {RewardKind::kGateCount, RewardKind::kDepth}) {
    qrc::core::PredictorConfig config;
    config.reward = kind;
    config.seed = 19;
    config.ppo.total_timesteps = 512;
    config.ppo.steps_per_update = 256;
    config.ppo.hidden_sizes = {16};
    qrc::core::Predictor predictor(config);
    (void)predictor.train({small_ghz()});
    const auto result = predictor.compile(small_ghz());
    ASSERT_NE(result.device, nullptr);
    EXPECT_TRUE(result.device->circuit_is_native(result.circuit));
    EXPECT_TRUE(result.device->circuit_respects_topology(result.circuit));
    EXPECT_GT(result.reward, 0.0);
    EXPECT_LE(result.reward, 1.0);
  }
}

/// A saved PpoAgent whose policy prefers `action` wherever it is valid:
/// every weight and bias is zero except that action's output bias, so its
/// logit is 1 and every other logit 0 (ties go to the lowest action id).
std::string agent_preferring(std::string_view action) {
  const auto& registry = ActionRegistry::instance();
  qrc::rl::PpoConfig ppo;
  ppo.hidden_sizes = {8};
  qrc::rl::PpoAgent agent(qrc::features::kNumFeatures, registry.size(), ppo);
  std::vector<double*> params;
  std::vector<double*> grads;
  agent.policy().collect_parameters(params, grads);
  for (double* p : params) {
    *p = 0.0;
  }
  // The output layer's biases are the last parameters, one per action.
  *params[params.size() - static_cast<std::size_t>(registry.size()) +
          static_cast<std::size_t>(registry.index_of(action))] = 1.0;
  std::stringstream out;
  agent.save(out);
  return out.str();
}

/// Predictor::load's error message for `model`, or "" when it loads.
std::string load_error(const std::string& model) {
  std::istringstream in(model);
  try {
    (void)qrc::core::Predictor::load(in);
  } catch (const std::exception& e) {
    return e.what();
  }
  return "";
}

TEST(PredictorTest, LoadRejectsAStepBudgetOutsideOneToAThousand) {
  const std::string agent = agent_preferring("platform_ibm");
  const auto model = [&](std::string_view budget) {
    return "qrc_predictor 1 0 " + std::string(budget) + " 1\n" + agent;
  };
  for (const std::string_view bad : {"0", "-3", "1001", "x"}) {
    EXPECT_EQ(load_error(model(bad)), "Predictor::load: bad header") << bad;
  }
  for (const int good : {1, 1000}) {
    std::istringstream in(model(std::to_string(good)));
    EXPECT_EQ(qrc::core::Predictor::load(in).config().env_max_steps, good);
  }
}

TEST(PredictorTest, LoadRejectsNetworksThatDoNotFitTheMdp) {
  // Each compile would throw a size mismatch that a service reports as the
  // client's fault; the model file is refused at load instead.
  const int features = qrc::features::kNumFeatures;
  const int actions = ActionRegistry::instance().size();
  const auto model = [](int obs, int num_actions) {
    qrc::rl::PpoConfig ppo;
    ppo.hidden_sizes = {4};
    std::stringstream out;
    out << "qrc_predictor 1 0 40 1\n";
    qrc::rl::PpoAgent(obs, num_actions, ppo).save(out);
    return out.str();
  };
  EXPECT_EQ(load_error(model(features, 5)),
            "Predictor::load: policy maps 7 -> 5; the MDP needs 7 -> " +
                std::to_string(actions));
  EXPECT_EQ(load_error(model(6, actions)),
            "Predictor::load: policy maps 6 -> " + std::to_string(actions) +
                "; the MDP needs 7 -> " + std::to_string(actions));
  // A value net with two outputs behind a fitting policy: the file ends
  // with the value net, so five more numbers complete its wider layer.
  std::string two_values = model(features, actions);
  const std::string value_sizes = "mlp 3\n7 4 1 \n";
  const std::size_t at = two_values.rfind(value_sizes);
  ASSERT_NE(at, std::string::npos);
  two_values.replace(at, value_sizes.size(), "mlp 3\n7 4 2 \n");
  two_values += "0 0 0 0 0\n";
  EXPECT_EQ(load_error(two_values),
            "Predictor::load: value net maps 7 -> 2; the MDP needs 7 -> 1");
  EXPECT_EQ(load_error(model(features, actions)), "");
}

TEST(PredictorTest, DeadEndPlatformPickGoesStraightToTheFallback) {
  // IonQ's device has 11 qubits and OQC's 8: a wider circuit can take no
  // device after that pick, so the greedy part ends there and the
  // fallback restarts the flow on IBM from the input.
  const std::vector<std::string> fallback = {
      "platform_ibm", "device_ibmq_washington", "BasisTranslator",
      "SabreLayout",  "SabreSwap",              "BasisTranslator"};
  const struct {
    std::string platform;
    std::string device;
    int width;  ///< the device's qubit count
  } picks[] = {{"ionq", "ionq_harmony", 11}, {"oqc", "oqc_lucy", 8}};
  for (const auto& pick : picks) {
    std::istringstream model("qrc_predictor 1 0 40 1\n" +
                             agent_preferring("platform_" + pick.platform));
    const auto predictor = qrc::core::Predictor::load(model);

    const Circuit wide =
        qrc::bench::make_benchmark(BenchmarkFamily::kGhz, pick.width + 1, 1);
    const auto result = predictor.compile(wide);
    std::vector<std::string> expected_trace = {"platform_" + pick.platform};
    CompilationState canned;
    canned.circuit = wide;
    for (const std::string& name : fallback) {
      expected_trace.push_back(name + "(fallback)");
      apply_by_name(canned, name, predictor.config().seed);
    }
    ASSERT_EQ(canned.state(), MdpState::kDone);
    EXPECT_EQ(result.action_trace, expected_trace) << wide.name();
    EXPECT_TRUE(result.used_fallback) << wide.name();
    EXPECT_EQ(result.device, canned.device) << wide.name();
    EXPECT_TRUE(result.circuit == canned.circuit) << wide.name();
    EXPECT_EQ(result.initial_layout, *canned.initial_layout) << wide.name();
    EXPECT_EQ(result.final_layout, canned.final_layout) << wide.name();

    // A circuit that fits keeps the pick and compiles on its device.
    const Circuit fits =
        qrc::bench::make_benchmark(BenchmarkFamily::kGhz, pick.width, 1);
    const auto kept = predictor.compile(fits);
    ASSERT_NE(kept.device, nullptr) << fits.name();
    EXPECT_EQ(kept.device->name(), pick.device) << fits.name();
    EXPECT_FALSE(kept.used_fallback) << fits.name();
    EXPECT_EQ(kept.action_trace.front(), "platform_" + pick.platform);
    EXPECT_EQ(kept.action_trace.at(1), "device_" + pick.device);
  }
}

TEST(PredictorTest, FeatureMaskedCompileStillExecutable) {
  qrc::core::PredictorConfig config;
  config.reward = RewardKind::kFidelity;
  config.seed = 23;
  config.ppo.total_timesteps = 512;
  config.ppo.steps_per_update = 256;
  config.ppo.hidden_sizes = {16};
  qrc::core::Predictor predictor(config);
  (void)predictor.train({small_ghz()});
  for (int feature = 0; feature < 7; ++feature) {
    const auto result =
        predictor.compile(small_ghz(), {.masked_feature = feature});
    EXPECT_TRUE(result.device->circuit_respects_topology(result.circuit))
        << "feature " << feature;
  }
}

// ------------------------------------------------------------ baselines ---

TEST(BaselineTest, QiskitO3LikeProducesExecutableCircuits) {
  const auto& washington =
      qrc::device::get_device(DeviceId::kIbmqWashington);
  for (const auto family :
       {BenchmarkFamily::kGhz, BenchmarkFamily::kQft, BenchmarkFamily::kVqe,
        BenchmarkFamily::kQaoa}) {
    const Circuit c = qrc::bench::make_benchmark(family, 6, 3);
    const auto result =
        qrc::baselines::compile_qiskit_o3_like(c, washington, 1);
    EXPECT_TRUE(washington.circuit_is_native(result.circuit))
        << qrc::bench::family_name(family);
    EXPECT_TRUE(washington.circuit_respects_topology(result.circuit))
        << qrc::bench::family_name(family);
  }
}

TEST(BaselineTest, TketO2LikeProducesExecutableCircuits) {
  const auto& washington =
      qrc::device::get_device(DeviceId::kIbmqWashington);
  for (const auto family :
       {BenchmarkFamily::kGhz, BenchmarkFamily::kQft,
        BenchmarkFamily::kGraphState, BenchmarkFamily::kWstate}) {
    const Circuit c = qrc::bench::make_benchmark(family, 6, 3);
    const auto result = qrc::baselines::compile_tket_o2_like(c, washington, 1);
    EXPECT_TRUE(washington.circuit_is_native(result.circuit))
        << qrc::bench::family_name(family);
    EXPECT_TRUE(washington.circuit_respects_topology(result.circuit))
        << qrc::bench::family_name(family);
  }
}

TEST(BaselineTest, BaselinesPreserveSemanticsOnSmallDevice) {
  // Full statevector verification on a 6-qubit line device.
  const qrc::device::Device line6("test_line6", qrc::device::Platform::kIBM,
                                  qrc::device::CouplingMap::line(6), 7);
  // No measures: unitary comparison must hold exactly (up to phase).
  Circuit c(5, "probe");
  c.h(0);
  c.cx(0, 2);
  c.rz(0.4, 2);
  c.cx(2, 4);
  c.ccx(0, 1, 3);
  c.swap(1, 4);
  c.t(3);

  for (const bool qiskit : {true, false}) {
    const auto result =
        qiskit ? qrc::baselines::compile_qiskit_o3_like(c, line6, 3)
               : qrc::baselines::compile_tket_o2_like(c, line6, 3);
    EXPECT_TRUE(qrc::ir::mapped_circuit_equivalent(
        c, result.circuit, result.initial_layout, result.final_layout, 3))
        << (qiskit ? "qiskit_o3" : "tket_o2");
  }
}

TEST(BaselineTest, OptimizationReducesGateCount) {
  // The baselines should not blow the circuit up relative to naive
  // translate+route; check against an unoptimized pipeline.
  const auto& montreal = qrc::device::get_device(DeviceId::kIbmqMontreal);
  const Circuit c =
      qrc::bench::make_benchmark(BenchmarkFamily::kQftEntangled, 6, 5);
  const auto o3 = qrc::baselines::compile_qiskit_o3_like(c, montreal, 1);

  // Naive: translate, trivial layout, basic routing, translate.
  qrc::core::CompilationState state;
  state.circuit = c;
  apply_by_name(state, "platform_ibm");
  apply_by_name(state, "device_ibmq_montreal");
  apply_by_name(state, "BasisTranslator");
  apply_by_name(state, "TrivialLayout");
  if (!state.is_mapped()) {
    apply_by_name(state, "BasicSwap");
    apply_by_name(state, "BasisTranslator");
  }
  EXPECT_LE(o3.circuit.two_qubit_gate_count(),
            state.circuit.two_qubit_gate_count());
}

}  // namespace

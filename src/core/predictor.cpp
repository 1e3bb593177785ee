#include "core/predictor.hpp"

#include <algorithm>
#include <chrono>
#include <istream>
#include <memory>
#include <thread>
#include <ostream>
#include <stdexcept>
#include <string>

#include "core/rollout.hpp"
#include "features/features.hpp"
#include "obs/stage.hpp"
#include "rl/thread_pool.hpp"
#include "rl/vec_env.hpp"
#include "search/engine.hpp"

namespace qrc::core {

namespace {

/// Forces an unfinished compilation to Done with the canned deterministic
/// pass sequence (synthesis, SABRE layout/routing, synthesis, 1q
/// optimization) and flags the result as fallback.
void finish_with_fallback(const ActionRegistry& registry,
                          const ir::Circuit& circuit,
                          const PredictorConfig& config,
                          CompilationState& state,
                          CompilationResult& result) {
  result.used_fallback = true;
  const auto force = [&](std::string_view name) {
    const int id = registry.index_of(name);
    if (registry.at(id).valid(state)) {
      registry.at(id).apply(state, config.seed);
      result.action_trace.push_back(std::string(name) + "(fallback)");
    }
  };
  if (!state.platform.has_value()) {
    force("platform_ibm");
  }
  if (state.device == nullptr) {
    force("device_ibmq_washington");
  }
  if (state.device == nullptr) {
    // The policy locked in a platform with no device wide enough for the
    // circuit; restart the flow on IBM (whose 127-qubit machine fits
    // every supported circuit).
    state = CompilationState{};
    state.circuit = circuit;
    force("platform_ibm");
    force("device_ibmq_washington");
  }
  force("BasisTranslator");
  force("SabreLayout");
  force("SabreSwap");
  force("BasisTranslator");
  force("Optimize1qGatesDecomposition");
  if (state.state() != MdpState::kDone) {
    throw std::logic_error(
        "Predictor::compile: fallback failed to reach Done");
  }
  result.reward =
      reward::compute_reward(config.reward, state.circuit, *state.device);
}

}  // namespace

Predictor::Predictor(PredictorConfig config) : config_(std::move(config)) {
  config_.ppo.seed = config_.seed;
}

std::vector<rl::PpoUpdateStats> Predictor::train(
    const std::vector<ir::Circuit>& circuits,
    const std::function<void(const rl::PpoUpdateStats&)>& progress,
    obs::MetricsRegistry* metrics) {
  CompilationEnvConfig env_config;
  env_config.reward = config_.reward;
  env_config.max_steps = config_.env_max_steps;
  env_config.seed = config_.seed;
  // One shared corpus, one cheap env clone per slot, each with its own
  // deterministic RNG stream.
  const CompilationEnv prototype(circuits, env_config);
  // Default worker count: one per env, capped at the hardware threads —
  // an explicit rollout_workers request is honoured as given.
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  const int workers = config_.rollout_workers > 0
                          ? config_.rollout_workers
                          : std::min(config_.num_envs, hw > 0 ? hw : 1);
  rl::VecEnv envs(
      [&](int i) {
        return prototype.clone_with_seed(
            config_.seed + 7919 * static_cast<std::uint64_t>(i + 1));
      },
      config_.num_envs, workers);
  std::vector<rl::PpoUpdateStats> stats;
  agent_.emplace(
      rl::train_ppo_vec(envs, config_.ppo, &stats, progress, metrics));
  return stats;
}

CompilationResult Predictor::compile(const ir::Circuit& circuit,
                                     const CompileOptions& options) const {
  return compile_all(std::span<const ir::Circuit>(&circuit, 1), nullptr,
                     options)
      .front();
}

CompilationResult Predictor::compile_search(
    const ir::Circuit& circuit, const search::SearchOptions& options) const {
  return compile(circuit, {.search = options});
}

verify::VerifyResult verify_compilation(const ir::Circuit& original,
                                        const CompilationResult& result,
                                        const verify::VerifyOptions& options) {
  const verify::EquivalenceChecker checker(options);
  if (result.circuit.num_qubits() == original.num_qubits() &&
      result.initial_layout.empty() && result.final_layout.empty()) {
    return checker.check(original, result.circuit);
  }
  return checker.check_mapped(original, result.circuit,
                              result.initial_layout, result.final_layout);
}

void trace_verification(obs::TraceContext& ctx, int parent,
                        std::chrono::steady_clock::time_point start,
                        std::int64_t duration_us,
                        const verify::VerifyResult& verdict) {
  const int span = ctx.add_span("verify", parent, ctx.since_epoch_us(start),
                                duration_us);
  ctx.attr(span, "method", verify::method_name(verdict.method));
  ctx.attr(span, "verdict", verify::verdict_name(verdict.verdict));
  ctx.attr(span, "confidence", verdict.confidence);
}

std::vector<CompilationResult> Predictor::compile_all(
    std::span<const ir::Circuit> circuits, rl::WorkerPool* external_pool,
    const CompileOptions& options) const {
  if (!agent_.has_value()) {
    throw std::logic_error("Predictor::compile: train or load a model first");
  }
  const ActionRegistry& registry = ActionRegistry::instance();
  const int num_circuits = static_cast<int>(circuits.size());
  std::vector<CompilationResult> results(
      static_cast<std::size_t>(num_circuits));
  if (num_circuits == 0) {
    return results;
  }

  CompilationEnvConfig env_config;
  env_config.reward = config_.reward;
  env_config.max_steps = config_.env_max_steps;
  env_config.seed = config_.seed;

  // The pool runs the batched policy forwards (row-parallel) and steps the
  // independent episodes concurrently. A caller-provided pool is reused
  // as-is (the compile service keeps one per model lane); otherwise a
  // call-local pool is spun up, no wider than the suite unless searching.
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  int workers = config_.rollout_workers > 0 ? config_.rollout_workers
                                            : (hw > 0 ? hw : 1);
  if (!options.search.has_value()) {
    workers = std::min(workers, num_circuits);
  }
  std::optional<rl::WorkerPool> local_pool;
  rl::WorkerPool& pool =
      external_pool != nullptr ? *external_pool : local_pool.emplace(workers);

  // The batched greedy rollout core: the result, or the search baseline.
  const auto episodes = [&] {
    obs::Stage stage(obs::StageId::kGreedyRollout);
    return run_greedy_episodes(agent_->policy(), circuits, env_config,
                               options.masked_feature, pool);
  }();

  for (int c = 0; c < num_circuits; ++c) {
    const auto& ep = episodes[static_cast<std::size_t>(c)];
    auto& result = results[static_cast<std::size_t>(c)];
    for (const int action : ep.actions) {
      result.action_trace.push_back(registry.at(action).name());
    }
    CompilationState state = ep.state;
    if (ep.done) {
      result.reward = ep.reward;
    } else {
      finish_with_fallback(registry, circuits[c], config_, state, result);
    }
    result.circuit = std::move(state.circuit);
    result.device = state.device;
    if (state.initial_layout.has_value()) {
      result.initial_layout = *state.initial_layout;
    }
    result.final_layout = state.final_layout;
  }

  if (options.search.has_value()) {
    search::SearchContext context;
    context.policy = &agent_->policy();
    context.value = &agent_->value_net();
    context.reward = config_.reward;
    context.seed = config_.seed;
    context.max_steps = config_.env_max_steps;

    for (int c = 0; c < num_circuits; ++c) {
      auto& result = results[static_cast<std::size_t>(c)];
      search::ProgressFn per_circuit;
      if (options.progress) {
        // Quantum-0 snapshot: the greedy baseline is already a complete
        // compilation, so a streaming consumer sees at least one partial
        // even when the deadline kills the search before its first
        // quantum.
        search::SearchProgress baseline;
        baseline.strategy = options.search->strategy;
        baseline.found_terminal = true;
        baseline.best_reward = result.reward;
        options.progress(c, baseline);
        per_circuit = [&options, c](const search::SearchProgress& snapshot) {
          options.progress(c, snapshot);
        };
      }
      search::SearchResult searched = [&] {
        obs::Stage stage(obs::StageId::kSearchLookahead);
        return search::run_search(circuits[c], context, *options.search,
                                  pool, per_circuit);
      }();
      searched.stats.baseline_reward = result.reward;
      if (searched.found_terminal && searched.reward > result.reward) {
        // The searched sequence strictly beats the greedy baseline.
        searched.stats.improved = true;
        result.action_trace.clear();
        for (const int action : searched.actions) {
          result.action_trace.push_back(registry.at(action).name());
        }
        result.reward = searched.reward;
        result.used_fallback = false;
        result.device = searched.state.device;
        result.initial_layout.clear();
        if (searched.state.initial_layout.has_value()) {
          result.initial_layout = *searched.state.initial_layout;
        }
        result.final_layout = searched.state.final_layout;
        result.circuit = std::move(searched.state.circuit);
      }
      result.search_stats = std::move(searched.stats);
    }
  }

  if (options.verify.has_value()) {
    // Post-compile verification gate: independent per circuit, so the
    // checks spread over the same worker pool as the rollout. Pool jobs
    // run untraced, so each check is timed in its job and recorded as a
    // `verify` span afterwards, on this thread.
    using Clock = std::chrono::steady_clock;
    obs::Stage stage(obs::StageId::kVerifyGate);
    std::vector<std::pair<Clock::time_point, std::int64_t>> timings(
        static_cast<std::size_t>(num_circuits));
    pool.parallel_for(num_circuits, [&](int c) {
      auto& result = results[static_cast<std::size_t>(c)];
      const auto start = Clock::now();
      result.verification =
          verify_compilation(circuits[c], result, *options.verify);
      timings[static_cast<std::size_t>(c)] = {
          start, std::chrono::duration_cast<std::chrono::microseconds>(
                     Clock::now() - start)
                     .count()};
    });
    if (obs::TraceContext* ctx = stage.context(); ctx != nullptr) {
      for (int c = 0; c < num_circuits; ++c) {
        const auto& [start, duration_us] =
            timings[static_cast<std::size_t>(c)];
        trace_verification(*ctx, stage.span(), start, duration_us,
                           *results[static_cast<std::size_t>(c)].verification);
      }
    }
  }
  return results;
}

double Predictor::evaluate(const CompilationResult& result,
                           reward::RewardKind metric) const {
  if (result.device == nullptr) {
    return 0.0;
  }
  return reward::compute_reward(metric, result.circuit, *result.device);
}

void Predictor::save(std::ostream& os) const {
  if (!agent_.has_value()) {
    throw std::logic_error("Predictor::save: nothing trained");
  }
  os << "qrc_predictor 1 " << static_cast<int>(config_.reward) << " "
     << config_.env_max_steps << " " << config_.seed << "\n";
  agent_->save(os);
}

Predictor Predictor::load(std::istream& is) {
  std::string tag;
  int version = 0;
  int reward_kind = 0;
  PredictorConfig config;
  is >> tag >> version >> reward_kind >> config.env_max_steps >> config.seed;
  // A step budget below 1 makes every compile fall back; 1000 is 25x the
  // default of 40.
  if (!is || tag != "qrc_predictor" || version != 1 || reward_kind < 0 ||
      reward_kind > 4 || config.env_max_steps < 1 ||
      config.env_max_steps > 1000) {
    throw std::runtime_error("Predictor::load: bad header");
  }
  config.reward = static_cast<reward::RewardKind>(reward_kind);
  Predictor out(config);
  out.agent_.emplace(rl::PpoAgent::load(is));
  // The networks must fit the MDP: observations in, one logit per action
  // (policy) or one value out.
  const auto require_shape = [](const char* name, const rl::Mlp& net,
                                int in, int out) {
    if (net.input_size() != in || net.output_size() != out) {
      throw std::runtime_error(
          std::string("Predictor::load: ") + name + " maps " +
          std::to_string(net.input_size()) + " -> " +
          std::to_string(net.output_size()) + "; the MDP needs " +
          std::to_string(in) + " -> " + std::to_string(out));
    }
  };
  require_shape("policy", out.agent_->policy(), features::kNumFeatures,
                ActionRegistry::instance().size());
  require_shape("value net", out.agent_->value_net(), features::kNumFeatures,
                1);
  return out;
}

}  // namespace qrc::core

/// \file predictor.hpp
/// \brief The user-facing optimized compiler: trains one PPO model per
///        reward function on a circuit corpus, then compiles arbitrary
///        circuits by greedy policy rollout (Section III-B). This is the
///        library's primary public API.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/compilation_env.hpp"
#include "reward/reward.hpp"
#include "rl/ppo.hpp"
#include "search/search.hpp"
#include "verify/equivalence.hpp"

namespace qrc::obs {
class TraceContext;
}

namespace qrc::rl {
class WorkerPool;
}

namespace qrc::core {

/// Outcome of compiling one circuit with a trained policy.
struct CompilationResult {
  ir::Circuit circuit;                    ///< executable circuit
  const device::Device* device = nullptr; ///< chosen target
  /// Applied action names in order, the fallback's suffixed "(fallback)". A
  /// dead-end platform pick (no device wide enough for the circuit) is
  /// followed directly by the fallback's entries.
  std::vector<std::string> action_trace;
  std::vector<int> initial_layout;        ///< logical -> physical
  std::vector<int> final_layout;          ///< logical -> physical after routing
  double reward = 0.0;                    ///< under the trained objective
  bool used_fallback = false;  ///< policy failed to finish; the canned
                               ///< sequence completed the compilation
  /// Present when the compilation was verified (the QCEC-style
  /// post-compile gate): verdict of checking `circuit` against the input
  /// through the layouts. The compiled circuit itself is never altered by
  /// verification.
  std::optional<verify::VerifyResult> verification;
  /// Present when the result was searched (CompileOptions::search):
  /// planning cost and outcome counters (nodes, transpositions, deadline,
  /// reward delta vs the greedy baseline the search is clamped against).
  std::optional<search::SearchStats> search_stats;
};

/// Verifies a compilation result against the original circuit with the
/// tiered EquivalenceChecker, routing through the result's initial/final
/// layouts when the circuit was mapped onto a device. Deterministic for
/// fixed options; used by the Predictor gate, the compile service, and the
/// fuzz harness.
[[nodiscard]] verify::VerifyResult verify_compilation(
    const ir::Circuit& original, const CompilationResult& result,
    const verify::VerifyOptions& options = {});

/// Records one timed verify_compilation() as a `verify` span under
/// `parent`, with `method`, `verdict` and `confidence` attrs. Checks run
/// in untraced pool jobs; the Predictor gate and the compile service time
/// each one there and record it with this on the calling thread.
void trace_verification(obs::TraceContext& ctx, int parent,
                        std::chrono::steady_clock::time_point start,
                        std::int64_t duration_us,
                        const verify::VerifyResult& verdict);

struct PredictorConfig {
  reward::RewardKind reward = reward::RewardKind::kFidelity;
  rl::PpoConfig ppo;        ///< ppo.total_timesteps controls training budget
  int env_max_steps = 40;
  std::uint64_t seed = 1;
  /// Rollout envs: training runs on a VecEnv of this many (>= 1)
  /// CompilationEnv clones sharing one corpus, one env included.
  /// Deterministic for a fixed (seed, num_envs) pair.
  int num_envs = 1;
  /// Worker threads stepping the vectorized envs; 0 means num_envs.
  int rollout_workers = 0;
};

/// What a compile does beyond the greedy policy rollout. The default is
/// the plain greedy compile; each field switches on one stage. Every field
/// has an initializer, so designated initializers (`{.search = s}`) may
/// name any subset without -Wmissing-field-initializers.
struct CompileOptions {
  /// Post-compile verification gate: fills each result's `verification`
  /// by checking it against its input. Verification only observes; the
  /// compiled circuit is the same with or without it.
  std::optional<verify::VerifyOptions> verify = std::nullopt;
  /// Policy-guided lookahead (beam or MCTS) over the same MDP, with the
  /// trained policy as prior and the value network as leaf bootstrap. The
  /// result is clamped to the greedy baseline: it is replaced only when
  /// the search finds a strictly higher reward, and `search_stats` records
  /// the planning cost and whether it improved. With a deadline the search
  /// is anytime; without one the result is bitwise-deterministic for a
  /// fixed (model, options) at any worker count, and beam(1) reproduces
  /// the greedy result bit for bit.
  std::optional<search::SearchOptions> search = std::nullopt;
  /// Anytime trajectory of the search: (circuit index in the span,
  /// snapshot). One quantum-0 snapshot fires right after the greedy
  /// baseline, so every searched circuit reports at least once, then one
  /// per search quantum. Observation only; ignored without `search`.
  std::function<void(int, const search::SearchProgress&)> progress = nullptr;
  /// Ablation hook: zero this observation feature at every greedy
  /// inference step (a search plans with the unmasked policy), to measure
  /// how load-bearing it is for the policy. -1 masks nothing.
  int masked_feature = -1;
};

/// RL-optimized quantum compiler. Train once, compile many.
class Predictor {
 public:
  explicit Predictor(PredictorConfig config);

  /// Trains the policy on `circuits` (the paper: 200 MQT Bench circuits).
  /// Returns per-update statistics. `progress` (optional) observes each
  /// update as it completes (the CLI's JSONL curve writer rides this);
  /// `metrics` (optional) receives the qrc_train_* families. Both are
  /// pure observers — the trained weights are bitwise-identical with or
  /// without them.
  std::vector<rl::PpoUpdateStats> train(
      const std::vector<ir::Circuit>& circuits,
      const std::function<void(const rl::PpoUpdateStats&)>& progress = {},
      obs::MetricsRegistry* metrics = nullptr);

  [[nodiscard]] bool is_trained() const { return agent_.has_value(); }

  /// compile_all() over this one circuit, on a call-local worker pool.
  [[nodiscard]] CompilationResult compile(
      const ir::Circuit& circuit, const CompileOptions& options = {}) const;

  /// The compile engine; every other compile method runs through it.
  ///
  /// 1. Greedy rollout: all circuits walk one batched loop, with a single
  ///    policy forward over every still-running episode per step (rows
  ///    spread over the pool) while the episodes step in parallel. An
  ///    episode that does not reach Done within the step budget is
  ///    completed by a deterministic fallback sequence (synthesis, SABRE
  ///    layout/routing, synthesis, 1q optimization) and flagged. A
  ///    platform pick that no device can hold ends the greedy part at
  ///    once, and the fallback restarts from the input on IBM. Per
  ///    circuit the result does not depend on the batch around it: the
  ///    batched forward is bitwise-equal to the scalar one.
  /// 2. `options.search`: each circuit in turn is searched and the result
  ///    clamped to its greedy baseline (see CompileOptions::search).
  /// 3. `options.verify`: the verification gate, checks spread over the
  ///    pool; a traced call records one `verify` span per circuit under
  ///    `verify_gate`.
  ///
  /// `pool` lets a long-lived caller (the compile service) reuse one
  /// worker pool across calls; nullptr spins up a call-local one, one
  /// worker per hardware thread (PredictorConfig::rollout_workers
  /// overrides), capped at the circuit count unless searching: search has
  /// batched work wider than the suite (frontier rows, MCTS leaf
  /// batches). The pool never changes results. All compile methods are
  /// const and safe to call concurrently on one Predictor.
  /// \throws std::logic_error when no model was trained or loaded.
  [[nodiscard]] std::vector<CompilationResult> compile_all(
      std::span<const ir::Circuit> circuits, rl::WorkerPool* pool = nullptr,
      const CompileOptions& options = {}) const;

  /// compile(circuit, {.search = options}).
  [[nodiscard]] CompilationResult compile_search(
      const ir::Circuit& circuit, const search::SearchOptions& options) const;

  /// Reward of a compiled result under an arbitrary metric (for Table I).
  [[nodiscard]] double evaluate(const CompilationResult& result,
                                reward::RewardKind metric) const;

  void save(std::ostream& os) const;
  static Predictor load(std::istream& is);

  [[nodiscard]] const PredictorConfig& config() const { return config_; }

 private:
  PredictorConfig config_;
  std::optional<rl::PpoAgent> agent_;
};

}  // namespace qrc::core

/// \file search.hpp
/// \brief Configuration and statistics of the policy-guided search engine:
///        the two planning strategies (beam search and MCTS) that spend
///        inference-time compute to recover pass sequences the greedy
///        argmax rollout misses, plus the `beam:8` / `mcts:400` spec
///        grammar shared by the CLI flag and the JSONL `"search"` field.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

namespace qrc::search {

enum class Strategy : std::uint8_t {
  kBeam,  ///< width-K frontier, batched policy + value scoring per depth
  kMcts,  ///< PUCT tree search with batched value-network leaf evaluation
};

[[nodiscard]] std::string_view strategy_name(Strategy strategy);

/// Knobs of one search run. Defaults are the `beam:8` configuration; the
/// short specs `beam[:width]` / `mcts[:simulations]` (parse_spec) set the
/// strategy and its budget. Both strategies search to the model's
/// env_max_steps (the greedy budget) and step passes with the model's
/// training seed.
struct SearchOptions {
  Strategy strategy = Strategy::kBeam;

  /// Beam: frontier size kept per depth, and candidate actions expanded
  /// per frontier entry. Width 1 reproduces the greedy rollout bit-for-bit
  /// (same argmax, same cycle-avoidance bookkeeping, same per-step seeds);
  /// past a platform pick that no device can hold, where the rollout
  /// stops, it finds no terminal and the greedy result stands.
  int beam_width = 8;

  /// MCTS: total simulations (leaf selections) to run.
  int simulations = 400;

  /// Wall-clock budget in milliseconds; 0 means unlimited. The search
  /// stops at the next quantum boundary (beam depth / MCTS batch) after
  /// the deadline passes and returns the best result found so far.
  /// Deadline-bounded runs are anytime, not bitwise-reproducible.
  std::int64_t deadline_ms = 0;
};

/// Counters of one search run, carried on the CompilationResult so the
/// service, CLI and benches can report planning cost next to the reward.
struct SearchStats {
  Strategy strategy = Strategy::kBeam;
  /// The configured budget (beam width / MCTS simulations), so consumers
  /// can reconstruct the spec ("beam:8") without the options at hand.
  int budget = 0;
  std::uint64_t nodes_expanded = 0;  ///< child states stepped/created
  std::uint64_t policy_evals = 0;    ///< policy-network rows evaluated
  std::uint64_t value_evals = 0;     ///< value-network rows evaluated
  std::uint64_t transposition_hits = 0;     ///< states reached twice
  std::uint64_t transposition_entries = 0;  ///< distinct states keyed
  int simulations_run = 0;  ///< MCTS leaf selections completed
  int depth_reached = 0;    ///< deepest level expanded
  int terminals_found = 0;  ///< complete compilations discovered
  bool deadline_hit = false;
  std::int64_t elapsed_us = 0;
  /// Reward of the best terminal the search itself found; meaningful only
  /// when terminals_found > 0.
  double best_reward = 0.0;
  /// Reward of the greedy-rollout baseline the search is clamped against.
  double baseline_reward = 0.0;
  /// True when the searched sequence strictly beat the greedy baseline
  /// (the returned result is the searched one, not the baseline).
  bool improved = false;
};

/// Best-so-far snapshot emitted while a search runs: once per search
/// quantum (beam depth / MCTS batch). The serve layer turns these into
/// streamed `"type":"partial"` frames so a deadline-bounded client can
/// watch the anytime result improve before the final frame lands.
struct SearchProgress {
  Strategy strategy = Strategy::kBeam;
  /// Quanta completed so far: beam depths advanced / MCTS simulations run.
  /// Quantum 0 is the greedy-baseline snapshot emitted before the engine
  /// starts (so every searched request streams at least one partial).
  int quantum = 0;
  std::uint64_t nodes_expanded = 0;  ///< child states stepped so far
  bool found_terminal = false;  ///< a complete compilation exists already
  /// Reward of the best terminal so far (the greedy baseline at quantum 0;
  /// meaningless while found_terminal is false).
  double best_reward = 0.0;
  std::int64_t elapsed_us = 0;  ///< since the search started
};

/// Progress sink. Invoked synchronously from the searching thread between
/// quanta; implementations must be cheap and must not call back into the
/// engine. An empty function disables progress reporting entirely.
using ProgressFn = std::function<void(const SearchProgress&)>;

/// Parses a search spec: "beam", "beam:<width>" with width in [1, 64],
/// "mcts" or "mcts:<simulations>" with simulations in [1, 20000] (the CLI
/// `--search` grammar and the JSONL `"search"` field). Every other knob
/// keeps its default. Options built in code are not capped.
/// \throws std::runtime_error naming the offending spec.
[[nodiscard]] SearchOptions parse_spec(std::string_view spec);

/// Short display form of the options: "beam:<width>" or
/// "mcts:<simulations>".
[[nodiscard]] std::string spec_string(const SearchOptions& options);

/// Full canonical serialisation of every knob, used in service cache keys
/// so results searched under different configurations never alias (and
/// never alias the greedy path, which uses no token at all).
[[nodiscard]] std::string cache_token(const SearchOptions& options);

}  // namespace qrc::search

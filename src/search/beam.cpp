// Beam search over the compilation MDP: a width-K frontier advances one
// MDP step per iteration. Every frontier state gets ONE batched policy
// forward (priors), each entry expands its top-K actions, and all
// surviving children get ONE batched value forward; children are pruned
// to the K best by cumulative log prior + value bootstrap. The
// cycle-avoidance bookkeeping (per-path visited fingerprints, exhausted
// actions, retry-next-best) mirrors the greedy rollout core exactly, so
// beam(1) reproduces Predictor::compile bit-for-bit — including which
// no-op actions it burns steps on.

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>

#include "core/rollout.hpp"
#include "obs/stage.hpp"
#include "rl/thread_pool.hpp"
#include "search/internal.hpp"

namespace qrc::search::internal {

namespace {

/// Weight of the value-network bootstrap in the pruning score.
constexpr double kValueWeight = 1.0;

struct BeamEntry {
  core::CompilationState state;
  std::vector<double> obs;
  double score = 0.0;  ///< cumulative log prior along the path
  /// PathArena node of this entry: encodes the attempted-action trace and
  /// the visited-fingerprint set of the whole path in one int, shared
  /// with the parent instead of copied per child.
  int path = -1;
  std::set<int> exhausted;  ///< actions banned as no-ops
  std::string key;  ///< transposition key ("" for stalled survivors)
};

/// One proposed (entry, action) expansion and its stepped outcome.
struct Candidate {
  int entry = 0;
  int action = -1;
  double log_prior = 0.0;
  core::CompilationState child;
  core::Fingerprint fp;   ///< fingerprint of the stepped child
  bool stalled = false;   ///< child fingerprint already on the path
  bool terminal = false;  ///< child reached MdpState::kDone
  std::vector<double> obs;
  std::string key;  ///< transposition key (progressed, non-terminal only)
};

}  // namespace

SearchResult beam_search(const ir::Circuit& circuit,
                         const SearchContext& context,
                         const SearchOptions& options, rl::WorkerPool& pool,
                         const ProgressFn& progress) {
  const auto start = std::chrono::steady_clock::now();
  const core::ActionRegistry& registry = core::ActionRegistry::instance();
  const int width = options.beam_width;
  const int max_depth = context.max_steps;
  const std::uint64_t seed = context.seed;
  const Deadline deadline(options.deadline_ms);

  SearchResult result;
  result.stats.strategy = Strategy::kBeam;
  result.stats.budget = width;
  BatchEvaluator evaluator(context, pool);
  TranspositionTable table;

  PathArena paths;
  std::vector<BeamEntry> frontier(1);
  frontier[0].state.circuit = circuit;
  frontier[0].obs = core::CompilationEnv::observe_state(frontier[0].state);
  frontier[0].path =
      paths.add(-1, -1, core::fingerprint_of(frontier[0].state,
                                             core::MdpState::kStart));
  (void)table.lookup_or_insert(state_key(frontier[0].state), 0);

  const auto obs_size = static_cast<std::size_t>(frontier[0].obs.size());
  const int num_actions = registry.size();

  std::vector<double> obs_batch;
  std::vector<std::vector<bool>> mask_batch;
  std::vector<double> probs;
  std::vector<int> ranked;
  for (int depth = 0; depth < max_depth && !frontier.empty(); ++depth) {
    if (deadline.expired()) {
      result.stats.deadline_hit = true;
      break;
    }
    const int n = static_cast<int>(frontier.size());
    obs_batch.resize(static_cast<std::size_t>(n) * obs_size);
    mask_batch.resize(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      const auto& entry = frontier[static_cast<std::size_t>(i)];
      std::copy(entry.obs.begin(), entry.obs.end(),
                obs_batch.begin() + static_cast<std::size_t>(i) * obs_size);
      mask_batch[static_cast<std::size_t>(i)] = registry.mask(entry.state);
    }
    evaluator.evaluate(obs_batch, n, mask_batch, &probs, nullptr,
                       result.stats);

    // Per entry: top-`width` valid un-exhausted actions by prior
    // (ties -> lower action id, matching the greedy argmax).
    std::vector<Candidate> candidates;
    for (int i = 0; i < n; ++i) {
      const auto& entry = frontier[static_cast<std::size_t>(i)];
      const double* row =
          probs.data() + static_cast<std::size_t>(i) *
                             static_cast<std::size_t>(num_actions);
      ranked.clear();
      for (int a = 0; a < num_actions; ++a) {
        if (mask_batch[static_cast<std::size_t>(i)]
                      [static_cast<std::size_t>(a)] &&
            !entry.exhausted.contains(a)) {
          ranked.push_back(a);
        }
      }
      std::stable_sort(ranked.begin(), ranked.end(), [&](int a, int b) {
        return row[static_cast<std::size_t>(a)] >
               row[static_cast<std::size_t>(b)];
      });
      const int take = std::min(width, static_cast<int>(ranked.size()));
      for (int r = 0; r < take; ++r) {
        Candidate c;
        c.entry = i;
        c.action = ranked[static_cast<std::size_t>(r)];
        c.log_prior =
            std::log(row[static_cast<std::size_t>(c.action)]);
        candidates.push_back(std::move(c));
      }
    }
    if (candidates.empty()) {
      break;  // every entry has banned all of its valid actions
    }

    // Step all candidates in parallel — each owns its slot. Stalled
    // detection, observation and the transposition key are computed here
    // too (index-parallel, so the pool size cannot change anything).
    const std::uint64_t step_seed =
        core::CompilationEnv::step_seed(seed, 1, depth);
    {
      obs::Stage stage(obs::StageId::kSearchExpand);
      pool.parallel_for(static_cast<int>(candidates.size()), [&](int ci) {
        auto& c = candidates[static_cast<std::size_t>(ci)];
        const auto& entry = frontier[static_cast<std::size_t>(c.entry)];
        c.child = core::CompilationEnv::peek_step(entry.state, c.action,
                                                  step_seed);
        const core::MdpState mdp = c.child.state();
        c.fp = core::fingerprint_of(c.child, mdp);
        c.stalled = paths.contains(entry.path, c.fp);
        if (c.stalled) {
          // The fingerprint matched a path state, but the pass may still
          // have rewritten the circuit (the fingerprint is coarse): keep
          // the post-step observation so the survivor carries the stepped
          // state, exactly like the greedy core does. A stalled child is
          // never Done (Done changes the fingerprint's MDP phase).
          c.obs = core::CompilationEnv::observe_state(c.child);
          return;
        }
        c.terminal = mdp == core::MdpState::kDone;
        if (!c.terminal) {
          c.obs = core::CompilationEnv::observe_state(c.child);
          c.key = state_key(c.child);
        }
      });
    }
    result.stats.nodes_expanded += candidates.size();
    result.stats.depth_reached = depth + 1;

    // Resolve candidates in deterministic order into the next frontier.
    std::vector<BeamEntry> next;
    std::vector<int> stall_slot(frontier.size(), -1);
    for (auto& c : candidates) {
      const auto& entry = frontier[static_cast<std::size_t>(c.entry)];
      if (c.stalled) {
        // The action proved a no-op: the entry persists with the action
        // banned (and the step burned), exactly like the greedy core. All
        // stalled actions of one entry merge into a single survivor —
        // K duplicate copies of the same stuck state must not crowd
        // genuinely distinct states out of the frontier.
        int& slot = stall_slot[static_cast<std::size_t>(c.entry)];
        if (slot >= 0) {
          next[static_cast<std::size_t>(slot)].exhausted.insert(c.action);
          continue;
        }
        BeamEntry stalled;
        stalled.state = std::move(c.child);  // post-step, like greedy
        stalled.obs = std::move(c.obs);
        stalled.score = entry.score + c.log_prior;
        // The stalled fingerprint is already on the path, so the new node
        // extends the action trace without changing the visited set.
        stalled.path = paths.add(entry.path, c.action, c.fp);
        stalled.exhausted = entry.exhausted;
        stalled.exhausted.insert(c.action);
        slot = static_cast<int>(next.size());
        next.push_back(std::move(stalled));
        continue;
      }
      if (c.terminal) {
        const double reward = terminal_reward(context, c.child);
        ++result.stats.terminals_found;
        if (!result.found_terminal || reward > result.reward) {
          result.found_terminal = true;
          result.reward = reward;
          result.state = std::move(c.child);
          result.actions = paths.trace(entry.path);
          result.actions.push_back(c.action);
        }
        continue;
      }
      if (table.lookup_or_insert(c.key, static_cast<int>(next.size()))
              .has_value()) {
        continue;  // commuting pass order: state already explored
      }
      BeamEntry child;
      child.key = std::move(c.key);
      child.state = std::move(c.child);
      child.obs = std::move(c.obs);
      child.score = entry.score + c.log_prior;
      child.path = paths.add(entry.path, c.action, c.fp);
      next.push_back(std::move(child));
    }

    // Prune to the K best by log prior + value bootstrap — one batched
    // value forward over every survivor ("batched leaf evaluation").
    if (static_cast<int>(next.size()) > width) {
      const int m = static_cast<int>(next.size());
      obs_batch.resize(static_cast<std::size_t>(m) * obs_size);
      for (int i = 0; i < m; ++i) {
        std::copy(next[static_cast<std::size_t>(i)].obs.begin(),
                  next[static_cast<std::size_t>(i)].obs.end(),
                  obs_batch.begin() +
                      static_cast<std::size_t>(i) * obs_size);
      }
      std::vector<double> values;
      evaluator.evaluate(obs_batch, m, {}, nullptr, &values, result.stats);
      std::vector<int> order(next.size());
      for (int i = 0; i < m; ++i) {
        order[static_cast<std::size_t>(i)] = i;
      }
      std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
        return next[static_cast<std::size_t>(a)].score +
                   kValueWeight * values[static_cast<std::size_t>(a)] >
               next[static_cast<std::size_t>(b)].score +
                   kValueWeight * values[static_cast<std::size_t>(b)];
      });
      std::vector<BeamEntry> pruned;
      pruned.reserve(static_cast<std::size_t>(width));
      for (int r = 0; r < width; ++r) {
        pruned.push_back(
            std::move(next[static_cast<std::size_t>(
                order[static_cast<std::size_t>(r)])]));
      }
      // A pruned child was keyed at expansion but never explored: drop
      // its table entry so a later, better-scoring path may re-derive it.
      for (int r = width; r < m; ++r) {
        table.forget(
            next[static_cast<std::size_t>(order[static_cast<std::size_t>(r)])]
                .key);
      }
      next = std::move(pruned);
    }
    frontier = std::move(next);

    if (progress) {
      SearchProgress snapshot;
      snapshot.strategy = Strategy::kBeam;
      snapshot.quantum = depth + 1;
      snapshot.nodes_expanded = result.stats.nodes_expanded;
      snapshot.found_terminal = result.found_terminal;
      snapshot.best_reward = result.reward;
      snapshot.elapsed_us =
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - start)
              .count();
      progress(snapshot);
    }
  }

  result.stats.transposition_hits = table.hits();
  result.stats.transposition_entries = table.entries();
  if (result.found_terminal) {
    result.stats.best_reward = result.reward;
  }
  result.stats.elapsed_us =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count();
  return result;
}

}  // namespace qrc::search::internal

// Monte-Carlo tree search over the compilation MDP with PUCT selection
// (AlphaZero-style): policy-network priors guide exploration, leaves are
// bootstrapped with the value network, and terminal states back up their
// true compilation reward. Simulations run in batches: selection is
// sequential under virtual loss (so the batch diversifies), then all new
// leaf states are stepped index-parallel over the worker pool and
// evaluated in ONE batched policy + ONE batched value forward, then
// backpropagation replays the batch in order. Every phase is either
// sequential or index-parallel, so results are bitwise-deterministic for
// a fixed (seed, options) pair regardless of the pool size. A
// transposition table keyed on state_key() merges states reached by
// commuting pass orders into one node (evaluated once); the selection
// path guards against cycles through no-op actions.

#include <algorithm>
#include <cmath>
#include <utility>

#include "rl/thread_pool.hpp"
#include "search/internal.hpp"

namespace qrc::search::internal {

namespace {

/// Simulations selected per batch under virtual loss; their leaf states
/// are evaluated in one batched network forward. Results depend on it,
/// never on the worker count.
constexpr int kMctsBatch = 8;
/// PUCT exploration constant.
constexpr double kCPuct = 1.4;

struct Edge {
  int action = -1;
  double prior = 0.0;
  int child = -1;  ///< node id, -1 until expanded
  int visits = 0;
  double total_value = 0.0;
  int virtual_loss = 0;  ///< in-flight selections this batch
};

struct Node {
  core::CompilationState state;
  std::vector<double> obs;
  double value = 0.0;  ///< NN bootstrap (non-terminal, once evaluated)
  bool terminal = false;
  double reward = 0.0;  ///< terminal compilation reward
  int depth = 0;
  bool evaluated = false;
  std::vector<Edge> edges;
  int parent = -1;  ///< first-discovery parent, for trace rebuilding
  int parent_action = -1;
};

/// One step of a selection path: the edge taken out of `node`.
struct Hop {
  int node = 0;
  int edge = 0;
};

/// A completed selection: the traversed edges plus how the leaf resolves.
struct Path {
  std::vector<Hop> hops;
  int leaf_node = -1;     ///< resolved leaf (when no expansion pending)
  int pending_leaf = -1;  ///< index into the batch's pending expansions
};

/// A leaf expansion queued for the parallel step + batched evaluation.
struct PendingLeaf {
  int node = 0;
  int edge = 0;
  core::CompilationState child;
  bool terminal = false;
  std::vector<double> obs;
  std::string key;
};

}  // namespace

SearchResult mcts_search(const ir::Circuit& circuit,
                         const SearchContext& context,
                         const SearchOptions& options, rl::WorkerPool& pool,
                         const ProgressFn& progress) {
  const auto start = std::chrono::steady_clock::now();
  const core::ActionRegistry& registry = core::ActionRegistry::instance();
  const int max_depth = context.max_steps;
  const std::uint64_t seed = context.seed;
  const Deadline deadline(options.deadline_ms);

  SearchResult result;
  result.stats.strategy = Strategy::kMcts;
  result.stats.budget = options.simulations;
  BatchEvaluator evaluator(context, pool);
  TranspositionTable table;

  std::vector<Node> nodes;
  int best_terminal = -1;

  // Builds the edges of an evaluated node from its masked priors.
  const auto attach_edges = [&](Node& node, const double* priors) {
    const auto mask = registry.mask(node.state);
    for (int a = 0; a < registry.size(); ++a) {
      if (mask[static_cast<std::size_t>(a)]) {
        Edge edge;
        edge.action = a;
        edge.prior = priors[a];
        node.edges.push_back(edge);
      }
    }
  };

  // Evaluates a run of nodes (ids) with one batched policy + value pass.
  std::vector<double> obs_batch;
  std::vector<std::vector<bool>> mask_batch;
  std::vector<double> probs;
  std::vector<double> values;
  const auto evaluate_nodes = [&](const std::vector<int>& ids) {
    if (ids.empty()) {
      return;
    }
    const int n = static_cast<int>(ids.size());
    const auto obs_size =
        static_cast<std::size_t>(nodes[static_cast<std::size_t>(
                                           ids.front())]
                                     .obs.size());
    obs_batch.resize(static_cast<std::size_t>(n) * obs_size);
    mask_batch.resize(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      const Node& node = nodes[static_cast<std::size_t>(
          ids[static_cast<std::size_t>(i)])];
      std::copy(node.obs.begin(), node.obs.end(),
                obs_batch.begin() + static_cast<std::size_t>(i) * obs_size);
      mask_batch[static_cast<std::size_t>(i)] = registry.mask(node.state);
    }
    evaluator.evaluate(obs_batch, n, mask_batch, &probs, &values,
                       result.stats);
    for (int i = 0; i < n; ++i) {
      Node& node = nodes[static_cast<std::size_t>(
          ids[static_cast<std::size_t>(i)])];
      node.value = values[static_cast<std::size_t>(i)];
      attach_edges(node, probs.data() + static_cast<std::size_t>(i) *
                                            static_cast<std::size_t>(
                                                registry.size()));
      node.evaluated = true;
    }
  };

  const auto record_terminal = [&](int id) {
    ++result.stats.terminals_found;
    if (best_terminal < 0 ||
        nodes[static_cast<std::size_t>(id)].reward >
            nodes[static_cast<std::size_t>(best_terminal)].reward) {
      best_terminal = id;
    }
  };

  // Root.
  {
    Node root;
    root.state.circuit = circuit;
    root.obs = core::CompilationEnv::observe_state(root.state);
    nodes.push_back(std::move(root));
    (void)table.lookup_or_insert(state_key(nodes[0].state), 0);
    evaluate_nodes({0});
  }

  int sims_done = 0;
  std::vector<bool> on_path(1, false);
  while (sims_done < options.simulations) {
    if (deadline.expired()) {
      result.stats.deadline_hit = true;
      break;
    }
    const int batch =
        std::min(kMctsBatch, options.simulations - sims_done);

    // ---- selection (sequential, under virtual loss) --------------------
    std::vector<Path> paths;
    std::vector<PendingLeaf> pending;
    on_path.assign(nodes.size(), false);
    for (int b = 0; b < batch; ++b) {
      Path path;
      std::vector<int> marked;
      int current = 0;
      for (;;) {
        Node& node = nodes[static_cast<std::size_t>(current)];
        if (node.terminal || !node.evaluated ||
            node.depth >= max_depth || node.edges.empty()) {
          path.leaf_node = current;  // bootstrap/terminal leaf
          break;
        }
        on_path[static_cast<std::size_t>(current)] = true;
        marked.push_back(current);

        // PUCT over the node's edges; edges looping back onto the
        // selection path are skipped (no-op cycles must not trap the
        // walk). Ties break to the lower edge index.
        double n_sum = 0.0;
        for (const Edge& e : node.edges) {
          n_sum += e.visits + e.virtual_loss;
        }
        const double sqrt_n = std::sqrt(n_sum + 1.0);
        int chosen = -1;
        double best_score = 0.0;
        for (std::size_t e = 0; e < node.edges.size(); ++e) {
          const Edge& edge = node.edges[e];
          if (edge.child >= 0 &&
              on_path[static_cast<std::size_t>(edge.child)]) {
            continue;
          }
          const double in_flight = edge.visits + edge.virtual_loss;
          const double q =
              in_flight > 0.0 ? edge.total_value / in_flight : 0.0;
          const double score =
              q + kCPuct * edge.prior * sqrt_n / (1.0 + in_flight);
          if (chosen < 0 || score > best_score) {
            chosen = static_cast<int>(e);
            best_score = score;
          }
        }
        if (chosen < 0) {
          path.leaf_node = current;  // fully cycle-blocked: bootstrap
          break;
        }
        Edge& edge = node.edges[static_cast<std::size_t>(chosen)];
        ++edge.virtual_loss;
        path.hops.push_back({current, chosen});
        if (edge.child < 0) {
          // Unexpanded: queue (node, edge) once per batch; duplicate
          // selections share the stepped child.
          int found = -1;
          for (std::size_t p = 0; p < pending.size(); ++p) {
            if (pending[p].node == current &&
                pending[p].edge == chosen) {
              found = static_cast<int>(p);
              break;
            }
          }
          if (found < 0) {
            PendingLeaf leaf;
            leaf.node = current;
            leaf.edge = chosen;
            found = static_cast<int>(pending.size());
            pending.push_back(std::move(leaf));
          }
          path.pending_leaf = found;
          break;
        }
        current = edge.child;
      }
      for (const int id : marked) {
        on_path[static_cast<std::size_t>(id)] = false;
      }
      paths.push_back(std::move(path));
    }

    // ---- expansion (index-parallel over the pool) ----------------------
    pool.parallel_for(static_cast<int>(pending.size()), [&](int p) {
      PendingLeaf& leaf = pending[static_cast<std::size_t>(p)];
      const Node& parent = nodes[static_cast<std::size_t>(leaf.node)];
      const Edge& edge =
          parent.edges[static_cast<std::size_t>(leaf.edge)];
      leaf.child = core::CompilationEnv::peek_step(
          parent.state, edge.action,
          core::CompilationEnv::step_seed(seed, 1, parent.depth));
      leaf.terminal = leaf.child.state() == core::MdpState::kDone;
      if (!leaf.terminal) {
        leaf.obs = core::CompilationEnv::observe_state(leaf.child);
        leaf.key = state_key(leaf.child);
      }
    });
    result.stats.nodes_expanded += pending.size();

    // ---- resolution (sequential, deterministic order) ------------------
    std::vector<int> to_evaluate;
    for (auto& leaf : pending) {
      Node& parent = nodes[static_cast<std::size_t>(leaf.node)];
      Edge& edge = parent.edges[static_cast<std::size_t>(leaf.edge)];
      const int depth = parent.depth + 1;
      result.stats.depth_reached =
          std::max(result.stats.depth_reached, depth);
      if (leaf.terminal) {
        Node node;
        node.state = std::move(leaf.child);
        node.terminal = true;
        node.reward = terminal_reward(context, node.state);
        node.depth = depth;
        node.parent = leaf.node;
        node.parent_action = edge.action;
        edge.child = static_cast<int>(nodes.size());
        nodes.push_back(std::move(node));
        record_terminal(edge.child);
        continue;
      }
      const auto existing = table.lookup_or_insert(
          std::move(leaf.key), static_cast<int>(nodes.size()));
      if (existing.has_value()) {
        edge.child = *existing;  // transposition: evaluated once, shared
        continue;
      }
      Node node;
      node.state = std::move(leaf.child);
      node.obs = std::move(leaf.obs);
      node.depth = depth;
      node.parent = leaf.node;
      node.parent_action = edge.action;
      edge.child = static_cast<int>(nodes.size());
      to_evaluate.push_back(edge.child);
      nodes.push_back(std::move(node));
    }

    // ---- batched leaf evaluation ---------------------------------------
    evaluate_nodes(to_evaluate);

    // ---- backpropagation (sequential, in selection order) --------------
    for (const Path& path : paths) {
      int leaf_id = path.leaf_node;
      if (path.pending_leaf >= 0) {
        const PendingLeaf& leaf =
            pending[static_cast<std::size_t>(path.pending_leaf)];
        leaf_id = nodes[static_cast<std::size_t>(leaf.node)]
                      .edges[static_cast<std::size_t>(leaf.edge)]
                      .child;
      }
      const Node& leaf = nodes[static_cast<std::size_t>(leaf_id)];
      const double value = leaf.terminal ? leaf.reward : leaf.value;
      for (const Hop& hop : path.hops) {
        Edge& edge = nodes[static_cast<std::size_t>(hop.node)]
                         .edges[static_cast<std::size_t>(hop.edge)];
        --edge.virtual_loss;
        ++edge.visits;
        edge.total_value += value;
      }
      ++sims_done;
    }

    if (progress) {
      SearchProgress snapshot;
      snapshot.strategy = Strategy::kMcts;
      snapshot.quantum = sims_done;
      snapshot.nodes_expanded = result.stats.nodes_expanded;
      snapshot.found_terminal = best_terminal >= 0;
      if (best_terminal >= 0) {
        snapshot.best_reward =
            nodes[static_cast<std::size_t>(best_terminal)].reward;
      }
      snapshot.elapsed_us =
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - start)
              .count();
      progress(snapshot);
    }
  }

  result.stats.simulations_run = sims_done;
  result.stats.transposition_hits = table.hits();
  result.stats.transposition_entries = table.entries();
  if (best_terminal >= 0) {
    result.found_terminal = true;
    const Node& best = nodes[static_cast<std::size_t>(best_terminal)];
    result.reward = best.reward;
    result.state = best.state;
    result.stats.best_reward = best.reward;
    // Rebuild the action trace along the first-discovery parent chain.
    for (int id = best_terminal; nodes[static_cast<std::size_t>(id)].parent >= 0;
         id = nodes[static_cast<std::size_t>(id)].parent) {
      result.actions.push_back(
          nodes[static_cast<std::size_t>(id)].parent_action);
    }
    std::reverse(result.actions.begin(), result.actions.end());
  }
  result.stats.elapsed_us =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count();
  return result;
}

}  // namespace qrc::search::internal

#include "search/engine.hpp"

#include <stdexcept>

#include "ir/qasm.hpp"
#include "obs/stage.hpp"
#include "reward/reward.hpp"
#include "rl/categorical.hpp"
#include "rl/mlp.hpp"
#include "search/internal.hpp"

namespace qrc::search {

std::string state_key(const core::CompilationState& state) {
  std::string key = ir::canonical_key(state.circuit);
  key += '\n';
  key += state.platform.has_value()
             ? std::to_string(static_cast<int>(*state.platform))
             : std::string("-");
  key += '\n';
  key += state.device != nullptr ? state.device->name() : std::string("-");
  key += '\n';
  if (state.initial_layout.has_value()) {
    for (const int q : *state.initial_layout) {
      key += std::to_string(q);
      key += ',';
    }
  } else {
    key += '-';
  }
  key += '\n';
  for (const int q : state.final_layout) {
    key += std::to_string(q);
    key += ',';
  }
  key += state.layout_applied ? "\nL" : "\n-";
  return key;
}

namespace internal {

void BatchEvaluator::evaluate(const std::vector<double>& observations,
                              int batch,
                              const std::vector<std::vector<bool>>& masks,
                              std::vector<double>* probs_out,
                              std::vector<double>* values_out,
                              SearchStats& stats) {
  if (batch == 0) {
    if (probs_out != nullptr) {
      probs_out->clear();
    }
    if (values_out != nullptr) {
      values_out->clear();
    }
    return;
  }
  obs::Stage stage(obs::StageId::kLeafEval);
  if (probs_out != nullptr) {
    context_.policy->forward_batch(observations, batch, logits_, &pool_);
    const rl::BatchedMaskedCategorical dist(logits_, masks);
    probs_out->assign(logits_.size(), 0.0);
    for (int r = 0; r < batch; ++r) {
      const auto row = dist.probs(r);
      std::copy(row.begin(), row.end(),
                probs_out->begin() +
                    static_cast<std::size_t>(r) *
                        static_cast<std::size_t>(dist.num_actions()));
    }
    stats.policy_evals += static_cast<std::uint64_t>(batch);
  }
  if (values_out != nullptr) {
    context_.value->forward_batch(observations, batch, value_rows_, &pool_);
    values_out->resize(static_cast<std::size_t>(batch));
    for (int r = 0; r < batch; ++r) {
      (*values_out)[static_cast<std::size_t>(r)] =
          value_rows_[static_cast<std::size_t>(r)];
    }
    stats.value_evals += static_cast<std::uint64_t>(batch);
  }
}

double terminal_reward(const SearchContext& context,
                       const core::CompilationState& state) {
  return reward::compute_reward(context.reward, state.circuit,
                                *state.device);
}

}  // namespace internal

SearchResult run_search(const ir::Circuit& circuit,
                        const SearchContext& context,
                        const SearchOptions& options, rl::WorkerPool& pool,
                        const ProgressFn& progress) {
  if (context.policy == nullptr || context.value == nullptr) {
    throw std::invalid_argument("run_search: context needs both networks");
  }
  if (options.beam_width < 1 || options.simulations < 1 ||
      options.deadline_ms < 0) {
    throw std::invalid_argument("run_search: nonsense search options");
  }
  switch (options.strategy) {
    case Strategy::kBeam:
      return internal::beam_search(circuit, context, options, pool, progress);
    case Strategy::kMcts:
      return internal::mcts_search(circuit, context, options, pool, progress);
  }
  throw std::invalid_argument("run_search: unknown strategy");
}

}  // namespace qrc::search

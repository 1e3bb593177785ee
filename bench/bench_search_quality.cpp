// Search-quality bench: how much reward policy-guided lookahead (beam /
// MCTS) recovers over the greedy argmax rollout, at what planning cost.
//
// Trains one fidelity model, compiles the benchmark corpus three ways
// (greedy compile_all, beam:K, mcts:N), and reports per-family and
// overall reward deltas (clamped >= 0 by construction — search never
// returns less than greedy), search throughput in expanded nodes/sec,
// and a deadline sweep measuring how reliably wall-clock budgets are
// honored (anytime compilation).
//
// Writes BENCH_search_quality.json with reward_delta_vs_greedy /
// per_family_delta / improved_fraction / min_delta / families_improved /
// nodes_per_sec / deadline_hit_histogram / deadline_hit_rate.
//
// Knobs: QRC_TRAIN_STEPS, QRC_EVAL_COUNT (experiment_common.hpp),
//        QRC_SEARCH_BEAM (default 8), QRC_SEARCH_SIMS (default 400).

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "experiment_common.hpp"
#include "search/search.hpp"

namespace {

using namespace qrc;

struct StrategyRun {
  std::string name;
  double mean_delta = 0.0;
  double min_delta = 0.0;
  double improved_fraction = 0.0;
  double nodes_per_sec = 0.0;
  std::uint64_t nodes = 0;
  std::map<std::string, double> family_delta;
  std::map<std::string, int> family_count;
};

StrategyRun run_strategy(const core::Predictor& predictor,
                         const std::vector<ir::Circuit>& corpus,
                         const search::SearchOptions& options) {
  StrategyRun run;
  run.name = search::strategy_name(options.strategy);
  const auto searched =
      predictor.compile_all(corpus, nullptr, {.search = options});

  int improved = 0;
  std::int64_t search_us = 0;
  run.min_delta = 1e300;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    // A searched compile runs the greedy baseline internally and records
    // its reward — no separate greedy pass needed.
    const double delta =
        searched[i].reward - searched[i].search_stats->baseline_reward;
    run.mean_delta += delta;
    run.min_delta = std::min(run.min_delta, delta);
    improved += searched[i].search_stats->improved ? 1 : 0;
    run.nodes += searched[i].search_stats->nodes_expanded;
    search_us += searched[i].search_stats->elapsed_us;
    const std::string family = bench_harness::family_of(corpus[i].name());
    run.family_delta[family] += delta;
    ++run.family_count[family];
  }
  run.mean_delta /= static_cast<double>(corpus.size());
  run.improved_fraction =
      static_cast<double>(improved) / static_cast<double>(corpus.size());
  // Throughput over the engine's own wall time (SearchStats::elapsed_us),
  // not the surrounding compile_all call — the latter includes the
  // greedy baseline rollouts, which would understate search speed.
  run.nodes_per_sec = static_cast<double>(run.nodes) /
                      std::max(static_cast<double>(search_us) / 1e6, 1e-12);
  for (auto& [family, total] : run.family_delta) {
    total /= run.family_count.at(family);
  }

  std::printf("%s: mean delta %+.5f, min delta %+.5f, improved %.0f%%, "
              "%llu nodes in %.2fs of search (%.0f nodes/sec)\n",
              run.name.c_str(), run.mean_delta, run.min_delta,
              100.0 * run.improved_fraction,
              static_cast<unsigned long long>(run.nodes),
              static_cast<double>(search_us) / 1e6, run.nodes_per_sec);
  return run;
}

void dump_family_map(std::FILE* json, const StrategyRun& run) {
  std::fprintf(json, "    \"%s\": {", run.name.c_str());
  bool first = true;
  for (const auto& [family, delta] : run.family_delta) {
    std::fprintf(json, "%s\"%s\": %.6f", first ? "" : ", ", family.c_str(),
                 delta);
    first = false;
  }
  std::fprintf(json, "}");
}

}  // namespace

int main() {
  const auto corpus = bench_harness::make_corpus();
  const auto predictor = bench_harness::train_model(
      reward::RewardKind::kFidelity, corpus, 1);

  search::SearchOptions beam;
  beam.strategy = search::Strategy::kBeam;
  beam.beam_width = bench_harness::env_int("QRC_SEARCH_BEAM", 8);
  search::SearchOptions mcts;
  mcts.strategy = search::Strategy::kMcts;
  mcts.simulations = bench_harness::env_int("QRC_SEARCH_SIMS", 400);

  std::printf("# beam:%d and mcts:%d over the corpus...\n", beam.beam_width,
              mcts.simulations);
  const StrategyRun beam_run = run_strategy(predictor, corpus, beam);
  const StrategyRun mcts_run = run_strategy(predictor, corpus, mcts);

  // Families where lookahead strictly helps under either strategy.
  std::map<std::string, double> best_family_delta;
  for (const auto* run : {&beam_run, &mcts_run}) {
    for (const auto& [family, delta] : run->family_delta) {
      auto [it, inserted] = best_family_delta.try_emplace(family, delta);
      if (!inserted) {
        it->second = std::max(it->second, delta);
      }
    }
  }
  int families_improved = 0;
  for (const auto& [family, delta] : best_family_delta) {
    families_improved += delta > 0.0 ? 1 : 0;
  }
  std::printf("families with positive mean delta: %d of %zu\n",
              families_improved, best_family_delta.size());

  // Deadline sweep: tight wall-clock budgets on an oversized MCTS budget
  // must cut the search at a quantum boundary and still return results.
  std::map<int, int> deadline_hits;
  int deadline_runs = 0;
  int deadline_hit_total = 0;
  const std::size_t sweep =
      std::min<std::size_t>(corpus.size(), 4);
  for (const int deadline_ms : {5, 25, 100}) {
    search::SearchOptions bounded = mcts;
    bounded.simulations = 10'000'000;
    bounded.deadline_ms = deadline_ms;
    for (std::size_t i = 0; i < sweep; ++i) {
      const auto result = predictor.compile_search(corpus[i], bounded);
      const bool hit = result.search_stats->deadline_hit;
      deadline_hits[deadline_ms] += hit ? 1 : 0;
      deadline_hit_total += hit ? 1 : 0;
      ++deadline_runs;
    }
  }
  const double deadline_hit_rate =
      deadline_runs > 0
          ? static_cast<double>(deadline_hit_total) / deadline_runs
          : 0.0;
  std::printf("deadline sweep: %d runs, hit rate %.2f\n", deadline_runs,
              deadline_hit_rate);

  std::FILE* json = std::fopen("BENCH_search_quality.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "{\n");
    bench_harness::write_meta(json);
    std::fprintf(json,
                 "  \"bench\": \"search_quality\",\n"
                 "  \"circuits\": %zu,\n"
                 "  \"beam_width\": %d,\n"
                 "  \"mcts_simulations\": %d,\n"
                 "  \"reward_delta_vs_greedy\": {\"beam\": %.6f, "
                 "\"mcts\": %.6f},\n"
                 "  \"min_delta\": %.6f,\n"
                 "  \"improved_fraction\": {\"beam\": %.4f, "
                 "\"mcts\": %.4f},\n"
                 "  \"families_improved\": %d,\n"
                 "  \"nodes_per_sec\": {\"beam\": %.2f, \"mcts\": %.2f},\n",
                 corpus.size(), beam.beam_width, mcts.simulations,
                 beam_run.mean_delta, mcts_run.mean_delta,
                 std::min(beam_run.min_delta, mcts_run.min_delta),
                 beam_run.improved_fraction, mcts_run.improved_fraction,
                 families_improved, beam_run.nodes_per_sec,
                 mcts_run.nodes_per_sec);
    std::fprintf(json, "  \"per_family_delta\": {\n");
    dump_family_map(json, beam_run);
    std::fprintf(json, ",\n");
    dump_family_map(json, mcts_run);
    std::fprintf(json, "\n  },\n  \"deadline_hit_histogram\": {");
    bool first = true;
    for (const auto& [ms, hits] : deadline_hits) {
      std::fprintf(json, "%s\"%d\": %d", first ? "" : ", ", ms, hits);
      first = false;
    }
    std::fprintf(json, "},\n  \"deadline_hit_rate\": %.4f\n}\n",
                 deadline_hit_rate);
    std::fclose(json);
    std::printf("results written to BENCH_search_quality.json\n");
  }

  // The acceptance bar travels with the bench: search must never lose to
  // greedy (the clamp), and lookahead must strictly help somewhere.
  if (beam_run.min_delta < 0.0 || mcts_run.min_delta < 0.0) {
    std::fprintf(stderr, "FAIL: search returned less than greedy\n");
    return 1;
  }
  return 0;
}

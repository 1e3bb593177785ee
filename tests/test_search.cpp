// Tests for the policy-guided search engine: spec parsing, the greedy
// floor (beam(1) == compile() bit-for-bit, search never worse than greedy
// on a corpus), worker-count invariance, deadline handling, transposition
// accounting, the service round trip with per-request "search" configs
// (including cache-key separation from greedy results), and the
// verification gate on searched outputs across the device grid.

#include <gtest/gtest.h>

#include <future>
#include <set>
#include <string>
#include <vector>

#include "bench_suite/benchmarks.hpp"
#include "core/predictor.hpp"
#include "core/rollout.hpp"
#include "ir/qasm.hpp"
#include "rl/thread_pool.hpp"
#include "search/engine.hpp"
#include "search/search.hpp"
#include "service/compile_service.hpp"
#include "service/jsonl.hpp"

namespace {

using qrc::bench::BenchmarkFamily;
using qrc::core::CompilationResult;
using qrc::core::Predictor;
using qrc::ir::Circuit;
using qrc::search::SearchOptions;
using qrc::search::Strategy;
using qrc::service::CompileService;
using qrc::service::JsonValue;
using qrc::service::ServiceConfig;

std::vector<Circuit> corpus_of(int count, int min_q = 2, int max_q = 5) {
  return qrc::bench::benchmark_suite(min_q, max_q, count);
}

/// One tiny trained model shared across tests (training is the slow part;
/// every compile* method is const and thread-safe).
const Predictor& shared_model() {
  static auto* model = [] {
    qrc::core::PredictorConfig config;
    config.reward = qrc::reward::RewardKind::kFidelity;
    config.seed = 5;
    config.ppo.total_timesteps = 768;
    config.ppo.steps_per_update = 256;
    config.ppo.hidden_sizes = {16};
    auto* predictor = new Predictor(config);
    (void)predictor->train(corpus_of(6));
    return predictor;
  }();
  return *model;
}

std::shared_ptr<const Predictor> shared_handle() {
  return {&shared_model(), [](const Predictor*) {}};
}

void expect_same_result(const CompilationResult& got,
                        const CompilationResult& want,
                        const std::string& context) {
  EXPECT_EQ(got.action_trace, want.action_trace) << context;
  EXPECT_EQ(got.reward, want.reward) << context;
  EXPECT_EQ(got.used_fallback, want.used_fallback) << context;
  EXPECT_EQ(got.device, want.device) << context;
  EXPECT_TRUE(got.circuit == want.circuit) << context;
  EXPECT_EQ(got.initial_layout, want.initial_layout) << context;
  EXPECT_EQ(got.final_layout, want.final_layout) << context;
}

// ------------------------------------------------------------ the specs --

TEST(SearchSpecTest, ParsesBeamAndMctsSpecs) {
  const auto beam = qrc::search::parse_spec("beam:12");
  EXPECT_EQ(beam.strategy, Strategy::kBeam);
  EXPECT_EQ(beam.beam_width, 12);
  EXPECT_EQ(qrc::search::spec_string(beam), "beam:12");

  const auto beam_default = qrc::search::parse_spec("beam");
  EXPECT_EQ(beam_default.beam_width, SearchOptions{}.beam_width);

  const auto mcts = qrc::search::parse_spec("mcts:250");
  EXPECT_EQ(mcts.strategy, Strategy::kMcts);
  EXPECT_EQ(mcts.simulations, 250);
  EXPECT_EQ(qrc::search::spec_string(mcts), "mcts:250");
}

TEST(SearchSpecTest, RejectsMalformedSpecs) {
  for (const char* bad :
       {"", "beams", "beam:", "beam:0", "beam:-3", "beam:4x", "mcts:",
        "mcts:1.5", "bfs:2"}) {
    EXPECT_THROW((void)qrc::search::parse_spec(bad), std::runtime_error)
        << bad;
  }
}

TEST(SearchSpecTest, BudgetsAreCappedOnTheWire) {
  EXPECT_EQ(qrc::search::parse_spec("beam:64").beam_width, 64);
  EXPECT_EQ(qrc::search::parse_spec("mcts:20000").simulations, 20000);
  for (const char* over : {"beam:65", "mcts:20001", "beam:1000000"}) {
    EXPECT_THROW((void)qrc::search::parse_spec(over), std::runtime_error)
        << over;
    try {
      (void)qrc::service::parse_serve_request(
          std::string("{\"v\":1,\"id\":\"big\",\"qasm\":\"x\",\"search\":\"") +
          over + "\"}");
      ADD_FAILURE() << "accepted " << over;
    } catch (const qrc::service::ServiceError& e) {
      EXPECT_EQ(e.code(), qrc::service::ErrorCode::kBadRequest) << over;
    }
  }
}

TEST(SearchSpecTest, CacheTokensSeparateConfigs) {
  std::set<std::string> tokens;
  for (const char* spec : {"beam:1", "beam:8", "mcts:8", "mcts:400"}) {
    tokens.insert(qrc::search::cache_token(qrc::search::parse_spec(spec)));
  }
  EXPECT_EQ(tokens.size(), 4u);
  auto deadline = qrc::search::parse_spec("beam:8");
  deadline.deadline_ms = 50;
  tokens.insert(qrc::search::cache_token(deadline));
  EXPECT_EQ(tokens.size(), 5u);  // deadline changes the key too
}

// ------------------------------------------------------- the greedy floor --

TEST(SearchEngineTest, BeamWidthOneMatchesGreedyBitForBit) {
  const auto suite = corpus_of(8);
  SearchOptions options;
  options.strategy = Strategy::kBeam;
  options.beam_width = 1;
  for (const auto& circuit : suite) {
    const auto greedy = shared_model().compile(circuit);
    const auto searched = shared_model().compile_search(circuit, options);
    expect_same_result(searched, greedy, circuit.name());
    ASSERT_TRUE(searched.search_stats.has_value());
    EXPECT_EQ(searched.search_stats->baseline_reward, greedy.reward);
    EXPECT_FALSE(searched.search_stats->improved) << circuit.name();
  }
}

TEST(SearchEngineTest, SearchNeverWorseThanGreedyOnACorpus) {
  const auto suite = corpus_of(20);
  const auto greedy = shared_model().compile_all(suite);
  for (const char* spec : {"beam:4", "mcts:128"}) {
    const auto options = qrc::search::parse_spec(spec);
    const auto searched =
        shared_model().compile_all(suite, nullptr, {.search = options});
    for (std::size_t i = 0; i < suite.size(); ++i) {
      EXPECT_GE(searched[i].reward, greedy[i].reward)
          << spec << " on " << suite[i].name();
      ASSERT_TRUE(searched[i].search_stats.has_value());
      EXPECT_EQ(searched[i].search_stats->baseline_reward,
                greedy[i].reward);
      EXPECT_EQ(searched[i].search_stats->improved,
                searched[i].reward > greedy[i].reward);
      // A result that claims improvement must come from a found terminal.
      if (searched[i].search_stats->improved) {
        EXPECT_FALSE(searched[i].used_fallback);
        EXPECT_EQ(searched[i].reward,
                  searched[i].search_stats->best_reward);
      }
    }
  }
}

// ------------------------------------------------------------ determinism --

TEST(SearchEngineTest, BitwiseDeterministicAcrossWorkerCounts) {
  const auto suite = corpus_of(4);
  for (const char* spec : {"beam:6", "mcts:96"}) {
    const auto options = qrc::search::parse_spec(spec);
    qrc::rl::WorkerPool serial(1);
    qrc::rl::WorkerPool wide(4);
    const auto a =
        shared_model().compile_all(suite, &serial, {.search = options});
    const auto b =
        shared_model().compile_all(suite, &wide, {.search = options});
    for (std::size_t i = 0; i < suite.size(); ++i) {
      expect_same_result(b[i], a[i],
                         std::string(spec) + " on " + suite[i].name());
      EXPECT_EQ(a[i].search_stats->nodes_expanded,
                b[i].search_stats->nodes_expanded);
      EXPECT_EQ(a[i].search_stats->transposition_hits,
                b[i].search_stats->transposition_hits);
      EXPECT_EQ(a[i].search_stats->best_reward,
                b[i].search_stats->best_reward);
    }
  }
}

// --------------------------------------------------------------- deadline --

TEST(SearchEngineTest, DeadlineIsHonoredWithAnytimeResult) {
  // A simulation budget that would run for minutes, cut to 60 ms: the
  // search must stop within one scheduling quantum (one MCTS batch) of
  // the deadline and still return a valid (greedy-clamped) result.
  const Circuit circuit = qrc::bench::make_benchmark(
      BenchmarkFamily::kQft, 6, 1);
  SearchOptions options;
  options.strategy = Strategy::kMcts;
  options.simulations = 50'000'000;
  options.deadline_ms = 60;
  const auto result = shared_model().compile_search(circuit, options);
  ASSERT_TRUE(result.search_stats.has_value());
  const auto& stats = *result.search_stats;
  EXPECT_TRUE(stats.deadline_hit);
  EXPECT_LT(stats.simulations_run, options.simulations);
  // Generous quantum bound: one leaf batch on a tiny net takes far less
  // than two seconds even under sanitizers on a loaded CI box.
  EXPECT_LE(stats.elapsed_us, (60 + 2000) * 1000);
  EXPECT_GE(result.reward, stats.baseline_reward);
  EXPECT_NE(result.device, nullptr);

  // An unlimited-deadline run reports no hit.
  SearchOptions no_deadline;
  no_deadline.strategy = Strategy::kMcts;
  no_deadline.simulations = 16;
  const auto free_run = shared_model().compile_search(circuit, no_deadline);
  EXPECT_FALSE(free_run.search_stats->deadline_hit);
}

// --------------------------------------------------------- transpositions --

TEST(SearchEngineTest, MctsMergesTransposedStates) {
  // With a few hundred simulations over 29 actions the tree necessarily
  // re-reaches states (no-op optimization actions alone map a node onto
  // itself), which the table must merge instead of re-evaluating.
  const Circuit circuit = qrc::bench::make_benchmark(
      BenchmarkFamily::kGhz, 4, 1);
  SearchOptions options;
  options.strategy = Strategy::kMcts;
  options.simulations = 256;
  const auto result = shared_model().compile_search(circuit, options);
  ASSERT_TRUE(result.search_stats.has_value());
  EXPECT_GT(result.search_stats->transposition_hits, 0u);
  EXPECT_GT(result.search_stats->transposition_entries, 0u);
  // Evaluations happen once per distinct state, not once per visit.
  EXPECT_LE(result.search_stats->policy_evals,
            result.search_stats->transposition_entries + 1);
}

TEST(SearchEngineTest, StateKeyDistinguishesCompilationPhases) {
  qrc::core::CompilationState start;
  start.circuit = qrc::bench::make_benchmark(BenchmarkFamily::kGhz, 3, 1);
  const auto base = qrc::search::state_key(start);

  qrc::core::CompilationState chosen = start;
  chosen.platform = qrc::device::Platform::kIBM;
  EXPECT_NE(qrc::search::state_key(chosen), base);

  qrc::core::CompilationState laid_out = chosen;
  laid_out.initial_layout = std::vector<int>{0, 1, 2};
  laid_out.layout_applied = true;
  EXPECT_NE(qrc::search::state_key(laid_out),
            qrc::search::state_key(chosen));
}

// -------------------------------------------------------------- the service --

TEST(SearchServiceTest, SearchConfigsGetTheirOwnCacheEntries) {
  CompileService service{ServiceConfig{}};
  service.registry().add("fidelity", shared_handle());
  const Circuit circuit = qrc::bench::make_benchmark(
      BenchmarkFamily::kGhz, 3, 1);

  const auto greedy = service.submit("g", "", circuit).get();
  EXPECT_FALSE(greedy.cached);

  // Same circuit under a search config: a distinct cache key, so no hit —
  // and the result matches a direct compile_search exactly.
  const auto beam_options = qrc::search::parse_spec("beam:2");
  const auto beam =
      service.submit("b", "", circuit, false, beam_options).get();
  EXPECT_FALSE(beam.cached);
  ASSERT_TRUE(beam.result.search_stats.has_value());
  expect_same_result(beam.result,
                     shared_model().compile_search(circuit, beam_options),
                     "service beam vs direct");

  // Replaying the searched request hits its own entry; greedy stays
  // separately cached; a different budget misses again.
  EXPECT_TRUE(service.submit("b2", "", circuit, false, beam_options)
                  .get()
                  .cached);
  EXPECT_TRUE(service.submit("g2", "", circuit).get().cached);
  EXPECT_FALSE(service
                   .submit("b3", "", circuit, false,
                           qrc::search::parse_spec("beam:3"))
                   .get()
                   .cached);

  const auto mcts = service
                        .submit("m", "", circuit, false,
                                qrc::search::parse_spec("mcts:32"))
                        .get();
  EXPECT_FALSE(mcts.cached);

  const auto& metrics = service.metrics();
  EXPECT_EQ(metrics.counter_value("qrc_search_requests_total",
                                  {{"strategy", "beam"}}),
            3u);
  EXPECT_EQ(metrics.counter_value("qrc_search_requests_total",
                                  {{"strategy", "mcts"}}),
            1u);
  EXPECT_EQ(metrics.counter_value("qrc_cache_hits_total"), 2u);
}

TEST(SearchServiceTest, JsonlRoundTripCarriesSearchFields) {
  const auto request = qrc::service::parse_serve_request(
      R"({"v": 1, "id": "s1", "qasm": "x", "search": "mcts:64",
          "deadline_ms": 250})");
  ASSERT_TRUE(request.search.has_value());
  EXPECT_EQ(request.search->strategy, Strategy::kMcts);
  EXPECT_EQ(request.search->simulations, 64);
  EXPECT_EQ(request.search->deadline_ms, 250);

  EXPECT_FALSE(qrc::service::parse_serve_request(R"({"v": 1, "qasm": "x"})")
                   .search.has_value());
  // Malformed search configs are request errors, not silent greedy runs.
  EXPECT_THROW((void)qrc::service::parse_serve_request(
                   R"({"v": 1, "qasm": "x", "search": "dfs:2"})"),
               std::runtime_error);
  EXPECT_THROW((void)qrc::service::parse_serve_request(
                   R"({"v": 1, "qasm": "x", "search": 8})"),
               std::runtime_error);
  EXPECT_THROW((void)qrc::service::parse_serve_request(
                   R"({"v": 1, "qasm": "x", "deadline_ms": 10})"),
               std::runtime_error);  // deadline without search
  EXPECT_THROW((void)qrc::service::parse_serve_request(
                   R"({"v": 1, "qasm": "x", "search": "beam:2",
                       "deadline_ms": 0})"),
               std::runtime_error);

  CompileService service{ServiceConfig{}};
  service.registry().add("fidelity", shared_handle());
  const Circuit circuit = qrc::bench::make_benchmark(
      BenchmarkFamily::kVqe, 3, 1);
  const auto response =
      service.submit("s", "", circuit, false, qrc::search::parse_spec("beam:2"))
          .get();
  const auto line = JsonValue::parse(
      qrc::service::serve_response_line(response));
  const auto& obj = line.as_object();
  EXPECT_EQ(obj.at("search").as_string(), "beam:2");
  EXPECT_GT(obj.at("search_nodes").as_number(), 0.0);
  EXPECT_GE(obj.at("search_reward_delta").as_number(), 0.0);
  EXPECT_FALSE(obj.at("search_deadline_hit").as_bool());
  // Greedy responses carry no search fields.
  const auto plain = service.submit("p", "", circuit).get();
  EXPECT_EQ(JsonValue::parse(qrc::service::serve_response_line(plain))
                .as_object()
                .count("search"),
            0u);
}

// ---------------------------------------------- the verification gate --

TEST(SearchVerifyTest, SearchedResultsPassTheEquivalenceGate) {
  // Fuzz-grid spot check (families x widths, both strategies): every
  // searched compilation must verify equivalent to its input through the
  // PR 4 gate, exactly like greedy compilations do. Device widths from 8
  // (oqc_lucy's cap) up to 12 (above ionq_harmony's) steer the sweep
  // across the device library.
  const qrc::verify::VerifyOptions verify_options;
  std::set<std::string> devices_seen;
  int checked = 0;
  const BenchmarkFamily families[] = {
      BenchmarkFamily::kGhz, BenchmarkFamily::kDj, BenchmarkFamily::kQft,
      BenchmarkFamily::kVqe, BenchmarkFamily::kWstate,
      BenchmarkFamily::kGraphState};
  for (std::size_t f = 0; f < std::size(families); ++f) {
    const int qubits = 3 + static_cast<int>(f) % 4;
    const Circuit circuit = qrc::bench::make_benchmark(
        families[f], qubits, 20 + static_cast<std::uint64_t>(f));
    for (const char* spec : {"beam:4", "mcts:48"}) {
      const auto result = shared_model().compile(
          circuit, {.verify = verify_options,
                    .search = qrc::search::parse_spec(spec)});
      ASSERT_TRUE(result.verification.has_value());
      EXPECT_EQ(result.verification->verdict,
                qrc::verify::Verdict::kEquivalent)
          << spec << " on " << circuit.name() << ": "
          << result.verification->detail;
      ASSERT_NE(result.device, nullptr);
      devices_seen.insert(result.device->name());
      ++checked;
    }
  }
  EXPECT_EQ(checked, 12);
  EXPECT_GE(devices_seen.size(), 1u);
}

}  // namespace

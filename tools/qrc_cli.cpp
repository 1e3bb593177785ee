// qrc — command-line interface to the RL quantum compiler.
//
//   qrc info
//       Lists devices, native gate sets and the action registry.
//   qrc train --reward <fidelity|critical_depth|combination|gate_count|depth>
//             --out <model.txt> [--steps N] [--count N]
//             [--min-qubits N] [--max-qubits N] [--seed N]
//             [--num-envs N] [--workers N] [--log-jsonl <curves.jsonl>]
//       Trains a model on the built-in benchmark corpus. --num-envs N
//       (default 1) collects rollouts from N environments in lockstep
//       (deterministic for a fixed seed/num-envs pair); --workers caps the
//       stepping threads (default: one per env). --log-jsonl streams one
//       JSON record per PPO update (losses, entropy, approx KL, clip
//       fraction, episode reward/length, env steps/sec) — observation
//       only, never changes the trained model.
//   qrc compile --model <model.txt> <circuit.qasm> [--out <compiled.qasm>]
//             [--verify] [--search beam:8|mcts:400] [--deadline-ms N]
//             [--trace] [--profile] [--profile-hz N]
//       Compiles an OpenQASM 2.0 circuit with a trained model. --verify
//       runs the QCEC-style equivalence gate on the result. --search
//       compiles by policy-guided lookahead (beam search or MCTS) instead
//       of the greedy rollout — never worse than greedy, often better;
//       --deadline-ms bounds the search wall clock (anytime best-so-far).
//       --trace records per-phase spans (detail timers included) and
//       prints the span tree after the result. --profile samples the
//       compile with the in-process SIGPROF profiler (default 97 Hz,
//       override with --profile-hz) and dumps folded flamegraph stacks
//       to stderr.
//   qrc verify <a.qasm> <b.qasm> [--stimuli N] [--seed N]
//              [--max-miter-qubits N] [--max-stimuli-qubits N]
//       Checks two circuits for functional equivalence with the tiered
//       checker (Clifford tableau / alternating miter / random stimuli).
//       Exit code: 0 equivalent, 1 not equivalent, 2 usage/operational
//       error, 3 undecided.
//   qrc serve --model <name>=<model.txt> [--model <name2>=<m2.txt> ...]
//             [--default-model <name>] [--max-batch N] [--max-wait-us N]
//             [--cache-entries N] [--max-lane-queue N]
//             [--listen HOST:PORT [--max-inflight N] [--max-connections N]]
//             [--max-frame-bytes N] [--metrics-listen HOST:PORT]
//             [--profile-hz N]
//       Long-lived compile server speaking the line-delimited JSON serve
//       protocol v1: one {"v":1,"op":"compile"|"stats"|"ping"|"metrics"|
//       "debug_dump"|"profile","id",...} envelope per line in, typed
//       "result"/"partial"/"error" frames out, in completion order and
//       correlated by "id". Requests arriving within the batch window are
//       fused into one batched policy rollout per model; "search"
//       requests run the lookahead engine instead and stream "partial"
//       frames. Repeat circuits are served from an LRU result cache keyed
//       on model + search config + content; overload is shed with typed
//       "overloaded" errors (--max-lane-queue bounds each model lane).
//       Without --listen the one connection is stdin/stdout, and the
//       server exits after answering the last request. With --listen it
//       accepts TCP connections instead (--max-inflight caps each one's
//       unanswered compiles, --max-connections their number);
//       SIGINT/SIGTERM drain gracefully: stop accepting, answer
//       everything in flight, flush, exit; SIGQUIT dumps the flight
//       recorder (recent sheds/errors/refutations) to stderr.
//       --metrics-listen binds a second HTTP listener answering
//       GET /metrics (Prometheus exposition), /healthz, /readyz,
//       /statusz, /debugz and /profilez?seconds=N&hz=H (on-demand
//       sampling session, folded stacks in the response body).
//       --profile-hz samples the whole serve lifetime instead and dumps
//       the folded stacks to stderr at shutdown. The exit summary (the
//       stats table) goes to stderr; the exit code is 1 iff verification
//       refuted a compiled circuit.
//
//   Every subcommand honours QRC_LOG=debug|info|warn|error|off and
//   QRC_LOG_JSON=1; train and serve also take --log-level/--log-json.
//   Diagnostics go to stderr, stdout stays machine-readable.
//   qrc client HOST:PORT
//       Connects to a --listen server, pipelines request lines from
//       stdin, and prints every response frame (partials included) to
//       stdout as it arrives. Exits when the server has answered
//       everything and closed the connection.

#include <sys/socket.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_suite/benchmarks.hpp"
#include "core/actions.hpp"
#include "core/predictor.hpp"
#include "device/library.hpp"
#include "ir/qasm.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "net/stats.hpp"
#include "obs/build_info.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "obs/training_logger.hpp"
#include "rl/mlp.hpp"
#include "search/search.hpp"
#include "service/compile_service.hpp"

namespace {

using namespace qrc;

int usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  qrc info\n"
      "  qrc train --reward <kind> --out <model.txt> [--steps N]\n"
      "            [--count N] [--min-qubits N] [--max-qubits N]\n"
      "            [--seed N] [--num-envs N] [--workers N]\n"
      "            [--log-jsonl <curves.jsonl>] [--log-level L] [--log-json]\n"
      "  qrc compile --model <model.txt> <circuit.qasm>\n"
      "              [--out <compiled.qasm>] [--verify]\n"
      "              [--search beam:8|mcts:400] [--deadline-ms N]\n"
      "              [--trace] [--profile] [--profile-hz N]\n"
      "  qrc verify <a.qasm> <b.qasm> [--stimuli N] [--seed N]\n"
      "             [--max-miter-qubits N] [--max-stimuli-qubits N]\n"
      "  qrc serve --model <name>=<model.txt> [--model <n2>=<m2.txt> ...]\n"
      "            [--default-model <name>] [--max-batch N]\n"
      "            [--max-wait-us N] [--cache-entries N]\n"
      "            [--max-lane-queue N]\n"
      "            [--listen HOST:PORT [--max-inflight N]\n"
      "             [--max-connections N]] [--max-frame-bytes N]\n"
      "            [--metrics-listen HOST:PORT] [--profile-hz N]\n"
      "            [--log-level L] [--log-json]\n"
      "  qrc client HOST:PORT\n"
      "\n"
      "logging: --log-level debug|info|warn|error|off (default info);\n"
      "         --log-json switches stderr lines to JSON. QRC_LOG and\n"
      "         QRC_LOG_JSON=1 set the same knobs for every subcommand.\n");
  return 2;
}

/// Parsed command line: every `--flag value` pair (repeats kept in order)
/// plus the bare positional arguments.
struct ParsedArgs {
  std::map<std::string, std::vector<std::string>> flags;
  std::vector<std::string> positionals;

  /// The value of a non-repeatable flag; throws if given more than once.
  [[nodiscard]] const std::string* single(const std::string& key) const {
    const auto it = flags.find(key);
    if (it == flags.end()) {
      return nullptr;
    }
    if (it->second.size() > 1) {
      throw std::runtime_error("--" + key + " given " +
                               std::to_string(it->second.size()) +
                               " times; expected at most once");
    }
    return &it->second.front();
  }

  /// The integer value of a non-repeatable flag, or `fallback` when it
  /// is absent; throws when the value is not an integer or lies outside
  /// [min, max].
  [[nodiscard]] int get_int(const char* key, int fallback,
                            int min = std::numeric_limits<int>::min(),
                            int max = std::numeric_limits<int>::max()) const {
    const std::string* v = single(key);
    if (v == nullptr) {
      return fallback;
    }
    int parsed = 0;
    try {
      std::size_t end = 0;
      parsed = std::stoi(*v, &end);
      if (end != v->size()) {
        throw std::invalid_argument(*v);
      }
    } catch (const std::exception&) {
      throw std::runtime_error("--" + std::string(key) +
                               " expects an integer, got '" + *v + "'");
    }
    if (parsed < min || parsed > max) {
      const std::string range =
          max == std::numeric_limits<int>::max()
              ? ">= " + std::to_string(min)
              : "in [" + std::to_string(min) + ", " + std::to_string(max) + "]";
      throw std::runtime_error("--" + std::string(key) + " must be " + range);
    }
    return parsed;
  }
};

/// Parses `--flag value` pairs, valueless boolean switches and
/// positionals; flags outside `allowed`/`switches` are hard errors (a typo
/// must not silently fall back to a default).
ParsedArgs parse_args(int argc, char** argv, int start,
                      std::initializer_list<const char*> allowed,
                      std::initializer_list<const char*> switches = {}) {
  ParsedArgs out;
  for (int i = start; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      const std::string key = arg.substr(2);
      if (std::find_if(switches.begin(), switches.end(),
                       [&](const char* a) { return key == a; }) !=
          switches.end()) {
        out.flags[key].emplace_back("true");
        continue;
      }
      if (std::find_if(allowed.begin(), allowed.end(),
                       [&](const char* a) { return key == a; }) ==
          allowed.end()) {
        throw std::runtime_error("unknown flag " + arg + " for '" +
                                 std::string(argv[1]) + "'");
      }
      if (i + 1 >= argc) {
        throw std::runtime_error("missing value for " + arg);
      }
      out.flags[key].emplace_back(argv[++i]);
    } else {
      out.positionals.push_back(arg);
    }
  }
  return out;
}

/// Enforces the exact positional-argument count; extra positionals are a
/// hard error (they used to silently overwrite each other).
void expect_positionals(const ParsedArgs& args, std::size_t count,
                        const char* what) {
  if (args.positionals.size() > count) {
    throw std::runtime_error("unexpected extra argument '" +
                             args.positionals[count] + "' (" + what + ")");
  }
  if (args.positionals.size() < count) {
    throw std::runtime_error(std::string("missing argument: ") + what);
  }
}

/// Applies the shared logging knobs (--log-level, --log-json) on top of
/// whatever QRC_LOG / QRC_LOG_JSON already configured in main().
void apply_log_flags(const ParsedArgs& args) {
  if (const std::string* level = args.single("log-level")) {
    const auto parsed = obs::parse_log_level(*level);
    if (!parsed.has_value()) {
      throw std::runtime_error(
          "--log-level expects debug|info|warn|error|off, got '" + *level +
          "'");
    }
    obs::Logger::instance().set_level(*parsed);
  }
  if (args.single("log-json") != nullptr) {
    obs::Logger::instance().set_json(true);
  }
}

reward::RewardKind parse_reward(const std::string& name) {
  for (const auto kind :
       {reward::RewardKind::kFidelity, reward::RewardKind::kCriticalDepth,
        reward::RewardKind::kCombination, reward::RewardKind::kGateCount,
        reward::RewardKind::kDepth}) {
    if (reward::reward_name(kind) == name) {
      return kind;
    }
  }
  throw std::runtime_error("unknown reward kind '" + name + "'");
}

int cmd_info(int argc, char** argv) {
  const auto args = parse_args(argc, argv, 2, {});
  expect_positionals(args, 0, "info takes no arguments");
  std::printf("devices:\n");
  for (const device::Device* dev : device::all_devices()) {
    std::printf("  %-18s %-9s %3d qubits, %3zu couplers, native:",
                dev->name().c_str(),
                device::platform_name(dev->platform()).data(),
                dev->num_qubits(), dev->coupling().edges().size());
    const ir::GateSet native = device::native_gates(dev->platform());
    for (int k = 0; k < ir::kNumGateKinds; ++k) {
      if (native.contains(static_cast<ir::GateKind>(k))) {
        std::printf(" %s", ir::gate_name(static_cast<ir::GateKind>(k)).data());
      }
    }
    std::printf("\n");
  }
  std::printf("\nactions (%d):\n", core::ActionRegistry::instance().size());
  const auto& registry = core::ActionRegistry::instance();
  for (int i = 0; i < registry.size(); ++i) {
    std::printf("  [%2d] %-12s %s\n", i,
                core::action_type_name(registry.at(i).type()).data(),
                registry.at(i).name().c_str());
  }
  std::printf("\nbenchmark families (%d):", bench::kNumFamilies);
  for (const auto family : bench::all_families()) {
    std::printf(" %s", bench::family_name(family).data());
  }
  std::printf("\n");
  return 0;
}

int cmd_train(int argc, char** argv) {
  const auto args = parse_args(
      argc, argv, 2,
      {"reward", "out", "steps", "count", "min-qubits", "max-qubits",
       "seed", "num-envs", "workers", "log-jsonl", "log-level"},
      {"log-json"});
  expect_positionals(args, 0, "train takes only flags");
  apply_log_flags(args);
  const std::string* reward_flag = args.single("reward");
  const std::string* out_flag = args.single("out");
  if (reward_flag == nullptr || out_flag == nullptr) {
    return usage();
  }
  core::PredictorConfig config;
  config.reward = parse_reward(*reward_flag);
  config.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  config.ppo.total_timesteps = args.get_int("steps", 100000, 1);
  config.ppo.steps_per_update = 2048;
  config.num_envs = args.get_int("num-envs", 1, 1);
  config.rollout_workers = args.get_int("workers", 0, 0);

  const int min_q = args.get_int("min-qubits", 2);
  const int max_q = args.get_int("max-qubits", 20);
  const int count = args.get_int("count", 200);
  std::printf("training '%s' model: %d timesteps on %d circuits "
              "(%d-%d qubits), %d parallel env(s)\n",
              reward::reward_name(config.reward).data(),
              config.ppo.total_timesteps, count, min_q, max_q,
              config.num_envs);
  core::Predictor predictor(config);

  // --log-jsonl PATH streams one JSON object per PPO update to disk; the
  // local registry mirrors the same numbers as qrc_train_* families so a
  // final scrape (or a test) can inspect them. Both are observation-only.
  std::optional<obs::TrainingLogger> jsonl;
  if (const std::string* jsonl_flag = args.single("log-jsonl")) {
    jsonl.emplace(*jsonl_flag);
    if (!jsonl->ok()) {
      std::fprintf(stderr, "cannot write %s\n", jsonl_flag->c_str());
      return 1;
    }
  }
  obs::MetricsRegistry train_registry;
  const auto progress = [&](const rl::PpoUpdateStats& u) {
    if (!jsonl.has_value()) {
      return;
    }
    jsonl->write(
        {{"update", static_cast<double>(u.update_index)},
         {"timesteps", static_cast<double>(u.timesteps)},
         {"episodes", static_cast<double>(u.episodes)},
         {"mean_episode_reward", u.mean_episode_reward},
         {"mean_episode_length", u.mean_episode_length},
         {"policy_loss", u.policy_loss},
         {"value_loss", u.value_loss},
         {"entropy", u.entropy},
         {"approx_kl", u.approx_kl},
         {"clip_fraction", u.clip_fraction},
         {"env_steps_per_sec", u.env_steps_per_sec},
         {"update_duration_us", static_cast<double>(u.update_duration_us)}});
  };
  const auto stats = predictor.train(
      bench::benchmark_suite(min_q, max_q, count), progress, &train_registry);
  std::printf("done: %zu updates, final mean episode reward %.3f\n",
              stats.size(), stats.back().mean_episode_reward);
  if (jsonl.has_value()) {
    std::printf("training curves: %zu update record(s) written to %s\n",
                jsonl->records(), jsonl->path().c_str());
  }

  std::ofstream os(*out_flag);
  if (!os) {
    std::fprintf(stderr, "cannot write %s\n", out_flag->c_str());
    return 1;
  }
  predictor.save(os);
  std::printf("model written to %s\n", out_flag->c_str());
  return 0;
}

ir::Circuit read_qasm_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) {
    throw std::runtime_error("cannot read " + path);
  }
  std::stringstream buffer;
  buffer << is.rdbuf();
  ir::Circuit circuit = ir::from_qasm(buffer.str());
  circuit.set_name(path);
  return circuit;
}

int cmd_compile(int argc, char** argv) {
  const auto args = parse_args(
      argc, argv, 2, {"model", "out", "search", "deadline-ms", "profile-hz"},
      {"verify", "trace", "profile"});
  const std::string* model_flag = args.single("model");
  if (model_flag == nullptr || args.positionals.empty()) {
    return usage();
  }
  expect_positionals(args, 1, "compile takes exactly one circuit.qasm");

  // Every flag is checked before the model or the circuit is read.
  core::CompileOptions options;
  if (args.single("verify") != nullptr) {
    options.verify.emplace();
  }
  if (const std::string* spec = args.single("search")) {
    options.search = search::parse_spec(*spec);
    options.search->deadline_ms = args.get_int("deadline-ms", 0, 0);
  } else if (args.single("deadline-ms") != nullptr) {
    throw std::runtime_error("--deadline-ms requires --search");
  }
  const bool trace = args.single("trace") != nullptr;
  const bool profile = args.single("profile") != nullptr ||
                       args.single("profile-hz") != nullptr;
  const int profile_hz = args.get_int("profile-hz", 97, obs::Profiler::kMinHz,
                                      obs::Profiler::kMaxHz);

  std::ifstream model_is(*model_flag);
  if (!model_is) {
    std::fprintf(stderr, "cannot read model %s\n", model_flag->c_str());
    return 1;
  }
  const auto predictor = core::Predictor::load(model_is);

  const ir::Circuit circuit = read_qasm_file(args.positionals.front());
  std::printf("input: %s\n", circuit.summary().c_str());

  // --trace: make a CLI-local context ambient for the compile (every
  // obs::Stage on the compile path records its span into it), then print
  // the span tree after the result.
  std::optional<obs::TraceContext> trace_ctx;
  int root_span = obs::TraceContext::kNoParent;
  if (trace) {
    trace_ctx.emplace("cli");
    root_span = trace_ctx->begin_span("compile");
    trace_ctx->set_ambient_parent(root_span);
  }

  // --profile: sample the whole compile with the in-process SIGPROF
  // profiler and dump the folded stacks to stderr afterwards (stdout
  // stays the human-readable report).
  if (profile) {
    obs::Profiler::enroll_current_thread();
    if (!obs::Profiler::start(profile_hz)) {
      std::fprintf(stderr, "profiler: could not start (busy?)\n");
    }
  }

  const auto result = [&] {
    std::optional<obs::CurrentTraceScope> scope;
    if (trace_ctx.has_value()) {
      scope.emplace(&*trace_ctx);
    }
    return predictor.compile(circuit, options);
  }();
  if (trace_ctx.has_value()) {
    trace_ctx->end_span(root_span);
  }
  if (profile && obs::Profiler::active()) {
    obs::Profiler::stop();
    const auto pstats = obs::Profiler::stats();
    std::fprintf(stderr,
                 "# profile: %llu samples at %d Hz (%llu dropped, %llu "
                 "pc-only) — folded stacks follow\n",
                 static_cast<unsigned long long>(pstats.retained), profile_hz,
                 static_cast<unsigned long long>(pstats.dropped),
                 static_cast<unsigned long long>(pstats.pc_only));
    std::fputs(obs::Profiler::render_folded().c_str(), stderr);
  }
  std::printf("target: %s\n", result.device->name().c_str());
  std::printf("reward (%s): %.4f%s\n",
              reward::reward_name(predictor.config().reward).data(),
              result.reward, result.used_fallback ? " [fallback]" : "");
  std::printf("flow:");
  for (const auto& a : result.action_trace) {
    std::printf(" %s", a.c_str());
  }
  std::printf("\noutput: %s\n", result.circuit.summary().c_str());
  if (result.search_stats.has_value()) {
    const auto& s = *result.search_stats;
    std::printf(
        "search: %s — %llu nodes, %llu transposition hits, depth %d, "
        "%.1f ms%s\n",
        search::strategy_name(s.strategy).data(),
        static_cast<unsigned long long>(s.nodes_expanded),
        static_cast<unsigned long long>(s.transposition_hits),
        s.depth_reached, static_cast<double>(s.elapsed_us) / 1000.0,
        s.deadline_hit ? " [deadline hit]" : "");
    std::printf("search: reward %+.4f vs greedy %.4f (%s)\n",
                result.reward - s.baseline_reward, s.baseline_reward,
                s.improved ? "improved" : "kept greedy result");
  }
  if (result.verification.has_value()) {
    const auto& v = *result.verification;
    std::printf("verification: %s via %s (confidence %.6f, %d qubits) — %s\n",
                verify::verdict_name(v.verdict).data(),
                verify::method_name(v.method).data(), v.confidence,
                v.checked_qubits, v.detail.c_str());
    if (v.verdict != verify::Verdict::kEquivalent) {
      return v.verdict == verify::Verdict::kNotEquivalent ? 1 : 3;
    }
  }

  if (trace_ctx.has_value()) {
    std::printf("trace:\n%s", trace_ctx->to_text().c_str());
  }

  if (const std::string* out_flag = args.single("out")) {
    std::ofstream os(*out_flag);
    os << ir::to_qasm(result.circuit);
    std::printf("compiled circuit written to %s\n", out_flag->c_str());
  }
  return 0;
}

int cmd_verify(int argc, char** argv) try {
  const auto args = parse_args(argc, argv, 2,
                               {"stimuli", "seed", "max-miter-qubits",
                                "max-stimuli-qubits"});
  if (args.positionals.size() < 2) {
    std::fprintf(stderr, "verify takes two circuit files\n");
    return usage();
  }
  expect_positionals(args, 2, "verify takes exactly two circuit files");

  verify::VerifyOptions options;
  options.num_stimuli = args.get_int("stimuli", options.num_stimuli);
  options.seed = static_cast<std::uint64_t>(
      args.get_int("seed", static_cast<int>(options.seed & 0x7fffffff)));
  options.max_miter_qubits =
      args.get_int("max-miter-qubits", options.max_miter_qubits);
  options.max_stimuli_qubits =
      args.get_int("max-stimuli-qubits", options.max_stimuli_qubits);

  const ir::Circuit a = read_qasm_file(args.positionals[0]);
  const ir::Circuit b = read_qasm_file(args.positionals[1]);
  std::printf("a: %s\nb: %s\n", a.summary().c_str(), b.summary().c_str());

  const verify::EquivalenceChecker checker(options);
  const auto result = checker.check(a, b);
  std::printf("verdict: %s\nmethod: %s\nconfidence: %.6f\nqubits: %d\n"
              "detail: %s\n",
              verify::verdict_name(result.verdict).data(),
              verify::method_name(result.method).data(), result.confidence,
              result.checked_qubits, result.detail.c_str());
  switch (result.verdict) {
    case verify::Verdict::kEquivalent:
      return 0;
    case verify::Verdict::kNotEquivalent:
      return 1;
    case verify::Verdict::kUnknown:
      return 3;
  }
  return 3;
} catch (const std::exception& e) {
  // Operational failures (unreadable file, malformed QASM, bad flags) must
  // be distinguishable from a refutation (exit 1): use the usage code.
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
}

/// Drain target for the SIGINT/SIGTERM handlers while `qrc serve
/// --listen` is up. Written once before the handlers are installed.
net::Server* g_listen_server = nullptr;

extern "C" void handle_drain_signal(int) {
  if (g_listen_server != nullptr) {
    g_listen_server->request_drain();  // async-signal-safe
  }
}

/// Counts from one pump_stdio() run.
struct PumpCounts {
  std::uint64_t sent = 0;
  std::uint64_t frames = 0;
  std::uint64_t partials = 0;
};

/// Pipelines request lines from stdin to the stream socket `fd` without
/// waiting for answers, and prints every frame that comes back (partials
/// included) to stdout as it arrives. Half-closes `fd` at stdin EOF, so
/// the server answers what is in flight and then hangs up; returns after
/// the hang-up.
/// \throws std::runtime_error when either direction of `fd` fails.
PumpCounts pump_stdio(int fd) {
  PumpCounts counts;
  std::exception_ptr read_error;
  std::thread printer([&] {
    try {
      net::LineReader reader(fd);
      while (const auto line = reader.next_line()) {
        std::fputs(line->c_str(), stdout);
        std::fputc('\n', stdout);
        std::fflush(stdout);
        ++counts.frames;
        if (line->find("\"type\":\"partial\"") != std::string::npos) {
          ++counts.partials;
        }
      }
    } catch (...) {
      read_error = std::current_exception();
    }
  });
  try {
    std::string line;
    while (std::getline(std::cin, line)) {
      if (line.find_first_not_of(" \t\r") == std::string::npos) {
        continue;  // blank lines are allowed between requests
      }
      net::send_all(fd, line + "\n");
      ++counts.sent;
    }
  } catch (...) {
    ::shutdown(fd, SHUT_RDWR);  // ends the printer's read so it can join
    printer.join();
    throw;
  }
  ::shutdown(fd, SHUT_WR);
  printer.join();
  if (read_error) {
    std::rethrow_exception(read_error);
  }
  return counts;
}

int cmd_serve(int argc, char** argv) {
  const auto args = parse_args(argc, argv, 2,
                               {"model", "default-model", "max-batch",
                                "max-wait-us", "cache-entries",
                                "max-lane-queue", "listen",
                                "max-frame-bytes", "max-inflight",
                                "max-connections", "metrics-listen",
                                "profile-hz", "log-level"},
                               {"log-json"});
  expect_positionals(args, 0, "serve takes only flags");
  apply_log_flags(args);

  // --profile-hz N: sample the whole serve lifetime and dump folded
  // stacks to stderr at shutdown. While a startup session is running,
  // GET /profilez and the v1 "profile" op report busy (the interval
  // timer is a process-wide resource).
  struct ServeProfile {
    bool started = false;
    int hz = 0;
    ~ServeProfile() {
      if (!started) {
        return;
      }
      obs::Profiler::stop();
      const auto pstats = obs::Profiler::stats();
      std::fprintf(stderr,
                   "# serve profile: %llu samples at %d Hz (%llu dropped, "
                   "%llu pc-only)\n",
                   static_cast<unsigned long long>(pstats.retained), hz,
                   static_cast<unsigned long long>(pstats.dropped),
                   static_cast<unsigned long long>(pstats.pc_only));
      std::fputs(obs::Profiler::render_folded().c_str(), stderr);
    }
  } serve_profile;
  if (args.single("profile-hz") != nullptr) {
    const int hz = args.get_int("profile-hz", 97, obs::Profiler::kMinHz,
                                obs::Profiler::kMaxHz);
    obs::Profiler::enroll_current_thread();
    if (obs::Profiler::start(hz)) {
      serve_profile.started = true;
      serve_profile.hz = hz;
      obs::Logger::instance().logf(obs::LogLevel::kInfo, "serve",
                                   "profiling at %d Hz for the serve "
                                   "lifetime (folded dump at shutdown)",
                                   hz);
    } else {
      std::fprintf(stderr, "profiler: could not start (busy?)\n");
    }
  }
  const auto model_it = args.flags.find("model");
  if (model_it == args.flags.end() || model_it->second.empty()) {
    std::fprintf(stderr,
                 "serve requires at least one --model <name>=<path>\n");
    return usage();
  }

  // One front end: the same net::Server serves TCP connections with
  // --listen, or else the single connection stdin/stdout, pumped over
  // one end of a socketpair.
  net::ServerConfig net_config;
  const std::string* listen = args.single("listen");
  if (listen != nullptr) {
    std::tie(net_config.host, net_config.port) =
        net::parse_host_port(*listen);
    net_config.max_inflight_per_conn =
        static_cast<std::size_t>(args.get_int("max-inflight", 32, 1));
    net_config.max_connections =
        static_cast<std::size_t>(args.get_int("max-connections", 256, 1));
  } else {
    net_config.port = -1;
    for (const char* flag : {"max-inflight", "max-connections"}) {
      if (args.single(flag) != nullptr) {
        throw std::runtime_error(std::string("--") + flag +
                                 " requires --listen (stdin/stdout is a "
                                 "single connection)");
      }
    }
  }
  net_config.max_frame_bytes = static_cast<std::size_t>(args.get_int(
      "max-frame-bytes", static_cast<int>(net_config.max_frame_bytes), 1));
  if (const std::string* metrics = args.single("metrics-listen")) {
    std::tie(net_config.metrics_host, net_config.metrics_port) =
        net::parse_host_port(*metrics);
  }

  service::ServiceConfig config;
  config.max_batch = args.get_int("max-batch", 32);
  config.max_wait_us = args.get_int("max-wait-us", 2000);
  config.cache_entries =
      static_cast<std::size_t>(args.get_int("cache-entries", 1024, 0));
  config.max_lane_queue =
      static_cast<std::size_t>(args.get_int("max-lane-queue", 0, 0));
  if (const std::string* def = args.single("default-model")) {
    config.default_model = *def;
  }
  service::CompileService svc(config);

  for (const std::string& spec : model_it->second) {
    const auto eq = spec.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= spec.size()) {
      throw std::runtime_error("--model expects <name>=<path>, got '" +
                               spec + "'");
    }
    const std::string name = spec.substr(0, eq);
    const std::string path = spec.substr(eq + 1);
    svc.registry().add_from_file(name, path);
    const auto model = svc.registry().at(name);
    obs::Logger::instance().logf(
        obs::LogLevel::kInfo, "serve", "model '%s' <- %s (objective: %s)",
        name.c_str(), path.c_str(),
        reward::reward_name(model->config().reward).data());
  }
  if (!config.default_model.empty() &&
      svc.registry().find(config.default_model) == nullptr) {
    throw std::runtime_error("--default-model '" + config.default_model +
                             "' was not loaded via --model");
  }
  obs::Logger::instance().logf(
      obs::LogLevel::kInfo, "serve",
      "serving %zu model(s): max_batch=%d max_wait_us=%lld "
      "cache_entries=%zu max_lane_queue=%zu",
      svc.registry().size(), config.max_batch,
      static_cast<long long>(config.max_wait_us), config.cache_entries,
      config.max_lane_queue);

  net::Server server(svc, net_config);
  net::Socket stdio_end;
  if (listen == nullptr) {
    auto [server_end, client_end] = net::socket_pair();
    server.add_connection(std::move(server_end));
    stdio_end = std::move(client_end);
  }
  server.start();
  auto& log = obs::Logger::instance();
  if (server.metrics_port() >= 0) {
    log.logf(obs::LogLevel::kInfo, "serve",
             "metrics on http://%s:%d/metrics (plus /healthz /readyz "
             "/statusz /debugz)",
             net_config.metrics_host.c_str(), server.metrics_port());
  }
  if (listen != nullptr) {
    g_listen_server = &server;
    std::signal(SIGINT, handle_drain_signal);
    std::signal(SIGTERM, handle_drain_signal);
    obs::install_sigquit_dump(2);  // SIGQUIT dumps the flight recorder
    log.logf(obs::LogLevel::kInfo, "serve",
             "listening on %s:%d (SIGINT/SIGTERM drains, SIGQUIT dumps "
             "flight recorder)",
             net_config.host.c_str(), server.port());
    server.join();  // exits after a signal-triggered graceful drain
    g_listen_server = nullptr;
    std::signal(SIGINT, SIG_DFL);
    std::signal(SIGTERM, SIG_DFL);
    std::signal(SIGQUIT, SIG_DFL);
  } else {
    (void)pump_stdio(stdio_end.fd());
    server.stop();
  }

  std::string summary;
  std::uint64_t refuted = 0;
  for (const auto& [key, value] : net::read_stats(svc.metrics())) {
    summary += ' ' + std::string(key) + '=' + std::to_string(value);
    if (key == "refuted") {
      refuted = value;
    }
  }
  log.logf(obs::LogLevel::kInfo, "serve", "stats:%s", summary.c_str());
  return refuted > 0 ? 1 : 0;
}

int cmd_client(int argc, char** argv) {
  const auto args = parse_args(argc, argv, 2, {});
  if (args.positionals.size() != 1) {
    std::fprintf(stderr, "client takes exactly one HOST:PORT argument\n");
    return usage();
  }
  const auto [host, port] = net::parse_host_port(args.positionals.front());
  const net::Socket sock = net::connect_tcp(host, port);
  obs::Logger::instance().logf(obs::LogLevel::kInfo, "client",
                               "connected to %s:%d", host.c_str(), port);

  const PumpCounts counts = pump_stdio(sock.fd());
  obs::Logger::instance().logf(
      obs::LogLevel::kInfo, "client",
      "sent %llu request(s), received %llu frame(s) (%llu partial)",
      static_cast<unsigned long long>(counts.sent),
      static_cast<unsigned long long>(counts.frames),
      static_cast<unsigned long long>(counts.partials));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return usage();
  }
  // QRC_LOG / QRC_LOG_JSON configure logging before any subcommand runs;
  // --log-level / --log-json (where accepted) override them afterwards.
  obs::Logger::instance().configure_from_env();
  try {
    if (std::strcmp(argv[1], "info") == 0) {
      return cmd_info(argc, argv);
    }
    if (std::strcmp(argv[1], "train") == 0) {
      return cmd_train(argc, argv);
    }
    if (std::strcmp(argv[1], "compile") == 0) {
      return cmd_compile(argc, argv);
    }
    if (std::strcmp(argv[1], "verify") == 0) {
      return cmd_verify(argc, argv);
    }
    if (std::strcmp(argv[1], "serve") == 0) {
      return cmd_serve(argc, argv);
    }
    if (std::strcmp(argv[1], "client") == 0) {
      return cmd_client(argc, argv);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "unknown subcommand '%s'\n", argv[1]);
  return usage();
}

// The repository benchmark program. One invocation sets up (trains the
// model once per build directory, then loads it), runs one workload on
// inputs drawn from --seed for --seconds, checks every output, and prints
// one JSON result line: the end-to-end metrics of an untraced run
// (--trace 0) or the per-layer metrics of a traced run (--trace 1).
//
//   perfbench --workload corpus-offline|serve-fresh|serve-mixed
//             --seed N --seconds S --trace 0|1 --build-dir DIR
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <vector>

#include "baselines/baselines.hpp"
#include "core/actions.hpp"
#include "device/library.hpp"
#include "inputs.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

struct MetricSpec {
  std::string name;
  std::string unit;
};

/// End-to-end metrics, as named in BENCHMARK.json (which alone holds their
/// bounds): every workload reports every one of them. Latency
/// is not among them: on a shared host the greedy p50 and p95 of the serve
/// workloads moved by 15-70% between runs (the p10 floor itself doubled
/// while other tenants held the cores), past the largest bound a metric
/// may have, so the latencies are per-layer `class.*` figures.
const std::vector<MetricSpec>& end_to_end_specs() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MiB"},
      {"compile_cps", "1/s"},
      {"fidelity_mean", "1"},
      {"beats_baselines_frac", "1"},
  };
  return specs;
}

/// Per-layer metrics of a traced run; a layer a workload does not touch
/// reports zero.
std::vector<MetricSpec> per_layer_specs() {
  std::vector<MetricSpec> specs;
  const auto add = [&specs](const std::string& name, const char* unit) {
    specs.push_back({sanitize_name(name), unit});
  };
  const auto& registry = qrc::core::ActionRegistry::instance();
  for (int id = 0; id < registry.size(); ++id) {
    const auto& action = registry.at(id);
    if (action.type() == qrc::core::ActionType::kPlatformSelection ||
        action.type() == qrc::core::ActionType::kDeviceSelection) {
      continue;
    }
    add("passes." + action.name() + ".calls", "count");
    add("passes." + action.name() + ".busy_ms", "ms");
  }
  add("passes.select.calls", "count");
  add("core.steps", "count");
  add("core.mask.busy_ms", "ms");
  add("core.fallback.calls", "count");
  add("core.fallback.busy_ms", "ms");
  add("core.fallback_frac", "ratio");
  add("core.ledger_coverage_frac", "ratio");
  add("search.calls", "count");
  add("search.nodes_expanded", "count");
  add("search.nodes_per_s", "1/s");
  add("search.policy_evals", "count");
  add("search.transposition_hits", "count");
  add("search.improved_frac", "ratio");
  add("search.deadline_hit_frac", "ratio");
  add("search.reward_delta_mean", "1");
  for (const char* tier :
       {"clifford_tableau", "alternating_miter", "random_stimuli"}) {
    add(std::string("verify.") + tier + ".calls", "count");
    add(std::string("verify.") + tier + ".busy_ms", "ms");
  }
  add("verify.refuted", "count");
  add("verify.unknown", "count");
  add("service.requests", "count");
  add("service.batches", "count");
  add("service.batch_size_mean", "count");
  add("service.cache_hit_frac", "ratio");
  add("service.cache_evictions", "count");
  add("service.shed", "count");
  add("service.partials", "count");
  add("service.latency_p50_ms", "ms");
  add("service.wait_p50_ms", "ms");
  add("net.overhead_p50_ms", "ms");
  add("net.overhead_p99_ms", "ms");
  add("net.frames_in", "count");
  add("net.frames_out", "count");
  add("net.error_frames", "count");
  add("net.bytes_in", "B");
  add("net.bytes_out", "B");
  add("ir.parse.calls", "count");
  add("ir.parse.busy_ms", "ms");
  add("ir.parse.mb_per_s", "MB/s");
  add("ir.emit.busy_ms", "ms");
  add("rl.forward.calls", "count");
  add("rl.forward.rows", "count");
  add("rl.forward.busy_ms", "ms");
  add("features.observe.calls", "count");
  add("features.observe.busy_ms", "ms");
  add("reward.calls", "count");
  add("reward.busy_ms", "ms");
  add("class.greedy_p50_ms", "ms");
  add("class.greedy_p95_ms", "ms");
  add("class.cached_p50_ms", "ms");
  add("class.search_p50_ms", "ms");
  add("class.verify_p50_ms", "ms");
  add("loadgen.capacity_rps", "1/s");
  add("loadgen.sent", "count");
  add("loadgen.completed", "count");
  add("loadgen.max_late_ms", "ms");
  add("trace.overhead_frac", "ratio");
  return specs;
}

bool file_exists(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0;
}

/// Trains the benchmark's model and writes it to `path`.
void train_model(const std::string& path) {
  qrc::core::PredictorConfig config;
  config.reward = qrc::reward::RewardKind::kFidelity;
  config.seed = 1;
  config.ppo.total_timesteps = 32768;
  config.ppo.steps_per_update = 2048;
  config.num_envs = 4;
  std::vector<qrc::ir::Circuit> corpus;
  for (const CircuitSpec& spec : training_draw()) {
    corpus.push_back(build_circuit(spec));
  }
  const auto start = Clock::now();
  qrc::core::Predictor predictor(config);
  predictor.train(corpus);
  std::fprintf(stderr, "perfbench: trained the model in %.1f s\n",
               ms_since(start) / 1000.0);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp);
    predictor.save(os);
    if (!os) {
      throw std::runtime_error("cannot write " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("cannot rename " + tmp);
  }
}

/// Trains the benchmark's model unless this build directory already holds
/// it. Training is deterministic (bitwise-identical model files for a
/// fixed seed and env count), so the model is a build product like the
/// binaries: trained once per checkout, loaded by every run. It trains in
/// a child process, so that its memory does not count in the peak_rss_mb
/// of the run that trains.
std::string ensure_model(const std::string& build_dir) {
  const std::string path = build_dir + "/model-fidelity-32768x4-seed1.txt";
  if (file_exists(path)) {
    return path;
  }
  const pid_t child = ::fork();
  if (child < 0) {
    throw std::runtime_error("fork failed");
  }
  if (child == 0) {
    int code = 0;
    try {
      train_model(path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: %s\n", e.what());
      code = 1;
    }
    ::_exit(code);
  }
  int status = 0;
  if (::waitpid(child, &status, 0) != child || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0 || !file_exists(path)) {
    throw std::runtime_error("training the model failed");
  }
  return path;
}

/// The trained policy and value networks, read from the model file the
/// same way Predictor::load reads them.
qrc::rl::PpoAgent load_agent(const std::string& path, ReplayModel& replay) {
  std::ifstream is(path);
  std::string tag;
  int version = 0;
  int reward = 0;
  int max_steps = 0;
  is >> tag >> version >> reward >> max_steps >> replay.seed;
  if (tag != "qrc_predictor" || version != 1) {
    throw std::runtime_error("unexpected model file header in " + path);
  }
  replay.reward = static_cast<qrc::reward::RewardKind>(reward);
  return qrc::rl::PpoAgent::load(is);
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload corpus-offline|serve-fresh|"
               "serve-mixed --seed N --seconds S --trace 0|1 "
               "--build-dir DIR\n");
  return 2;
}

}  // namespace

qrc::core::Predictor load_predictor(const std::string& path) {
  std::ifstream is(path);
  return qrc::core::Predictor::load(is);
}

bool beats_baselines(const qrc::ir::Circuit& input, double fidelity) {
  const auto& washington =
      qrc::device::get_device(qrc::device::DeviceId::kIbmqWashington);
  const double qiskit = qrc::reward::expected_fidelity(
      qrc::baselines::compile_qiskit_o3_like(input, washington).circuit,
      washington);
  const double tket = qrc::reward::expected_fidelity(
      qrc::baselines::compile_tket_o2_like(input, washington).circuit,
      washington);
  return fidelity >= qiskit && fidelity >= tket;
}

double process_cpu_s(int pid) {
  std::ifstream is("/proc/" + std::to_string(pid) + "/stat");
  std::string stat;
  std::getline(is, stat);
  // Fields after the parenthesised command name: state is field 3, utime
  // and stime are fields 14 and 15, in clock ticks.
  std::istringstream fields(stat.substr(stat.rfind(')') + 2));
  std::string field;
  double ticks = 0.0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i >= 14) {
      ticks += std::stod(field);
    }
  }
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double peak_rss_mb(int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream is(path);
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

std::string trace_path(const Context& ctx) {
  const std::string dir = ctx.build_dir + "/traces";
  ::mkdir(dir.c_str(), 0755);
  return dir + "/" + ctx.workload + "-seed" + std::to_string(ctx.seed) +
         ".jsonl";
}

int run(int argc, char** argv) {
  Context ctx;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return usage();
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      ctx.workload = value;
    } else if (flag == "--seed") {
      ctx.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      ctx.seconds = std::stoi(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        return usage();
      }
      ctx.trace = value == "1";
      have_trace = true;
    } else if (flag == "--build-dir") {
      ctx.build_dir = value;
    } else {
      return usage();
    }
  }
  const bool mixed = ctx.workload == "serve-mixed";
  if ((ctx.workload != "corpus-offline" && ctx.workload != "serve-fresh" &&
       !mixed) ||
      ctx.seconds < 1 || ctx.build_dir.empty() || !have_trace) {
    return usage();
  }

  ctx.model_path = ensure_model(ctx.build_dir);
  const qrc::rl::PpoAgent agent = load_agent(ctx.model_path, ctx.replay);
  ctx.replay.policy = &agent.policy();

  RunOutput out = ctx.workload == "corpus-offline" ? run_corpus(ctx)
                                                   : run_serve(ctx, mixed);

  MetricSet printed;
  bool complete = true;
  if (!ctx.trace) {
    for (const auto& s : end_to_end_specs()) {
      if (!out.metrics.has(s.name)) {
        std::fprintf(stderr, "perfbench: no value for %s\n", s.name.c_str());
        complete = false;
        continue;
      }
      printed.set(s.name, out.metrics.value(s.name), s.unit);
    }
  } else {
    for (const auto& s : per_layer_specs()) {
      printed.set(s.name, out.metrics.value(s.name), s.unit);
    }
  }
  for (const auto& reason : out.checks.reasons()) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", reason.c_str());
  }
  if (!out.invalid.empty()) {
    std::fprintf(stderr, "perfbench: invalid run: %s\n", out.invalid.c_str());
  }
  const bool correct =
      out.checks.failed() == 0 && out.invalid.empty() && complete;
  const std::uint64_t attempted =
      std::max<std::uint64_t>(1, out.checks.attempted());
  std::cout << result_line(correct, attempted, out.checks.failed(), printed)
            << std::endl;
  return correct ? 0 : 1;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}

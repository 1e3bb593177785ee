/// \file experiment_common.hpp
/// \brief Shared harness for the paper-reproduction benches: corpus
///        construction, model training, per-circuit evaluation against the
///        baselines, and table/histogram printers.
///
/// Environment knobs:
///   QRC_TRAIN_STEPS      PPO timesteps per model (default 100000 = paper scale)
///   QRC_EVAL_COUNT       evaluation circuits     (default 200, as the paper)
///   QRC_PAPER_SCALE      =1 forces 100000 timesteps regardless of the above
///   QRC_NUM_ENVS         rollout envs            (default 1)
///   QRC_ROLLOUT_WORKERS  env-stepping threads    (default: one per env)
#pragma once

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string>
#include <thread>
#include <vector>

#include "baselines/baselines.hpp"
#include "bench_suite/benchmarks.hpp"
#include "core/predictor.hpp"
#include "device/library.hpp"
#include "obs/build_info.hpp"
#include "reward/reward.hpp"
#include "rl/mlp.hpp"

namespace qrc::bench_harness {

/// Provenance block stamped into every BENCH_*.json: which build, on which
/// machine, when — so archived result files stay comparable across runs.
inline std::string meta_json() {
  const auto info = obs::build_info();

  char timestamp[32] = "unknown";
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  if (gmtime_r(&now, &tm) != nullptr) {
    std::strftime(timestamp, sizeof(timestamp), "%Y-%m-%dT%H:%M:%SZ", &tm);
  }

  char hostname[256] = "unknown";
  if (gethostname(hostname, sizeof(hostname)) != 0) {
    std::strcpy(hostname, "unknown");
  }
  hostname[sizeof(hostname) - 1] = '\0';

  char out[512];
  std::snprintf(out, sizeof(out),
                "{\"git_sha\": \"%.*s\", \"build_type\": \"%.*s\", "
                "\"compiler\": \"%.*s\", \"timestamp_utc\": \"%s\", "
                "\"hostname\": \"%s\", \"hardware_threads\": %u, "
                "\"simd_kernel\": \"%s\"}",
                static_cast<int>(info.git_sha.size()), info.git_sha.data(),
                static_cast<int>(info.build_type.size()),
                info.build_type.data(),
                static_cast<int>(info.compiler.size()), info.compiler.data(),
                timestamp, hostname, std::thread::hardware_concurrency(),
                rl::simd_kernel_name());
  return out;
}

/// Writes the shared `"meta"` member right after a BENCH_*.json writer's
/// opening brace (callers emit `{\n` first, then this, then their fields).
inline void write_meta(std::FILE* json) {
  std::fprintf(json, "  \"meta\": %s,\n", meta_json().c_str());
}

inline int env_int(const char* name, int fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') {
    return fallback;
  }
  return std::atoi(v);
}

inline int train_steps() {
  if (env_int("QRC_PAPER_SCALE", 0) == 1) {
    return 100000;
  }
  return env_int("QRC_TRAIN_STEPS", 100000);
}

inline int eval_count() { return env_int("QRC_EVAL_COUNT", 200); }

inline int num_envs() { return env_int("QRC_NUM_ENVS", 1); }

inline int rollout_workers() { return env_int("QRC_ROLLOUT_WORKERS", 0); }

/// The paper's corpus: circuits from all 22 families, 2..20 qubits.
inline std::vector<ir::Circuit> make_corpus() {
  return bench::benchmark_suite(2, 20, eval_count());
}

/// One model per reward function, trained on the corpus (the paper trains
/// and evaluates on the same 200 circuits).
inline core::Predictor train_model(reward::RewardKind kind,
                                   const std::vector<ir::Circuit>& corpus,
                                   std::uint64_t seed) {
  core::PredictorConfig config;
  config.reward = kind;
  config.seed = seed;
  config.ppo.total_timesteps = train_steps();
  config.ppo.steps_per_update = 2048;
  config.num_envs = num_envs();
  config.rollout_workers = rollout_workers();
  core::Predictor predictor(config);
  std::printf("# training %s model (%d timesteps, %d env(s))...\n",
              reward::reward_name(kind).data(), train_steps(), num_envs());
  std::fflush(stdout);
  const auto stats = predictor.train(corpus);
  std::printf("# trained: final mean episode reward %.3f over %zu updates\n",
              stats.back().mean_episode_reward, stats.size());
  return predictor;
}

/// Per-circuit evaluation record: rewards of the three compilers under one
/// metric. Baselines are compiled to ibmq_washington per Section IV-B.
struct EvalRecord {
  std::string name;
  std::string family;
  int qubits = 0;
  double rl = 0.0;
  double qiskit = 0.0;
  double tket = 0.0;
  bool rl_fallback = false;
};

inline std::string family_of(const std::string& circuit_name) {
  const auto pos = circuit_name.rfind('_');
  return pos == std::string::npos ? circuit_name : circuit_name.substr(0, pos);
}

inline std::vector<EvalRecord> evaluate_corpus(
    const core::Predictor& predictor, reward::RewardKind metric,
    const std::vector<ir::Circuit>& corpus) {
  const auto& washington =
      device::get_device(device::DeviceId::kIbmqWashington);
  std::vector<EvalRecord> records;
  records.reserve(corpus.size());
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const auto& circuit = corpus[i];
    EvalRecord rec;
    rec.name = circuit.name();
    rec.family = family_of(circuit.name());
    rec.qubits = circuit.num_qubits();

    const auto rl = predictor.compile(circuit);
    rec.rl = predictor.evaluate(rl, metric);
    rec.rl_fallback = rl.used_fallback;

    const auto qiskit = baselines::compile_qiskit_o3_like(
        circuit, washington, 1 + static_cast<std::uint64_t>(i));
    rec.qiskit =
        reward::compute_reward(metric, qiskit.circuit, washington);

    const auto tket = baselines::compile_tket_o2_like(
        circuit, washington, 1 + static_cast<std::uint64_t>(i));
    rec.tket = reward::compute_reward(metric, tket.circuit, washington);

    records.push_back(std::move(rec));
  }
  return records;
}

/// Fig. 3a-c style histogram of reward differences.
inline void print_difference_histogram(const std::vector<EvalRecord>& records,
                                       const char* metric_name) {
  constexpr double kLo = -0.7;
  constexpr double kHi = 0.7;
  constexpr int kBins = 28;
  std::vector<int> vs_qiskit(kBins, 0);
  std::vector<int> vs_tket(kBins, 0);
  const auto bin_of = [&](double d) {
    const double clamped = std::min(kHi - 1e-9, std::max(kLo, d));
    return static_cast<int>((clamped - kLo) / (kHi - kLo) * kBins);
  };
  int better_q = 0;
  int better_t = 0;
  for (const auto& r : records) {
    ++vs_qiskit[static_cast<std::size_t>(bin_of(r.rl - r.qiskit))];
    ++vs_tket[static_cast<std::size_t>(bin_of(r.rl - r.tket))];
    if (r.rl >= r.qiskit - 1e-12) {
      ++better_q;
    }
    if (r.rl >= r.tket - 1e-12) {
      ++better_t;
    }
  }
  const double n = static_cast<double>(records.size());
  std::printf("\n  absolute %s reward difference (RL - baseline):\n",
              metric_name);
  std::printf("  %-16s %-28s %-28s\n", "bin", "vs qiskit-O3", "vs tket-O2");
  for (int b = 0; b < kBins; ++b) {
    const double lo = kLo + (kHi - kLo) * b / kBins;
    const double hi = lo + (kHi - kLo) / kBins;
    const double fq = vs_qiskit[static_cast<std::size_t>(b)] / n;
    const double ft = vs_tket[static_cast<std::size_t>(b)] / n;
    if (fq == 0.0 && ft == 0.0) {
      continue;
    }
    std::string bar_q(static_cast<std::size_t>(fq * 80.0), '#');
    std::string bar_t(static_cast<std::size_t>(ft * 80.0), '*');
    std::printf("  [%+.2f,%+.2f)  %5.3f %-22s %5.3f %-22s\n", lo, hi, fq,
                bar_q.c_str(), ft, bar_t.c_str());
  }
  std::printf("  -> RL >= qiskit-O3 in %.1f%% of cases (paper shape: majority)\n",
              100.0 * better_q / n);
  std::printf("  -> RL >= tket-O2   in %.1f%% of cases\n",
              100.0 * better_t / n);
}

/// Fig. 3d-f style per-family average differences.
inline void print_per_family_averages(const std::vector<EvalRecord>& records,
                                      const char* metric_name) {
  std::printf("\n  average %s reward difference per benchmark family:\n",
              metric_name);
  std::printf("  %-16s %8s %12s %12s\n", "benchmark", "count", "vs qiskit",
              "vs tket");
  for (const auto family : bench::all_families()) {
    const std::string fname(bench::family_name(family));
    double dq = 0.0;
    double dt = 0.0;
    int count = 0;
    for (const auto& r : records) {
      if (r.family == fname) {
        dq += r.rl - r.qiskit;
        dt += r.rl - r.tket;
        ++count;
      }
    }
    if (count == 0) {
      continue;
    }
    std::printf("  %-16s %8d %+12.4f %+12.4f\n", fname.c_str(), count,
                dq / count, dt / count);
  }
  double dq = 0.0;
  double dt = 0.0;
  for (const auto& r : records) {
    dq += r.rl - r.qiskit;
    dt += r.rl - r.tket;
  }
  std::printf("  %-16s %8zu %+12.4f %+12.4f   (paper: positive means)\n",
              "OVERALL", records.size(), dq / static_cast<double>(records.size()),
              dt / static_cast<double>(records.size()));
}

}  // namespace qrc::bench_harness

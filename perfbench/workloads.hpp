// Shared declarations of the three workloads.
#pragma once

#include <cstdint>
#include <string>

#include "core/predictor.hpp"
#include "harness.hpp"
#include "ledger.hpp"

namespace perfbench {

/// Widest input whose compiled result the checks verify directly: at 9-10
/// qubits the miter tier takes seconds per circuit.
inline constexpr int kMaxVerifyQubits = 8;
/// Threads of the worker pool for the work done outside timing (checks,
/// baselines, verification).
inline constexpr int kCheckThreads = 4;

struct Context {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string build_dir;   ///< holds qrc_cli, the trained model, traces
  std::string model_path;  ///< the trained model file
  ReplayModel replay;      ///< the model's seed, objective and policy
};

struct RunOutput {
  MetricSet metrics;
  Checks checks;
  /// Empty when the measurement itself is valid (e.g. the open-loop
  /// generator kept to its schedule).
  std::string invalid;
};

RunOutput run_corpus(const Context& ctx);
/// `mixed` selects serve-mixed, otherwise serve-fresh.
RunOutput run_serve(const Context& ctx, bool mixed);

/// The trained model, loaded from its file.
[[nodiscard]] qrc::core::Predictor load_predictor(const std::string& path);

/// True when a compiled output of expected fidelity `fidelity` is at least
/// as good as both baselines (Qiskit-O3- and TKET-O2-style) compile
/// `input` to on ibmq_washington.
[[nodiscard]] bool beats_baselines(const qrc::ir::Circuit& input,
                                   double fidelity);

/// CPU time (user + system) process `pid` has used so far, in seconds.
[[nodiscard]] double process_cpu_s(int pid);

/// Peak resident set size of process `pid` (0 = this process) in MiB.
[[nodiscard]] double peak_rss_mb(int pid = 0);

/// Path under the build directory for this run's span dump.
[[nodiscard]] std::string trace_path(const Context& ctx);

}  // namespace perfbench

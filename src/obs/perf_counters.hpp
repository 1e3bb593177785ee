/// \file perf_counters.hpp
/// \brief Per-kernel hardware counters via raw `perf_event_open`:
///        cycles, instructions, cache misses and branch misses, read as
///        one event group per thread and accumulated into process-global
///        per-kernel totals. Scrape-time publication derives IPC and
///        miss rates as `qrc_profile_*` metric families.
///
/// Availability is probed once per process: containers and locked-down
/// runners (perf_event_paranoid, seccomp) commonly refuse the syscall,
/// in which case every PerfScope degrades to a clean no-op and
/// `qrc_profile_perf_available` reports 0. The runtime kill switch
/// (`set_perf_enabled`) costs one predictable branch when off.
#pragma once

#include <cstdint>
#include <string_view>

namespace qrc::obs {

class MetricsRegistry;

/// The instrumented kernels: the four dominant compute loops plus the
/// three verifier tiers.
enum class PerfKernel : std::uint8_t {
  kMlpForward = 0,     ///< policy MLP forward_batch (rollout + search leaves)
  kTableauSweep = 1,   ///< Clifford tableau construction sweeps
  kSearchExpand = 2,   ///< beam/search frontier expansion stepping
  kVerifyClifford = 3, ///< verify tier 1: Clifford/Pauli-flow
  kVerifyMiter = 4,    ///< verify tier 2: alternating miter
  kVerifyStimuli = 5,  ///< verify tier 3: random stimuli
  kEnvStep = 6,        ///< greedy rollout stepping: one pass per episode
  kCount = 7,
};

[[nodiscard]] std::string_view perf_kernel_name(PerfKernel kernel);

/// Runtime kill switch (default off — scopes cost one branch until a
/// surface opts in via --profile / serve startup).
[[nodiscard]] bool perf_enabled();
void set_perf_enabled(bool on);

/// True once the first scope successfully opened an event group; false
/// after the probe failed (EPERM/ENOSYS/...). Unknown until first use.
[[nodiscard]] bool perf_available();

/// Cumulative per-kernel totals since process start (or reset).
struct PerfKernelTotals {
  std::uint64_t scopes = 0;        ///< completed PerfScope sections
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t cache_refs = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t branches = 0;
  std::uint64_t branch_misses = 0;
};

[[nodiscard]] PerfKernelTotals perf_kernel_totals(PerfKernel kernel);

/// Zeroes all per-kernel totals (tests).
void reset_perf_totals();

/// RAII section: snapshots the calling thread's counter group on entry
/// and accumulates the delta into `kernel`'s totals on exit. One branch
/// when perf_enabled() is off; a clean no-op when the syscall is
/// unavailable on this host.
class PerfScope {
 public:
  explicit PerfScope(PerfKernel kernel);
  ~PerfScope();
  PerfScope(const PerfScope&) = delete;
  PerfScope& operator=(const PerfScope&) = delete;

 private:
  PerfKernel kernel_;
  bool armed_ = false;
  std::uint64_t begin_[6] = {};
};

/// Publishes `qrc_profile_*` families into `registry` from the current
/// totals: raw gauges per kernel (cycles, instructions, cache/branch
/// misses, scopes), derived FloatGauges (ipc, cache_miss_rate,
/// branch_miss_rate), and `qrc_profile_perf_available`. Called at scrape
/// time so the registry always reflects the latest totals.
void publish_perf_metrics(MetricsRegistry& registry);

}  // namespace qrc::obs

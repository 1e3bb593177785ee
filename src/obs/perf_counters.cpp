#include "obs/perf_counters.hpp"

#include <atomic>
#include <cstring>

#include "obs/metrics.hpp"

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace qrc::obs {
namespace {

constexpr int kNumEvents = 6;  // cycles, instr, cache refs/misses, br/miss

std::atomic<bool> g_perf_enabled{false};
// 0 = unprobed, 1 = available, 2 = unavailable. Probed by the first
// armed scope; once unavailable, later scopes skip the syscall entirely.
std::atomic<int> g_perf_status{0};

struct KernelTotals {
  std::atomic<std::uint64_t> scopes{0};
  std::atomic<std::uint64_t> values[kNumEvents] = {};
};

KernelTotals g_totals[static_cast<int>(PerfKernel::kCount)];

#if defined(__linux__)

/// One per-thread event group (leader = cycles). fds[0] is the group
/// leader; a single read() returns all six values.
struct ThreadGroup {
  int leader = -1;
  int fds[kNumEvents] = {-1, -1, -1, -1, -1, -1};
  bool tried = false;
};

thread_local ThreadGroup t_group;

int open_event(std::uint32_t type, std::uint64_t config, int group_fd) {
  perf_event_attr attr;
  std::memset(&attr, 0, sizeof(attr));
  attr.size = sizeof(attr);
  attr.type = type;
  attr.config = config;
  attr.disabled = group_fd == -1 ? 1 : 0;
  attr.exclude_kernel = 1;  // user-space only: works at paranoid<=2
  attr.exclude_hv = 1;
  attr.read_format = PERF_FORMAT_GROUP;
  attr.inherit = 0;
  const long fd = syscall(__NR_perf_event_open, &attr, 0 /*this thread*/,
                          -1 /*any cpu*/, group_fd, 0UL);
  return static_cast<int>(fd);
}

/// Lazily opens the calling thread's group. Returns true when counting.
bool thread_group_ready() {
  ThreadGroup& g = t_group;
  if (g.leader >= 0) {
    return true;
  }
  if (g.tried) {
    return false;
  }
  g.tried = true;
  if (g_perf_status.load(std::memory_order_relaxed) == 2) {
    return false;  // a prior thread already proved the syscall refused
  }
  static constexpr struct {
    std::uint32_t type;
    std::uint64_t config;
  } kEvents[kNumEvents] = {
      {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES},
      {PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS},
      {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_REFERENCES},
      {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_MISSES},
      {PERF_TYPE_HARDWARE, PERF_COUNT_HW_BRANCH_INSTRUCTIONS},
      {PERF_TYPE_HARDWARE, PERF_COUNT_HW_BRANCH_MISSES},
  };
  for (int i = 0; i < kNumEvents; ++i) {
    const int fd = open_event(kEvents[i].type, kEvents[i].config,
                              i == 0 ? -1 : g.fds[0]);
    if (fd < 0) {
      for (int j = 0; j < i; ++j) {
        close(g.fds[j]);
        g.fds[j] = -1;
      }
      g_perf_status.store(2, std::memory_order_relaxed);
      return false;
    }
    g.fds[i] = fd;
  }
  g.leader = g.fds[0];
  ioctl(g.leader, PERF_EVENT_IOC_RESET, PERF_IOC_FLAG_GROUP);
  ioctl(g.leader, PERF_EVENT_IOC_ENABLE, PERF_IOC_FLAG_GROUP);
  g_perf_status.store(1, std::memory_order_relaxed);
  return true;
}

bool read_group(std::uint64_t out[kNumEvents]) {
  // PERF_FORMAT_GROUP layout: { u64 nr; u64 values[nr]; }.
  std::uint64_t buf[1 + kNumEvents];
  const ssize_t n = read(t_group.leader, buf, sizeof(buf));
  if (n != static_cast<ssize_t>(sizeof(buf)) || buf[0] != kNumEvents) {
    return false;
  }
  for (int i = 0; i < kNumEvents; ++i) {
    out[i] = buf[1 + i];
  }
  return true;
}

#endif  // __linux__

}  // namespace

std::string_view perf_kernel_name(PerfKernel kernel) {
  switch (kernel) {
    case PerfKernel::kMlpForward:
      return "mlp_forward";
    case PerfKernel::kTableauSweep:
      return "tableau_sweep";
    case PerfKernel::kSearchExpand:
      return "search_expand";
    case PerfKernel::kVerifyClifford:
      return "verify_clifford";
    case PerfKernel::kVerifyMiter:
      return "verify_miter";
    case PerfKernel::kVerifyStimuli:
      return "verify_stimuli";
    case PerfKernel::kEnvStep:
      return "env_step";
    case PerfKernel::kCount:
      break;
  }
  return "unknown";
}

bool perf_enabled() {
  return g_perf_enabled.load(std::memory_order_relaxed);
}

void set_perf_enabled(bool on) {
  g_perf_enabled.store(on, std::memory_order_relaxed);
}

bool perf_available() {
  return g_perf_status.load(std::memory_order_relaxed) == 1;
}

PerfKernelTotals perf_kernel_totals(PerfKernel kernel) {
  PerfKernelTotals t;
  const auto& src = g_totals[static_cast<int>(kernel)];
  t.scopes = src.scopes.load(std::memory_order_relaxed);
  t.cycles = src.values[0].load(std::memory_order_relaxed);
  t.instructions = src.values[1].load(std::memory_order_relaxed);
  t.cache_refs = src.values[2].load(std::memory_order_relaxed);
  t.cache_misses = src.values[3].load(std::memory_order_relaxed);
  t.branches = src.values[4].load(std::memory_order_relaxed);
  t.branch_misses = src.values[5].load(std::memory_order_relaxed);
  return t;
}

void reset_perf_totals() {
  for (auto& k : g_totals) {
    k.scopes.store(0, std::memory_order_relaxed);
    for (auto& v : k.values) {
      v.store(0, std::memory_order_relaxed);
    }
  }
}

PerfScope::PerfScope(PerfKernel kernel) : kernel_(kernel) {
  if (!perf_enabled()) {
    return;  // the advertised one-branch cost when the switch is off
  }
#if defined(__linux__)
  if (!thread_group_ready()) {
    return;  // clean skip: syscall refused on this host/runner
  }
  std::uint64_t now[kNumEvents];
  if (!read_group(now)) {
    return;
  }
  for (int i = 0; i < kNumEvents; ++i) {
    begin_[i] = now[i];
  }
  armed_ = true;
#endif
}

PerfScope::~PerfScope() {
  if (!armed_) {
    return;
  }
#if defined(__linux__)
  std::uint64_t now[kNumEvents];
  if (!read_group(now)) {
    return;
  }
  auto& totals = g_totals[static_cast<int>(kernel_)];
  for (int i = 0; i < kNumEvents; ++i) {
    if (now[i] >= begin_[i]) {
      totals.values[i].fetch_add(now[i] - begin_[i],
                                 std::memory_order_relaxed);
    }
  }
  totals.scopes.fetch_add(1, std::memory_order_relaxed);
#endif
}

void publish_perf_metrics(MetricsRegistry& registry) {
  registry
      .gauge("qrc_profile_perf_available",
             "1 when perf_event_open works on this host, 0 after a refused "
             "probe, -1 before the first armed scope")
      .set(g_perf_status.load(std::memory_order_relaxed) == 1
               ? 1
               : (g_perf_status.load(std::memory_order_relaxed) == 2 ? 0
                                                                     : -1));
  registry
      .gauge("qrc_profile_perf_enabled",
             "1 when the per-kernel hardware counter switch is on")
      .set(perf_enabled() ? 1 : 0);
  for (int k = 0; k < static_cast<int>(PerfKernel::kCount); ++k) {
    const auto kernel = static_cast<PerfKernel>(k);
    const PerfKernelTotals t = perf_kernel_totals(kernel);
    const Labels labels = {{"kernel", std::string(perf_kernel_name(kernel))}};
    registry
        .gauge("qrc_profile_scopes_total",
               "completed hardware-counter sections per kernel", labels)
        .set(static_cast<std::int64_t>(t.scopes));
    registry
        .gauge("qrc_profile_cycles_total", "user-space CPU cycles per kernel",
               labels)
        .set(static_cast<std::int64_t>(t.cycles));
    registry
        .gauge("qrc_profile_instructions_total",
               "retired instructions per kernel", labels)
        .set(static_cast<std::int64_t>(t.instructions));
    registry
        .gauge("qrc_profile_cache_misses_total",
               "last-level cache misses per kernel", labels)
        .set(static_cast<std::int64_t>(t.cache_misses));
    registry
        .gauge("qrc_profile_branch_misses_total",
               "mispredicted branches per kernel", labels)
        .set(static_cast<std::int64_t>(t.branch_misses));
    registry
        .float_gauge("qrc_profile_ipc",
                     "instructions per cycle per kernel (0 when unmeasured)",
                     labels)
        .set(t.cycles > 0 ? static_cast<double>(t.instructions) /
                                static_cast<double>(t.cycles)
                          : 0.0);
    registry
        .float_gauge("qrc_profile_cache_miss_rate",
                     "cache misses / cache references per kernel", labels)
        .set(t.cache_refs > 0 ? static_cast<double>(t.cache_misses) /
                                    static_cast<double>(t.cache_refs)
                              : 0.0);
    registry
        .float_gauge("qrc_profile_branch_miss_rate",
                     "branch misses / branches per kernel", labels)
        .set(t.branches > 0 ? static_cast<double>(t.branch_misses) /
                                  static_cast<double>(t.branches)
                            : 0.0);
  }
}

}  // namespace qrc::obs

#include "obs/stage.hpp"

#include <atomic>
#include <cstring>
#include <iterator>

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
constexpr int kNumStages = static_cast<int>(StageId::kCount);

std::atomic<bool> g_perf_enabled{false};
// 0 = unprobed, 1 = available, 2 = unavailable. Probed by the first
// armed Stage; once unavailable, later Stages skip the syscall entirely.
std::atomic<int> g_perf_status{0};

struct Totals {
  std::atomic<std::uint64_t> scopes{0};
  std::atomic<std::uint64_t> values[kNumEvents] = {};
};

Totals g_totals[kNumStages];

/// Innermost traced Stage open on this thread: the parent of the next.
thread_local Stage* t_innermost = nullptr;

#if defined(__linux__)

/// One per-thread event group (leader = cycles). fds[0] is the group
/// leader; a single read() returns all six values.
struct ThreadGroup {
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
  if (g.fds[0] >= 0) {
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
  } kEventTable[kNumEvents] = {
      {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES},
      {PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS},
      {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_REFERENCES},
      {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_MISSES},
      {PERF_TYPE_HARDWARE, PERF_COUNT_HW_BRANCH_INSTRUCTIONS},
      {PERF_TYPE_HARDWARE, PERF_COUNT_HW_BRANCH_MISSES},
  };
  for (int i = 0; i < kNumEvents; ++i) {
    const int fd = open_event(kEventTable[i].type, kEventTable[i].config,
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
  ioctl(g.fds[0], PERF_EVENT_IOC_RESET, PERF_IOC_FLAG_GROUP);
  ioctl(g.fds[0], PERF_EVENT_IOC_ENABLE, PERF_IOC_FLAG_GROUP);
  g_perf_status.store(1, std::memory_order_relaxed);
  return true;
}

bool read_group(std::uint64_t out[kNumEvents]) {
  // PERF_FORMAT_GROUP layout: { u64 nr; u64 values[nr]; }.
  std::uint64_t buf[1 + kNumEvents];
  const ssize_t n = read(t_group.fds[0], buf, sizeof(buf));
  if (n != static_cast<ssize_t>(sizeof(buf)) || buf[0] != kNumEvents) {
    return false;
  }
  for (int i = 0; i < kNumEvents; ++i) {
    out[i] = buf[1 + i];
  }
  return true;
}

#else

bool thread_group_ready() { return false; }
bool read_group(std::uint64_t*) { return false; }

#endif  // __linux__

}  // namespace

std::string_view stage_name(StageId stage) {
  static constexpr std::string_view kNames[] = {
      "rollout",         "search",          "greedy_rollout",
      "policy_forward",  "env_step",        "search_lookahead",
      "leaf_eval",       "search_expand",   "verify_gate",
      "verify_clifford", "verify_miter",    "verify_stimuli",
      "tableau_sweep"};
  static_assert(std::size(kNames) == kNumStages, "one name per stage");
  return kNames[static_cast<int>(stage)];
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

StageTotals stage_totals(StageId stage) {
  const Totals& src = g_totals[static_cast<int>(stage)];
  const auto value = [&](int i) {
    return src.values[i].load(std::memory_order_relaxed);
  };
  return {src.scopes.load(std::memory_order_relaxed),
          value(0),
          value(1),
          value(2),
          value(3),
          value(4),
          value(5)};
}

void reset_stage_totals() {
  for (Totals& t : g_totals) {
    t.scopes.store(0, std::memory_order_relaxed);
    for (auto& v : t.values) {
      v.store(0, std::memory_order_relaxed);
    }
  }
}

Stage::Stage(StageId stage, Histogram* wall_us)
    : stage_(stage), ctx_(TraceContext::current()), wall_us_(wall_us) {
  if (ctx_ != nullptr) {
    outer_ = t_innermost;
    span_ = ctx_->begin_span(stage_name(stage_),
                             outer_ != nullptr && outer_->ctx_ == ctx_
                                 ? outer_->span_
                                 : TraceContext::kAmbientParent);
    t_innermost = this;
  }
  if (perf_enabled() && thread_group_ready()) {
    counting_ = read_group(counters_);
  }
  if (wall_us_ != nullptr) {
    start_ = std::chrono::steady_clock::now();
  }
}

Stage::~Stage() {
  if (wall_us_ != nullptr) {
    wall_us_->observe(static_cast<double>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start_)
            .count()));
  }
  std::uint64_t now[kNumEvents];
  if (counting_ && read_group(now)) {
    Totals& totals = g_totals[static_cast<int>(stage_)];
    for (int i = 0; i < kNumEvents; ++i) {
      if (now[i] >= counters_[i]) {
        totals.values[i].fetch_add(now[i] - counters_[i],
                                   std::memory_order_relaxed);
      }
    }
    totals.scopes.fetch_add(1, std::memory_order_relaxed);
  }
  if (ctx_ != nullptr) {
    ctx_->end_span(span_);
    t_innermost = outer_;
  }
}

void publish_perf_metrics(MetricsRegistry& registry) {
  const int status = g_perf_status.load(std::memory_order_relaxed);
  registry
      .gauge("qrc_profile_perf_available",
             "1 when perf_event_open works on this host, 0 after a refused "
             "probe, -1 before the first armed stage")
      .set(status == 1 ? 1 : (status == 2 ? 0 : -1));
  registry
      .gauge("qrc_profile_perf_enabled",
             "1 when the per-stage hardware counter switch is on")
      .set(perf_enabled() ? 1 : 0);
  const auto ratio = [](std::uint64_t num, std::uint64_t den) {
    return den > 0 ? static_cast<double>(num) / static_cast<double>(den)
                   : 0.0;
  };
  for (int s = 0; s < kNumStages; ++s) {
    const auto stage = static_cast<StageId>(s);
    const StageTotals t = stage_totals(stage);
    const Labels labels = {{"stage", std::string(stage_name(stage))}};
    registry
        .gauge("qrc_profile_scopes_total",
               "completed hardware-counter sections per stage", labels)
        .set(static_cast<std::int64_t>(t.scopes));
    registry
        .gauge("qrc_profile_cycles_total", "user-space CPU cycles per stage",
               labels)
        .set(static_cast<std::int64_t>(t.cycles));
    registry
        .gauge("qrc_profile_instructions_total",
               "retired instructions per stage", labels)
        .set(static_cast<std::int64_t>(t.instructions));
    registry
        .gauge("qrc_profile_cache_misses_total",
               "last-level cache misses per stage", labels)
        .set(static_cast<std::int64_t>(t.cache_misses));
    registry
        .gauge("qrc_profile_branch_misses_total",
               "mispredicted branches per stage", labels)
        .set(static_cast<std::int64_t>(t.branch_misses));
    registry
        .float_gauge("qrc_profile_ipc",
                     "instructions per cycle per stage (0 when unmeasured)",
                     labels)
        .set(ratio(t.instructions, t.cycles));
    registry
        .float_gauge("qrc_profile_cache_miss_rate",
                     "cache misses / cache references per stage", labels)
        .set(ratio(t.cache_misses, t.cache_refs));
    registry
        .float_gauge("qrc_profile_branch_miss_rate",
                     "branch misses / branches per stage", labels)
        .set(ratio(t.branch_misses, t.branches));
  }
}

}  // namespace qrc::obs

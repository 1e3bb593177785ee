/// \file stage.hpp
/// \brief The one instrumentation primitive for a seam: `obs::Stage`, an
///        RAII scope over one of a fixed table of stage names. One Stage
///        gives the seam a trace span, hardware counters and, when handed
///        one, a wall-time histogram observation.
///
/// - Trace: when a TraceContext is ambient on the thread, the Stage opens
///   a span named after the stage, nested under the innermost Stage open
///   on this thread for the same context (or under the context's ambient
///   parent). Untraced, this half costs one TLS load and a branch.
/// - Counters: when the counter switch is on (`set_perf_enabled`) and the
///   host allows `perf_event_open`, the thread's event group (cycles,
///   instructions, cache refs/misses, branches/misses) is read on entry
///   and exit and the delta added to the stage's process-global totals.
///   Availability is probed once per process; containers and locked-down
///   runners commonly refuse the syscall, and then this half is a no-op
///   and `qrc_profile_perf_available` reports 0.
/// - Histogram: a Stage handed a Histogram observes its wall time in
///   microseconds on exit.
#pragma once

#include <chrono>
#include <cstdint>
#include <string_view>

#include "obs/trace.hpp"

namespace qrc::obs {

class Histogram;
class MetricsRegistry;

/// The instrumented seams. stage_name() is both the span name and the
/// `stage` label of the `qrc_profile_*` families.
enum class StageId : std::uint8_t {
  kRollout,          ///< service: one fused greedy rollout of a lane batch
  kSearch,           ///< service: one search slot of a lane batch
  kGreedyRollout,    ///< core: the batched greedy rollout
  kPolicyForward,    ///< core: one batched policy forward per step
  kEnvStep,          ///< core: one step of every live episode
  kSearchLookahead,  ///< search: one search run
  kLeafEval,         ///< search: one batched policy/value evaluation
  kSearchExpand,     ///< search: beam frontier expansion stepping
  kVerifyGate,       ///< verify: the post-compile gate over a batch
  kVerifyClifford,   ///< verify tier 1: Clifford Pauli flow
  kVerifyMiter,      ///< verify tier 2: alternating miter / basis sweep
  kVerifyStimuli,    ///< verify tier 3: random stimuli (dense or sparse)
  kTableauSweep,     ///< clifford: tableau construction sweep
  kCount,
};

[[nodiscard]] std::string_view stage_name(StageId stage);

/// Hardware-counter switch (default off: a Stage then skips the counter
/// half with one branch). Armed by `--profile` / `--profile-hz`.
[[nodiscard]] bool perf_enabled();
void set_perf_enabled(bool on);

/// True once a Stage opened a counter group; false before the first
/// armed Stage and after the probe failed (EPERM/ENOENT/ENOSYS/...).
[[nodiscard]] bool perf_available();

/// Cumulative hardware-counter totals of one stage since process start
/// (or reset).
struct StageTotals {
  std::uint64_t scopes = 0;  ///< completed Stages that read counters
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t cache_refs = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t branches = 0;
  std::uint64_t branch_misses = 0;
};

[[nodiscard]] StageTotals stage_totals(StageId stage);

/// Zeroes every stage's totals (tests).
void reset_stage_totals();

/// One seam's RAII scope (see the file comment). Construct and destroy it
/// on one thread, in scope order: traced Stages nest through a
/// thread-local chain.
class Stage {
 public:
  explicit Stage(StageId stage, Histogram* wall_us = nullptr);
  ~Stage();
  Stage(const Stage&) = delete;
  Stage& operator=(const Stage&) = delete;

  /// Attribute on this stage's span; a no-op when untraced.
  template <typename V>
  void attr(std::string_view key, V value) {
    if (ctx_ != nullptr) ctx_->attr(span_, key, value);
  }

  /// The trace this stage records into (nullptr when untraced) and its
  /// span there: the parent for intervals timed where no Stage can open
  /// a span, such as inside a pool job, recorded with add_span().
  [[nodiscard]] TraceContext* context() const { return ctx_; }
  [[nodiscard]] int span() const { return span_; }

 private:
  static constexpr int kEvents = 6;

  StageId stage_;
  TraceContext* ctx_;
  int span_ = TraceContext::kDropped;
  Stage* outer_ = nullptr;  ///< enclosing traced Stage on this thread
  Histogram* wall_us_;
  std::chrono::steady_clock::time_point start_{};
  bool counting_ = false;
  std::uint64_t counters_[kEvents] = {};
};

/// Publishes the `qrc_profile_*` families into `registry` from the
/// current totals: raw gauges per stage (scopes, cycles, instructions,
/// cache/branch misses), derived FloatGauges (ipc, cache_miss_rate,
/// branch_miss_rate), `qrc_profile_perf_available` and
/// `qrc_profile_perf_enabled`. Called at scrape time.
void publish_perf_metrics(MetricsRegistry& registry);

}  // namespace qrc::obs

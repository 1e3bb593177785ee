/// \file stage.hpp
/// \brief The one instrumentation primitive for a seam: `obs::Stage`, an
///        RAII scope over one of a fixed table of stage names. One Stage
///        gives the seam a trace span and, when handed one, a wall-time
///        histogram observation.
///
/// - Trace: when a TraceContext is ambient on the thread, the Stage opens
///   a span named after the stage, nested under the innermost Stage open
///   on this thread for the same context (or under the context's ambient
///   parent). Untraced, this half costs one TLS load and a branch.
/// - Histogram: a Stage handed a Histogram observes its wall time in
///   microseconds on exit.
#pragma once

#include <chrono>
#include <cstdint>
#include <string_view>

#include "obs/trace.hpp"

namespace qrc::obs {

class Histogram;

/// The instrumented seams. stage_name() is the span name.
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
  TraceContext* ctx_;
  int span_ = TraceContext::kDropped;
  Stage* outer_ = nullptr;  ///< enclosing traced Stage on this thread
  Histogram* wall_us_;
  std::chrono::steady_clock::time_point start_{};
};

}  // namespace qrc::obs

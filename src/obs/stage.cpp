#include "obs/stage.hpp"

#include <iterator>

#include "obs/metrics.hpp"

namespace qrc::obs {
namespace {

/// Innermost traced Stage open on this thread: the parent of the next.
thread_local Stage* t_innermost = nullptr;

}  // namespace

std::string_view stage_name(StageId stage) {
  static constexpr std::string_view kNames[] = {
      "rollout",         "search",          "greedy_rollout",
      "policy_forward",  "env_step",        "search_lookahead",
      "leaf_eval",       "search_expand",   "verify_gate",
      "verify_clifford", "verify_miter",    "verify_stimuli",
      "tableau_sweep"};
  static_assert(std::size(kNames) == static_cast<std::size_t>(StageId::kCount),
                "one name per stage");
  return kNames[static_cast<int>(stage)];
}

Stage::Stage(StageId stage, Histogram* wall_us)
    : ctx_(TraceContext::current()), wall_us_(wall_us) {
  if (ctx_ != nullptr) {
    outer_ = t_innermost;
    span_ = ctx_->begin_span(stage_name(stage),
                             outer_ != nullptr && outer_->ctx_ == ctx_
                                 ? outer_->span_
                                 : TraceContext::kAmbientParent);
    t_innermost = this;
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
  if (ctx_ != nullptr) {
    ctx_->end_span(span_);
    t_innermost = outer_;
  }
}

}  // namespace qrc::obs

/// \file trace.hpp
/// \brief Per-request tracing: a TraceContext allocated at frame decode
///        carries a request id through lanes, the batched rollout core,
///        search, and verify dispatch, recording spans into a bounded
///        buffer renderable as a JSON span tree.
///
/// Spans are recorded only while a trace context is ambient, that is for
/// requests that asked for a trace and for `qrc compile --trace`. Every
/// seam (rollout, policy forward, env step, search, verify tiers, ...) is
/// an `obs::Stage` (stage.hpp), which opens its span here nested under
/// the innermost open Stage; untraced, that costs one TLS load and a
/// branch. Intervals that are not scopes (decode, queue wait, cache
/// lookup) are recorded with add_span().
///
/// Threading: a TraceContext is internally locked, so lane threads and
/// pool workers may append concurrently. The thread-local `current()`
/// pointer makes a context ambient for code (rollout core, search engine)
/// that has no request plumbing of its own. WorkerPool jobs run with no
/// ambient context, so a span tree never depends on the pool's width.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace qrc::obs {

class TraceContext {
 public:
  /// Span id of "no parent" (a root span).
  static constexpr int kNoParent = -1;
  /// Pseudo-id returned when the span buffer is full; all operations on
  /// it are no-ops and the drop is counted.
  static constexpr int kDropped = -2;
  /// Parent argument meaning "the context's ambient parent".
  static constexpr int kAmbientParent = -3;
  static constexpr std::size_t kDefaultMaxSpans = 512;

  explicit TraceContext(std::string request_id,
                        std::size_t max_spans = kDefaultMaxSpans);
  /// Epoch override: span start times are reported relative to `epoch`
  /// (the server uses the frame-decode instant).
  TraceContext(std::string request_id,
               std::chrono::steady_clock::time_point epoch,
               std::size_t max_spans = kDefaultMaxSpans);

  [[nodiscard]] const std::string& request_id() const { return request_id_; }
  [[nodiscard]] std::chrono::steady_clock::time_point epoch() const {
    return epoch_;
  }
  /// Microseconds from the context epoch to `tp` (clamped at 0).
  [[nodiscard]] std::int64_t since_epoch_us(
      std::chrono::steady_clock::time_point tp) const;
  [[nodiscard]] std::int64_t now_us() const;

  /// Opens a span starting now under `parent` (a span id, kNoParent, or
  /// the ambient parent); returns its id (or kDropped when the buffer is
  /// full).
  int begin_span(std::string_view name, int parent = kAmbientParent);
  void end_span(int id);
  /// Records an already-timed span (start/duration in epoch-relative us).
  int add_span(std::string_view name, int parent, std::int64_t start_us,
               std::int64_t duration_us);

  void attr(int id, std::string_view key, std::string_view value);
  void attr(int id, std::string_view key, const char* value);
  void attr(int id, std::string_view key, std::int64_t value);
  void attr(int id, std::string_view key, std::uint64_t value);
  void attr(int id, std::string_view key, int value);
  void attr(int id, std::string_view key, double value);
  void attr(int id, std::string_view key, bool value);

  /// The ambient parent: lets a caller hang all subsequently opened
  /// top-level spans under e.g. the request's root span.
  void set_ambient_parent(int id);

  /// Copies every span of `other` under `parent`, rebasing timestamps
  /// from `other`'s epoch onto this context's. Used to merge a batch-local
  /// detail collector into the per-request trace.
  void adopt(const TraceContext& other, int parent);

  [[nodiscard]] std::uint64_t dropped() const;
  [[nodiscard]] std::size_t span_count() const;

  /// {"id":...,"dropped":N,"spans":[{name,start_us,duration_us,attrs,
  /// children}...]} — children nested, insertion-ordered.
  [[nodiscard]] std::string to_json() const;
  /// Human-readable indented tree for `qrc compile --trace`.
  [[nodiscard]] std::string to_text() const;

  /// Thread-local ambient context consumed by obs::Stage.
  [[nodiscard]] static TraceContext* current();
  static void set_current(TraceContext* ctx);

 private:
  struct Span {
    std::string name;
    int parent = kNoParent;
    std::int64_t start_us = 0;
    std::int64_t duration_us = -1;  // -1 while open
    // Attribute values are stored pre-rendered as JSON.
    std::vector<std::pair<std::string, std::string>> attrs;
  };

  void attr_json(int id, std::string_view key, std::string json_value);

  mutable std::mutex mu_;
  std::string request_id_;
  std::chrono::steady_clock::time_point epoch_;
  std::size_t max_spans_;
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
  int ambient_parent_ = kNoParent;
};

/// RAII setter for the thread-local current(), restoring the previous
/// context on scope exit.
class CurrentTraceScope {
 public:
  explicit CurrentTraceScope(TraceContext* ctx)
      : prev_(TraceContext::current()) {
    TraceContext::set_current(ctx);
  }
  ~CurrentTraceScope() { TraceContext::set_current(prev_); }
  CurrentTraceScope(const CurrentTraceScope&) = delete;
  CurrentTraceScope& operator=(const CurrentTraceScope&) = delete;

 private:
  TraceContext* prev_;
};

}  // namespace qrc::obs

/// \file flight_recorder.hpp
/// \brief Lock-free bounded ring of recent notable events (request
///        summaries, sheds, typed errors, verify refutations, deadline
///        hits, emitted log lines) for post-mortem debugging. The ring is
///        always armed and cheap enough to leave on: recording is a
///        seqlock-style slot write with no allocation and no locks, so it
///        is safe from the service worker threads and the net event loop
///        alike.
///
/// Dump paths, most to least exceptional:
///   - SIGQUIT (install_sigquit_dump): async-signal-context dump using
///     only snprintf + write(2) onto a pre-chosen fd.
///   - Any verify refutation (CompileService::count_verdict) dumps
///     automatically so the evidence isn't overwritten by later traffic.
///   - On demand: the v1 `"op":"debug_dump"` frame and `GET /debugz`
///     serialise a snapshot as JSON.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace qrc::obs {

enum class FlightEventKind : std::uint8_t {
  kLifecycle = 0,   ///< startup/shutdown/drain transitions
  kRequest = 1,     ///< one served request, summarised
  kShed = 2,        ///< admission rejected under overload
  kError = 3,       ///< typed service/protocol error
  kRefutation = 4,  ///< verifier refuted an optimised circuit
  kDeadlineHit = 5, ///< search stopped by its deadline
  kLog = 6,         ///< a line the Logger emitted (tag, message)
};

[[nodiscard]] std::string_view flight_event_kind_name(FlightEventKind kind);

/// One recorded event. Fixed-size payload so slots can be written without
/// allocation (and read from a signal handler).
struct FlightEvent {
  std::uint64_t seq = 0;      ///< global record order, starts at 1
  std::int64_t wall_us = 0;   ///< CLOCK_REALTIME microseconds
  FlightEventKind kind = FlightEventKind::kLifecycle;
  char tag[24] = {};          ///< subsystem, e.g. "service", "net"
  char detail[96] = {};       ///< one-line human summary, truncated
};

/// Fixed-capacity lock-free event ring. Writers claim a slot with one
/// fetch_add and publish with a seqlock marker; readers skip slots that
/// are mid-write or were overwritten during the read. Honors the
/// obs::enabled() kill switch (so bench_obs_overhead's floor measurement
/// covers it too).
class FlightRecorder {
 public:
  static constexpr std::size_t kCapacity = 256;

  /// Process-wide instance — the signal handler has to reach it.
  [[nodiscard]] static FlightRecorder& instance();

  FlightRecorder() = default;
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  void record(FlightEventKind kind, std::string_view tag,
              std::string_view detail);

  /// Consistent copies of the retained events, oldest first. Slots being
  /// overwritten concurrently are skipped, so the result may be shorter
  /// than the number of retained events.
  [[nodiscard]] std::vector<FlightEvent> snapshot() const;

  /// Snapshot rendered as a JSON array (for /debugz and debug_dump).
  [[nodiscard]] std::string dump_json() const;

  /// Writes a human-readable dump to `fd` using only snprintf and
  /// write(2) — callable from a signal handler.
  void dump(int fd) const;

  /// Total events ever recorded (also the latest seq).
  [[nodiscard]] std::uint64_t total() const {
    return next_seq_.load(std::memory_order_relaxed);
  }

  /// Drops all retained events (tests).
  void clear();

 private:
  struct Slot {
    /// 0 = empty, odd = write in progress, even = seq*2 of the resident
    /// event. Readers reject a slot whose marker changed mid-copy.
    std::atomic<std::uint64_t> marker{0};
    FlightEvent event;
  };

  std::atomic<std::uint64_t> next_seq_{0};
  Slot slots_[kCapacity];
};

/// Installs a SIGQUIT handler that dumps FlightRecorder::instance() to
/// `fd` (default stderr). Last call wins; the previous disposition is
/// replaced.
void install_sigquit_dump(int fd = 2);

}  // namespace qrc::obs

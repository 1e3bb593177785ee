/// \file log.hpp
/// \brief Dependency-free structured logging: a process-wide leveled
///        logger with per-subsystem tags, optional JSON line output and a
///        per-site rate limiter. Every emitted line is also recorded in
///        the FlightRecorder as a kLog event (tag and message), which is
///        where /statusz, /debugz and the SIGQUIT dump read recent lines.
///
/// Suppressed calls (below the configured level) cost one relaxed atomic
/// load and a branch, so hot paths may log at debug level unconditionally.
/// Writes to the sink serialise on one mutex: lines never interleave.
/// Configuration comes from set_level()/set_json() (the CLI's
/// --log-level/--log-json) or the QRC_LOG / QRC_LOG_JSON environment
/// variables via configure_from_env().
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

namespace qrc::obs {

enum class LogLevel : std::uint8_t {
  kDebug = 0,
  kInfo = 1,
  kWarn = 2,
  kError = 3,
  kOff = 4,  ///< threshold only; not a level messages are emitted at
};

[[nodiscard]] std::string_view log_level_name(LogLevel level);
/// "debug"/"info"/"warn"/"error"/"off" -> level; nullopt on anything else.
[[nodiscard]] std::optional<LogLevel> parse_log_level(std::string_view name);

/// The process-wide logger. All mutation is thread-safe; the level/json
/// checks on the emit path are relaxed atomics.
class Logger {
 public:
  [[nodiscard]] static Logger& instance();

  Logger() = default;
  Logger(const Logger&) = delete;
  Logger& operator=(const Logger&) = delete;

  void set_level(LogLevel level) {
    level_.store(static_cast<std::uint8_t>(level),
                 std::memory_order_relaxed);
  }
  [[nodiscard]] LogLevel level() const {
    return static_cast<LogLevel>(level_.load(std::memory_order_relaxed));
  }
  void set_json(bool on) { json_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool json() const {
    return json_.load(std::memory_order_relaxed);
  }
  /// Where emitted lines are written (default 2 = stderr). Tests point
  /// this at a pipe/file; -1 records in the flight recorder only.
  void set_sink_fd(int fd) { sink_fd_.store(fd, std::memory_order_relaxed); }
  [[nodiscard]] int sink_fd() const {
    return sink_fd_.load(std::memory_order_relaxed);
  }

  /// Applies QRC_LOG (level name) and QRC_LOG_JSON (=1) when set; unknown
  /// QRC_LOG values are ignored (a typo must not silence the process).
  void configure_from_env();

  [[nodiscard]] bool should_log(LogLevel level) const {
    return static_cast<std::uint8_t>(level) >=
               level_.load(std::memory_order_relaxed) &&
           level != LogLevel::kOff;
  }

  /// Emits one line (formats, writes to the sink fd, records a kLog
  /// flight event). Returns whether the line was emitted.
  bool log(LogLevel level, std::string_view tag, std::string_view message);

  /// printf-style convenience over log().
  [[gnu::format(printf, 4, 5)]] bool logf(LogLevel level,
                                          std::string_view tag,
                                          const char* fmt, ...);

  /// log() bounded to `max_per_sec` emissions per second per (tag, key)
  /// site; the surplus is counted in suppressed() and dropped. Use for
  /// per-request diagnostics that must not flood under load.
  bool log_rate_limited(LogLevel level, std::string_view tag,
                        std::string_view key, int max_per_sec,
                        std::string_view message);

  [[nodiscard]] std::uint64_t emitted() const {
    return emitted_.load(std::memory_order_relaxed);
  }
  /// Lines dropped by the rate limiter (level-suppressed calls are not
  /// counted — they are the normal fast path, not lost telemetry).
  [[nodiscard]] std::uint64_t rate_limited() const {
    return rate_limited_.load(std::memory_order_relaxed);
  }

  /// Clears the rate-limiter buckets (tests).
  void clear();

 private:
  std::atomic<std::uint8_t> level_{
      static_cast<std::uint8_t>(LogLevel::kInfo)};
  std::atomic<bool> json_{false};
  std::atomic<int> sink_fd_{2};
  std::atomic<std::uint64_t> emitted_{0};
  std::atomic<std::uint64_t> rate_limited_{0};

  struct RateBucket {
    std::int64_t window_start_ms = 0;
    int count = 0;
  };

  mutable std::mutex mu_;  // rate buckets, write ordering
  std::map<std::string, RateBucket, std::less<>> buckets_;
};

// Free-function shorthands over Logger::instance().
inline bool log_debug(std::string_view tag, std::string_view message) {
  return Logger::instance().log(LogLevel::kDebug, tag, message);
}
inline bool log_info(std::string_view tag, std::string_view message) {
  return Logger::instance().log(LogLevel::kInfo, tag, message);
}
inline bool log_warn(std::string_view tag, std::string_view message) {
  return Logger::instance().log(LogLevel::kWarn, tag, message);
}
inline bool log_error(std::string_view tag, std::string_view message) {
  return Logger::instance().log(LogLevel::kError, tag, message);
}

}  // namespace qrc::obs

#include "obs/log.hpp"

#include <unistd.h>

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <ctime>

#include "obs/flight_recorder.hpp"
#include "util/json.hpp"

namespace qrc::obs {

namespace {

/// Wall clock in milliseconds (rate-limit windows) and a formatted UTC
/// timestamp for line prefixes.
std::int64_t wall_ms() {
  timespec ts{};
  clock_gettime(CLOCK_REALTIME, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000 + ts.tv_nsec / 1000000;
}

void format_timestamp(char* buf, std::size_t n) {
  timespec ts{};
  clock_gettime(CLOCK_REALTIME, &ts);
  tm tm_utc{};
  gmtime_r(&ts.tv_sec, &tm_utc);
  const auto ms = static_cast<int>(ts.tv_nsec / 1000000);
  std::snprintf(buf, n, "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ",
                tm_utc.tm_year + 1900, tm_utc.tm_mon + 1, tm_utc.tm_mday,
                tm_utc.tm_hour, tm_utc.tm_min, tm_utc.tm_sec, ms);
}

void write_all(int fd, std::string_view line) {
  std::size_t off = 0;
  while (off < line.size()) {
    const ssize_t n = ::write(fd, line.data() + off, line.size() - off);
    if (n <= 0) return;  // sink gone; drop silently, the recorder has it
    off += static_cast<std::size_t>(n);
  }
}

}  // namespace

std::string_view log_level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "debug";
    case LogLevel::kInfo: return "info";
    case LogLevel::kWarn: return "warn";
    case LogLevel::kError: return "error";
    case LogLevel::kOff: return "off";
  }
  return "?";
}

std::optional<LogLevel> parse_log_level(std::string_view name) {
  if (name == "debug") return LogLevel::kDebug;
  if (name == "info") return LogLevel::kInfo;
  if (name == "warn" || name == "warning") return LogLevel::kWarn;
  if (name == "error") return LogLevel::kError;
  if (name == "off" || name == "none") return LogLevel::kOff;
  return std::nullopt;
}

Logger& Logger::instance() {
  static Logger logger;
  return logger;
}

void Logger::configure_from_env() {
  if (const char* level = std::getenv("QRC_LOG")) {
    if (const auto parsed = parse_log_level(level)) set_level(*parsed);
  }
  if (const char* json = std::getenv("QRC_LOG_JSON")) {
    set_json(json[0] != '\0' && json[0] != '0');
  }
}

bool Logger::log(LogLevel level, std::string_view tag,
                 std::string_view message) {
  if (!should_log(level)) return false;

  char stamp[40];
  format_timestamp(stamp, sizeof(stamp));

  std::string line;
  line.reserve(64 + tag.size() + message.size());
  if (json_.load(std::memory_order_relaxed)) {
    line += "{\"ts\":\"";
    line += stamp;
    line += "\",\"level\":\"";
    line += log_level_name(level);
    line += "\",\"tag\":";
    line += util::json_quote(tag);
    line += ",\"msg\":";
    line += util::json_quote(message);
    line += "}\n";
  } else {
    line += stamp;
    line += ' ';
    line += log_level_name(level);
    line += " [";
    line += tag;
    line += "] ";
    line += message;
    line += '\n';
  }

  const int fd = sink_fd_.load(std::memory_order_relaxed);
  if (fd >= 0) {
    const std::lock_guard<std::mutex> lock(mu_);
    write_all(fd, line);
  }
  FlightRecorder::instance().record(FlightEventKind::kLog, tag, message);
  emitted_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool Logger::logf(LogLevel level, std::string_view tag, const char* fmt,
                  ...) {
  if (!should_log(level)) return false;
  char buf[1024];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return log(level, tag, buf);
}

bool Logger::log_rate_limited(LogLevel level, std::string_view tag,
                              std::string_view key, int max_per_sec,
                              std::string_view message) {
  if (!should_log(level)) return false;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    std::string bucket_key;
    bucket_key.reserve(tag.size() + 1 + key.size());
    bucket_key.append(tag);
    bucket_key += '/';
    bucket_key.append(key);
    RateBucket& bucket = buckets_[bucket_key];
    const std::int64_t now = wall_ms();
    if (now - bucket.window_start_ms >= 1000) {
      bucket.window_start_ms = now;
      bucket.count = 0;
    }
    if (bucket.count >= max_per_sec) {
      rate_limited_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    ++bucket.count;
  }
  return log(level, tag, message);
}

void Logger::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  buckets_.clear();
}

}  // namespace qrc::obs

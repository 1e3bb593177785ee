#include "obs/flight_recorder.hpp"

#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <ctime>

#include "obs/metrics.hpp"
#include "util/json.hpp"

namespace qrc::obs {

namespace {

std::int64_t wall_us() {
  timespec ts{};
  clock_gettime(CLOCK_REALTIME, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000 + ts.tv_nsec / 1000;
}

/// Bounded copy into a fixed char field, always NUL-terminated. A cut
/// that would split a multi-byte UTF-8 sequence moves back to its lead
/// byte, so the field stays valid UTF-8 when `src` is.
template <std::size_t N>
void copy_field(char (&dst)[N], std::string_view src) {
  std::size_t n = std::min(src.size(), N - 1);
  while (n < src.size() && n > 0 &&
         (static_cast<unsigned char>(src[n]) & 0xC0) == 0x80) {
    --n;
  }
  std::memcpy(dst, src.data(), n);
  dst[n] = '\0';
}

int g_sigquit_fd = 2;

extern "C" void sigquit_dump_handler(int) {
  FlightRecorder::instance().dump(g_sigquit_fd);
}

}  // namespace

std::string_view flight_event_kind_name(FlightEventKind kind) {
  switch (kind) {
    case FlightEventKind::kLifecycle: return "lifecycle";
    case FlightEventKind::kRequest: return "request";
    case FlightEventKind::kShed: return "shed";
    case FlightEventKind::kError: return "error";
    case FlightEventKind::kRefutation: return "refutation";
    case FlightEventKind::kDeadlineHit: return "deadline_hit";
    case FlightEventKind::kLog: return "log";
  }
  return "?";
}

FlightRecorder& FlightRecorder::instance() {
  static FlightRecorder recorder;
  return recorder;
}

void FlightRecorder::record(FlightEventKind kind, std::string_view tag,
                            std::string_view detail) {
  if (!enabled()) return;
  const std::uint64_t seq =
      next_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  Slot& slot = slots_[(seq - 1) % kCapacity];
  // Seqlock publish: odd marker while the payload is in flux, even
  // (seq * 2) once the event is resident.
  slot.marker.store(seq * 2 - 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  slot.event.seq = seq;
  slot.event.wall_us = wall_us();
  slot.event.kind = kind;
  copy_field(slot.event.tag, tag);
  copy_field(slot.event.detail, detail);
  slot.marker.store(seq * 2, std::memory_order_release);
}

std::vector<FlightEvent> FlightRecorder::snapshot() const {
  std::vector<FlightEvent> out;
  out.reserve(kCapacity);
  for (const Slot& slot : slots_) {
    const std::uint64_t before = slot.marker.load(std::memory_order_acquire);
    if (before == 0 || (before & 1) != 0) continue;  // empty or mid-write
    FlightEvent copy = slot.event;
    std::atomic_thread_fence(std::memory_order_acquire);
    const std::uint64_t after = slot.marker.load(std::memory_order_relaxed);
    if (after != before) continue;  // overwritten during the copy
    out.push_back(copy);
  }
  std::sort(out.begin(), out.end(),
            [](const FlightEvent& a, const FlightEvent& b) {
              return a.seq < b.seq;
            });
  return out;
}

std::string FlightRecorder::dump_json() const {
  const std::vector<FlightEvent> events = snapshot();
  std::string out = "[";
  bool first = true;
  for (const FlightEvent& ev : events) {
    if (!first) out += ',';
    first = false;
    char head[96];
    std::snprintf(head, sizeof(head),
                  "{\"seq\":%llu,\"wall_us\":%lld,\"kind\":\"",
                  static_cast<unsigned long long>(ev.seq),
                  static_cast<long long>(ev.wall_us));
    out += head;
    out += flight_event_kind_name(ev.kind);
    out += "\",\"tag\":";
    out += util::json_quote(ev.tag);
    out += ",\"detail\":";
    out += util::json_quote(ev.detail);
    out += '}';
  }
  out += ']';
  return out;
}

void FlightRecorder::dump(int fd) const {
  // Signal-handler path: fixed buffers, snprintf, write(2) — nothing else.
  char buf[256];
  int n = std::snprintf(buf, sizeof(buf),
                        "=== qrc flight recorder (%llu events total) ===\n",
                        static_cast<unsigned long long>(
                            next_seq_.load(std::memory_order_relaxed)));
  if (n > 0) (void)!::write(fd, buf, static_cast<std::size_t>(n));
  // Oldest-first: start just past the most recent slot and walk forward.
  const std::uint64_t total = next_seq_.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < kCapacity; ++i) {
    const std::size_t idx = (total + i) % kCapacity;
    const Slot& slot = slots_[idx];
    const std::uint64_t before = slot.marker.load(std::memory_order_acquire);
    if (before == 0 || (before & 1) != 0) continue;
    const FlightEvent& ev = slot.event;
    n = std::snprintf(buf, sizeof(buf), "#%llu +%lld.%06llds %s [%s] %s\n",
                      static_cast<unsigned long long>(ev.seq),
                      static_cast<long long>(ev.wall_us / 1000000),
                      static_cast<long long>(ev.wall_us % 1000000),
                      flight_event_kind_name(ev.kind).data(), ev.tag,
                      ev.detail);
    if (n > 0) (void)!::write(fd, buf, static_cast<std::size_t>(n));
  }
  n = std::snprintf(buf, sizeof(buf), "=== end flight recorder ===\n");
  if (n > 0) (void)!::write(fd, buf, static_cast<std::size_t>(n));
}

void FlightRecorder::clear() {
  for (Slot& slot : slots_) {
    slot.marker.store(0, std::memory_order_relaxed);
  }
  next_seq_.store(0, std::memory_order_relaxed);
}

void install_sigquit_dump(int fd) {
  g_sigquit_fd = fd;
  std::signal(SIGQUIT, sigquit_dump_handler);
}

}  // namespace qrc::obs

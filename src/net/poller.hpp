/// \file poller.hpp
/// \brief Readiness-notification abstraction for the serve event loop:
///        epoll on Linux, poll(2) elsewhere, picked at build time.
#pragma once

#include <memory>
#include <vector>

namespace qrc::net {

/// One readiness report from Poller::wait().
struct PollEvent {
  int fd = -1;
  bool readable = false;
  bool writable = false;
  /// Error/hangup on the fd; the owner should tear the connection down.
  bool closed = false;
};

/// Level-triggered readiness interface. Not thread-safe: all calls must
/// come from the single event-loop thread that owns it.
class Poller {
 public:
  virtual ~Poller() = default;

  /// Registers `fd` (or updates its interest set if already registered).
  virtual void set(int fd, bool want_read, bool want_write) = 0;

  /// Deregisters `fd`; must be called before the fd is closed.
  virtual void remove(int fd) = 0;

  /// Blocks up to `timeout_ms` (-1 = indefinitely) and appends ready fds
  /// to `out` (which is cleared first). Returns the number of events.
  virtual int wait(std::vector<PollEvent>& out, int timeout_ms) = 0;
};

/// The platform's backend: epoll on Linux, poll(2) elsewhere.
[[nodiscard]] std::unique_ptr<Poller> make_poller();

}  // namespace qrc::net

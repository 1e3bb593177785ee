/// \file poller.hpp
/// \brief Readiness notification for the serve event loop: a thin
///        level-triggered epoll wrapper.
#pragma once

#include <unordered_set>
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

/// Level-triggered epoll set. Not thread-safe: all calls must come from
/// the single event-loop thread that owns it.
class Poller {
 public:
  /// \throws std::runtime_error when the epoll instance cannot be created.
  Poller();
  ~Poller();
  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;

  /// Registers `fd` (or updates its interest set if already registered).
  void set(int fd, bool want_read, bool want_write);

  /// Deregisters `fd`; must be called before the fd is closed.
  void remove(int fd);

  /// Blocks up to `timeout_ms` (-1 = indefinitely) and appends ready fds
  /// to `out` (which is cleared first). Returns the number of events.
  int wait(std::vector<PollEvent>& out, int timeout_ms);

 private:
  int epfd_;
  // epoll_ctl needs ADD vs MOD picked correctly; track membership here.
  std::unordered_set<int> registered_;
};

}  // namespace qrc::net

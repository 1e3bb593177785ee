#include "net/poller.hpp"

#include <sys/epoll.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string>

namespace qrc::net {

Poller::Poller() : epfd_(::epoll_create1(EPOLL_CLOEXEC)) {
  if (epfd_ < 0) {
    throw std::runtime_error(std::string("epoll_create1: ") +
                             std::strerror(errno));
  }
}

Poller::~Poller() { ::close(epfd_); }

void Poller::set(int fd, bool want_read, bool want_write) {
  epoll_event ev{};
  ev.data.fd = fd;
  ev.events = (want_read ? EPOLLIN : 0u) | (want_write ? EPOLLOUT : 0u);
  const bool known = registered_.count(fd) > 0;
  const int op = known ? EPOLL_CTL_MOD : EPOLL_CTL_ADD;
  if (::epoll_ctl(epfd_, op, fd, &ev) != 0) {
    throw std::runtime_error(std::string("epoll_ctl: ") +
                             std::strerror(errno));
  }
  registered_.insert(fd);
}

void Poller::remove(int fd) {
  if (registered_.erase(fd) > 0) {
    ::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr);
  }
}

int Poller::wait(std::vector<PollEvent>& out, int timeout_ms) {
  out.clear();
  epoll_event events[64];
  const int n = ::epoll_wait(epfd_, events, 64, timeout_ms);
  if (n < 0) {
    if (errno == EINTR) {
      return 0;
    }
    throw std::runtime_error(std::string("epoll_wait: ") +
                             std::strerror(errno));
  }
  for (int i = 0; i < n; ++i) {
    PollEvent e;
    e.fd = events[i].data.fd;
    e.readable = (events[i].events & EPOLLIN) != 0;
    e.writable = (events[i].events & EPOLLOUT) != 0;
    e.closed = (events[i].events & (EPOLLERR | EPOLLHUP)) != 0;
    out.push_back(e);
  }
  return n;
}

}  // namespace qrc::net

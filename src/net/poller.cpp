#include "net/poller.hpp"

#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#ifdef __linux__
#include <sys/epoll.h>
#endif

namespace qrc::net {

namespace {

#ifdef __linux__
class EpollPoller final : public Poller {
 public:
  EpollPoller() : epfd_(::epoll_create1(EPOLL_CLOEXEC)) {
    if (epfd_ < 0) {
      throw std::runtime_error(std::string("epoll_create1: ") +
                               std::strerror(errno));
    }
  }
  ~EpollPoller() override { ::close(epfd_); }

  void set(int fd, bool want_read, bool want_write) override {
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

  void remove(int fd) override {
    if (registered_.erase(fd) > 0) {
      ::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr);
    }
  }

  int wait(std::vector<PollEvent>& out, int timeout_ms) override {
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

 private:
  int epfd_;
  // epoll_ctl needs ADD vs MOD picked correctly; track membership here.
  std::unordered_set<int> registered_;
};
#endif  // __linux__

// Compiled on every platform so it cannot rot where epoll wins.
class PollPoller final : public Poller {
 public:
  void set(int fd, bool want_read, bool want_write) override {
    short events = 0;
    if (want_read) {
      events |= POLLIN;
    }
    if (want_write) {
      events |= POLLOUT;
    }
    interest_[fd] = events;
  }

  void remove(int fd) override { interest_.erase(fd); }

  int wait(std::vector<PollEvent>& out, int timeout_ms) override {
    out.clear();
    pollfds_.clear();
    for (const auto& [fd, events] : interest_) {
      pollfds_.push_back(pollfd{fd, events, 0});
    }
    const int n = ::poll(pollfds_.data(),
                         static_cast<nfds_t>(pollfds_.size()), timeout_ms);
    if (n < 0) {
      if (errno == EINTR) {
        return 0;
      }
      throw std::runtime_error(std::string("poll: ") +
                               std::strerror(errno));
    }
    for (const pollfd& p : pollfds_) {
      if (p.revents == 0) {
        continue;
      }
      PollEvent e;
      e.fd = p.fd;
      e.readable = (p.revents & POLLIN) != 0;
      e.writable = (p.revents & POLLOUT) != 0;
      e.closed = (p.revents & (POLLERR | POLLHUP | POLLNVAL)) != 0;
      out.push_back(e);
    }
    return static_cast<int>(out.size());
  }

 private:
  std::unordered_map<int, short> interest_;
  std::vector<pollfd> pollfds_;  // scratch, rebuilt per wait
};

}  // namespace

std::unique_ptr<Poller> make_poller() {
#ifdef __linux__
  return std::make_unique<EpollPoller>();
#else
  return std::make_unique<PollPoller>();
#endif
}

}  // namespace qrc::net

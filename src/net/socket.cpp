#include "net/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace qrc::net {

namespace {

[[noreturn]] void fail_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

/// getaddrinfo wrapper shared by listen/connect; returns an owned result
/// list (freed by the caller via freeaddrinfo).
addrinfo* resolve(const std::string& host, int port, bool passive) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = passive ? AI_PASSIVE : 0;
  addrinfo* result = nullptr;
  const std::string service = std::to_string(port);
  const int rc = ::getaddrinfo(host.empty() ? nullptr : host.c_str(),
                               service.c_str(), &hints, &result);
  if (rc != 0) {
    throw std::runtime_error("cannot resolve '" + host +
                             "': " + gai_strerror(rc));
  }
  return result;
}

}  // namespace

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

std::pair<std::string, int> parse_host_port(const std::string& spec) {
  const auto colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 >= spec.size()) {
    throw std::runtime_error("expected HOST:PORT, got '" + spec + "'");
  }
  const std::string port_text = spec.substr(colon + 1);
  std::size_t end = 0;
  int port = 0;
  try {
    port = std::stoi(port_text, &end);
  } catch (const std::exception&) {
    end = 0;
  }
  if (end != port_text.size() || port < 0 || port > 65535) {
    throw std::runtime_error("bad port '" + port_text + "' in '" + spec +
                             "'");
  }
  return {spec.substr(0, colon), port};
}

Socket listen_tcp(const std::string& host, int port) {
  addrinfo* addrs = resolve(host, port, /*passive=*/true);
  std::string last_error = "no addresses";
  for (const addrinfo* a = addrs; a != nullptr; a = a->ai_next) {
    Socket sock(::socket(a->ai_family,
                         a->ai_socktype | SOCK_NONBLOCK | SOCK_CLOEXEC,
                         a->ai_protocol));
    if (!sock.valid()) {
      last_error = std::strerror(errno);
      continue;
    }
    const int one = 1;
    ::setsockopt(sock.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(sock.fd(), a->ai_addr, a->ai_addrlen) != 0 ||
        ::listen(sock.fd(), SOMAXCONN) != 0) {
      last_error = std::strerror(errno);
      continue;
    }
    ::freeaddrinfo(addrs);
    return sock;
  }
  ::freeaddrinfo(addrs);
  throw std::runtime_error("cannot listen on " + host + ":" +
                           std::to_string(port) + ": " + last_error);
}

int local_port(int fd) {
  sockaddr_storage addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    fail_errno("getsockname");
  }
  if (addr.ss_family == AF_INET) {
    return ntohs(reinterpret_cast<const sockaddr_in*>(&addr)->sin_port);
  }
  if (addr.ss_family == AF_INET6) {
    return ntohs(reinterpret_cast<const sockaddr_in6*>(&addr)->sin6_port);
  }
  throw std::runtime_error("local_port: unsupported address family");
}

Socket connect_tcp(const std::string& host, int port) {
  addrinfo* addrs = resolve(host, port, /*passive=*/false);
  std::string last_error = "no addresses";
  for (const addrinfo* a = addrs; a != nullptr; a = a->ai_next) {
    Socket sock(::socket(a->ai_family, a->ai_socktype | SOCK_CLOEXEC,
                         a->ai_protocol));
    if (!sock.valid()) {
      last_error = std::strerror(errno);
      continue;
    }
    if (::connect(sock.fd(), a->ai_addr, a->ai_addrlen) != 0) {
      last_error = std::strerror(errno);
      continue;
    }
    ::freeaddrinfo(addrs);
    return sock;
  }
  ::freeaddrinfo(addrs);
  throw std::runtime_error("cannot connect to " + host + ":" +
                           std::to_string(port) + ": " + last_error);
}

std::pair<Socket, Socket> socket_pair() {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) != 0) {
    fail_errno("socketpair");
  }
  return {Socket(fds[0]), Socket(fds[1])};
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    fail_errno("fcntl(O_NONBLOCK)");
  }
}

void send_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      fail_errno("send");
    }
    sent += static_cast<std::size_t>(n);
  }
}

std::optional<std::string> LineReader::next_line() {
  for (;;) {
    const auto newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      std::string line = buffer_.substr(0, newline);
      buffer_.erase(0, newline + 1);
      if (!line.empty() && line.back() == '\r') {
        line.pop_back();
      }
      return line;
    }
    if (eof_) {
      return std::nullopt;  // trailing partial line is dropped on EOF
    }
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      fail_errno("recv");
    }
    if (n == 0) {
      eof_ = true;
      continue;
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

}  // namespace qrc::net

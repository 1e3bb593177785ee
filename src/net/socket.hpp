/// \file socket.hpp
/// \brief Thin POSIX TCP helpers for the serve layer: an owning fd
///        wrapper, non-blocking listener setup, blocking client connects,
///        and a buffered line reader for clients/tests. No protocol
///        knowledge lives here — the wire codecs stay in service/jsonl
///        and JSON in util/json.
#pragma once

#include <optional>
#include <string>
#include <utility>

namespace qrc::net {

/// Owning file-descriptor handle; closes on destruction. Movable only.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close(); }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  Socket(Socket&& other) noexcept : fd_(other.release()) {}
  Socket& operator=(Socket&& other) noexcept {
    if (this != &other) {
      close();
      fd_ = other.release();
    }
    return *this;
  }

  [[nodiscard]] int fd() const { return fd_; }
  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  /// Gives up ownership without closing.
  int release() {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }
  void close();

 private:
  int fd_ = -1;
};

/// Splits "HOST:PORT" (port 0 allowed: the OS picks an ephemeral port).
/// \throws std::runtime_error on a malformed spec.
[[nodiscard]] std::pair<std::string, int> parse_host_port(
    const std::string& spec);

/// Opens a non-blocking listening TCP socket bound to host:port
/// (SO_REUSEADDR set, CLOEXEC, backlog per listen(2) SOMAXCONN).
/// \throws std::runtime_error with errno detail on failure.
[[nodiscard]] Socket listen_tcp(const std::string& host, int port);

/// The locally bound port of a socket (resolves port 0 after bind).
[[nodiscard]] int local_port(int fd);

/// Blocking TCP connect for clients and tests.
/// \throws std::runtime_error with errno detail on failure.
[[nodiscard]] Socket connect_tcp(const std::string& host, int port);

/// A connected pair of blocking AF_UNIX stream sockets (CLOEXEC): one
/// end for Server::add_connection, the other for its in-process peer.
/// \throws std::runtime_error with errno detail on failure.
[[nodiscard]] std::pair<Socket, Socket> socket_pair();

/// Puts `fd` into non-blocking mode.
void set_nonblocking(int fd);

/// Blocking write of the whole buffer (loops over short writes).
/// \throws std::runtime_error when the peer is gone.
void send_all(int fd, const std::string& data);

/// Blocking newline-delimited reader over a socket, for clients and
/// tests. Keeps a carry buffer across reads; returns lines without the
/// trailing '\n' (a '\r' before it is stripped too), nullopt on EOF.
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd) {}

  /// \throws std::runtime_error on a read error (not on orderly EOF).
  std::optional<std::string> next_line();

 private:
  int fd_;
  std::string buffer_;
  bool eof_ = false;
};

}  // namespace qrc::net

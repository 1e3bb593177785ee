#include "net/server.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <stdexcept>
#include <utility>

#include "ir/qasm.hpp"
#include "net/stats.hpp"
#include "obs/build_info.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/log.hpp"
#include "obs/process_stats.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "rl/mlp.hpp"
#include "service/jsonl.hpp"
#include "util/json.hpp"

namespace qrc::net {

namespace {

/// Write-buffer high watermark: past it a connection's reads pause until
/// the peer drains below half of it.
constexpr std::size_t kMaxWriteBuffer = 4u << 20;

/// Parses the /profilez query string. Accepts only `seconds` (number in
/// (0, 60]) and `hz` (integer in [1, 1000]); anything else — unknown
/// keys, non-numeric values, zero/negative/oversized ranges — fills
/// `error` with a deterministic one-line message and returns false.
bool parse_profilez_query(const std::string& path, double& seconds, int& hz,
                          std::string& error) {
  const auto qmark = path.find('?');
  if (qmark == std::string::npos) {
    return true;  // defaults
  }
  std::string query = path.substr(qmark + 1);
  std::size_t pos = 0;
  while (pos <= query.size()) {
    std::size_t amp = query.find('&', pos);
    if (amp == std::string::npos) {
      amp = query.size();
    }
    const std::string pair = query.substr(pos, amp - pos);
    pos = amp + 1;
    if (pair.empty()) {
      continue;
    }
    const auto eq = pair.find('=');
    const std::string key = pair.substr(0, eq);
    const std::string value =
        eq == std::string::npos ? "" : pair.substr(eq + 1);
    if (key == "seconds") {
      char* end = nullptr;
      const double v = std::strtod(value.c_str(), &end);
      if (value.empty() || end == nullptr || *end != '\0') {
        error = "bad 'seconds': not a number\n";
        return false;
      }
      if (!(v > 0.0) || v > obs::Profiler::kMaxSeconds) {
        error = "bad 'seconds': must be in (0, 60]\n";
        return false;
      }
      seconds = v;
    } else if (key == "hz") {
      char* end = nullptr;
      const long v = std::strtol(value.c_str(), &end, 10);
      if (value.empty() || end == nullptr || *end != '\0') {
        error = "bad 'hz': not an integer\n";
        return false;
      }
      if (v < obs::Profiler::kMinHz || v > obs::Profiler::kMaxHz) {
        error = "bad 'hz': must be in [1, 1000]\n";
        return false;
      }
      hz = static_cast<int>(v);
    } else {
      error = "unknown query parameter '" + key +
              "' (expected seconds, hz)\n";
      return false;
    }
  }
  return true;
}

/// The "stats" result frame: {"id","type":"result","op":"stats",
/// <key>:<value>...} over every stats-table row.
std::string serve_stats_line(std::string_view id,
                             const obs::MetricsRegistry& registry) {
  std::string out = "{\"id\":" + util::json_quote(id) +
                    ",\"type\":\"result\",\"op\":\"stats\"";
  for (const auto& [key, value] : read_stats(registry)) {
    out += ",\"" + std::string(key) + "\":" + std::to_string(value);
  }
  return out + "}";
}

}  // namespace

Server::Server(service::CompileService& service, ServerConfig config)
    : service_(service), config_(std::move(config)) {
  obs::MetricsRegistry& reg = service_.metrics();
  accepted_ = &reg.counter("qrc_net_accepted_total", "Connections accepted");
  rejected_ = &reg.counter("qrc_net_rejected_total",
                           "Connections closed at the connection cap");
  frames_in_ = &reg.counter("qrc_net_frames_in_total",
                            "Request lines parsed or refused");
  frames_out_ =
      &reg.counter("qrc_net_frames_out_total", "Response lines queued");
  partial_frames_ =
      &reg.counter("qrc_net_partial_frames_total", "Partial lines queued");
  error_frames_ =
      &reg.counter("qrc_net_error_frames_total", "Error lines queued");
  oversized_frames_ = &reg.counter("qrc_net_oversized_frames_total",
                                   "Lines over max_frame_bytes");
  shed_inflight_ = &reg.counter(
      "qrc_shed_total", "Requests refused by admission control",
      {{"reason", "conn_inflight"}});
  metrics_scrapes_ = &reg.counter(
      "qrc_net_metrics_scrapes_total",
      "HTTP metrics-family scrapes answered (/metrics and /profilez)");
  profilez_requests_ = &reg.counter(
      "qrc_net_profilez_requests_total",
      "HTTP /profilez requests answered (any status)");
  // The obs layer observing itself: how long each ops-endpoint scrape
  // takes to assemble its response body.
  scrape_seconds_ = &reg.histogram(
      "qrc_obs_scrape_seconds",
      "Ops-endpoint response assembly time in seconds",
      {1e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 1e-1, 5e-1, 1.0});
  connections_active_ =
      &reg.gauge("qrc_net_connections_active", "Open connections");
  obs::stamp_build_info(reg, rl::simd_kernel_name());
}

Server::~Server() { stop(); }

void Server::add_connection(Socket sock) {
  if (started_.load()) {
    throw std::logic_error("add_connection after start()");
  }
  // Accepted connections share the server and get max_inflight_per_conn;
  // a handed-in one is its caller's only connection, so a piped batch is
  // answered in full.
  open_conn(std::move(sock), /*http=*/false,
            std::numeric_limits<std::size_t>::max());
}

void Server::start() {
  if (started_.load()) {
    throw std::runtime_error("server already started");
  }
  if (config_.port >= 0) {
    listener_ = listen_tcp(config_.host, config_.port);
    port_ = local_port(listener_.fd());
    poller_.set(listener_.fd(), /*want_read=*/true, /*want_write=*/false);
  }
  if (config_.metrics_port >= 0) {
    metrics_listener_ = listen_tcp(config_.metrics_host, config_.metrics_port);
    metrics_port_ = local_port(metrics_listener_.fd());
    poller_.set(metrics_listener_.fd(), /*want_read=*/true,
                /*want_write=*/false);
  }

  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    throw std::runtime_error(std::string("pipe: ") + std::strerror(errno));
  }
  wake_read_ = Socket(pipe_fds[0]);
  wake_write_ = Socket(pipe_fds[1]);
  set_nonblocking(wake_read_.fd());
  set_nonblocking(wake_write_.fd());

  poller_.set(wake_read_.fd(), /*want_read=*/true, /*want_write=*/false);

  started_.store(true);
  started_at_ = std::chrono::steady_clock::now();
  obs::FlightRecorder::instance().record(
      obs::FlightEventKind::kLifecycle, "net",
      "server started on port " + std::to_string(port_));
  obs::Logger::instance().logf(
      obs::LogLevel::kInfo, "net", "%s serving (port %d, metrics %d)",
      obs::build_info_line(rl::simd_kernel_name()).c_str(), port_,
      metrics_port_);
  loop_ = std::thread(&Server::run_loop, this);
}

void Server::request_drain() {
  // Async-signal-safe: one atomic store and one write(2); the loop
  // notices the flag on its next wake-up.
  draining_.store(true);
  if (wake_write_.valid()) {
    const char byte = 'd';
    [[maybe_unused]] const ssize_t n =
        ::write(wake_write_.fd(), &byte, 1);
  }
}

void Server::stop() {
  request_drain();
  join();
}

void Server::join() {
  if (loop_.joinable()) {
    loop_.join();
  }
  // The loop only exits once pending_ hit zero, which requires every
  // profile worker's final frame to have been drained — so these joins
  // are immediate; they just reclaim the handles.
  std::vector<std::thread> workers;
  {
    std::lock_guard<std::mutex> lock(profile_threads_mutex_);
    workers.swap(profile_threads_);
  }
  for (std::thread& t : workers) {
    if (t.joinable()) {
      t.join();
    }
  }
}

bool Server::drain_complete() const {
  return conns_.empty() && pending_ == 0;
}

void Server::run_loop() {
  // The loop thread can appear in sampled stacks; give the profiler its
  // stack bounds so fp-walks are validated rather than PC-only.
  obs::Profiler::enroll_current_thread();
  std::vector<PollEvent> events;
  for (;;) {
    if (draining_.load()) {
      if (listener_.valid()) {
        poller_.remove(listener_.fd());
        listener_.close();
      }
      if (metrics_listener_.valid()) {
        poller_.remove(metrics_listener_.fd());
        metrics_listener_.close();
      }
      // Close every connection with nothing left to say; the rest are
      // closed as their final frames flush.
      std::vector<std::uint64_t> idle;
      for (auto& [id, conn] : conns_) {
        if (conn.inflight == 0 && conn.woff >= conn.wbuf.size()) {
          idle.push_back(id);
        } else {
          update_interest(conn);  // stop reading while draining
        }
      }
      for (const std::uint64_t id : idle) {
        close_conn(id);
      }
      if (drain_complete()) {
        break;
      }
    }

    poller_.wait(events, /*timeout_ms=*/200);
    for (const PollEvent& e : events) {
      if (e.fd == wake_read_.fd()) {
        char sink[256];
        while (::read(wake_read_.fd(), sink, sizeof(sink)) > 0) {
        }
        continue;
      }
      if (listener_.valid() && e.fd == listener_.fd()) {
        accept_ready(listener_, /*http=*/false);
        continue;
      }
      if (metrics_listener_.valid() && e.fd == metrics_listener_.fd()) {
        accept_ready(metrics_listener_, /*http=*/true);
        continue;
      }
      const auto fd_it = fd_to_conn_.find(e.fd);
      if (fd_it == fd_to_conn_.end()) {
        continue;  // closed earlier in this batch
      }
      const std::uint64_t conn_id = fd_it->second;
      if (e.closed) {
        close_conn(conn_id);
        continue;
      }
      if (e.readable) {
        const auto it = conns_.find(conn_id);
        if (it != conns_.end()) {
          handle_readable(it->second);
        }
      }
      if (e.writable) {
        const auto it = conns_.find(conn_id);
        if (it != conns_.end()) {
          handle_writable(it->second);
        }
      }
    }
    drain_outbound();
  }
}

void Server::accept_ready(Socket& listener, bool http) {
  for (;;) {
    const int fd = ::accept(listener.fd(), nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) {
        continue;
      }
      break;  // EAGAIN or a transient accept failure: try next wake-up
    }
    if (conns_.size() >= config_.max_connections) {
      ::close(fd);
      rejected_->inc();
      continue;
    }
    open_conn(Socket(fd), http, config_.max_inflight_per_conn);
  }
}

void Server::open_conn(Socket sock, bool http, std::size_t max_inflight) {
  const int fd = sock.fd();
  set_nonblocking(fd);
  const std::uint64_t conn_id = next_conn_id_++;
  Conn conn;
  conn.sock = std::move(sock);
  conn.id = conn_id;
  conn.http = http;
  conn.max_inflight = max_inflight;
  conns_.emplace(conn_id, std::move(conn));
  fd_to_conn_[fd] = conn_id;
  poller_.set(fd, /*want_read=*/true, /*want_write=*/false);
  accepted_->inc();
  connections_active_->add(1);
}

void Server::handle_readable(Conn& conn) {
  const std::uint64_t conn_id = conn.id;
  for (;;) {
    char chunk[16384];
    const ssize_t n = ::recv(conn.sock.fd(), chunk, sizeof(chunk), 0);
    if (n > 0) {
      conn.rbuf.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) {
      conn.peer_eof = true;
      break;
    }
    if (errno == EINTR) {
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      break;
    }
    close_conn(conn_id);
    return;
  }
  if (conn.http) {
    handle_http(conn);
  } else {
    process_lines(conn);
  }
  if (conns_.count(conn_id) == 0) {
    return;  // process_lines tore the connection down
  }
  if (conn.peer_eof && conn.inflight == 0 && conn.woff >= conn.wbuf.size()) {
    close_conn(conn_id);
    return;
  }
  update_interest(conn);
}

void Server::handle_writable(Conn& conn) {
  const std::uint64_t conn_id = conn.id;
  while (conn.woff < conn.wbuf.size()) {
    const ssize_t n =
        ::send(conn.sock.fd(), conn.wbuf.data() + conn.woff,
               conn.wbuf.size() - conn.woff, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        break;
      }
      close_conn(conn_id);
      return;
    }
    conn.woff += static_cast<std::size_t>(n);
  }
  if (conn.woff >= conn.wbuf.size()) {
    conn.wbuf.clear();
    conn.woff = 0;
  } else if (conn.woff > (64u << 10)) {
    conn.wbuf.erase(0, conn.woff);
    conn.woff = 0;
  }
  const bool flushed = conn.woff >= conn.wbuf.size();
  if (flushed && conn.inflight == 0 &&
      (conn.peer_eof || draining_.load())) {
    close_conn(conn_id);
    return;
  }
  update_interest(conn);
}

void Server::process_lines(Conn& conn) {
  const std::uint64_t conn_id = conn.id;
  for (;;) {
    if (conn.discarding) {
      const auto newline = conn.rbuf.find('\n');
      if (newline == std::string::npos) {
        conn.rbuf.clear();
        return;
      }
      conn.rbuf.erase(0, newline + 1);
      conn.discarding = false;
    }
    const auto newline = conn.rbuf.find('\n');
    if (newline == std::string::npos) {
      if (conn.rbuf.size() > config_.max_frame_bytes) {
        // The line is already over budget with no end in sight: refuse
        // it now and skip bytes until the newline finally shows up. The
        // connection itself survives.
        frames_in_->inc();
        oversized_frames_->inc();
        queue_frame(conn,
                    service::serve_error_line(
                        "", service::ErrorCode::kFrameTooLarge,
                        "request line exceeds " +
                            std::to_string(config_.max_frame_bytes) +
                            " bytes"),
                    /*is_error=*/true);
        conn.rbuf.clear();
        conn.discarding = true;
      }
      return;
    }
    std::string line = conn.rbuf.substr(0, newline);
    conn.rbuf.erase(0, newline + 1);
    if (!line.empty() && line.back() == '\r') {
      line.pop_back();
    }
    if (line.empty()) {
      continue;
    }
    if (line.size() > config_.max_frame_bytes) {
      frames_in_->inc();
      oversized_frames_->inc();
      // Complete line, so no discard mode needed.
      queue_frame(conn,
                  service::serve_error_line(
                      service::extract_request_id(line),
                      service::ErrorCode::kFrameTooLarge,
                      "request line exceeds " +
                          std::to_string(config_.max_frame_bytes) +
                          " bytes"),
                  /*is_error=*/true);
      continue;
    }
    handle_line(conn, line);
    if (conns_.count(conn_id) == 0) {
      return;  // connection died while answering
    }
  }
}

void Server::handle_http(Conn& conn) {
  // One-shot HTTP/1.0: read until the header terminator, answer the first
  // request, close after the flush (peer_eof doubles as "done reading").
  // Pipelined followers are deterministically dropped by the close, and a
  // request head truncated by EOF gets a 400 instead of silence.
  const auto crlf_end = conn.rbuf.find("\r\n\r\n");
  const auto end =
      crlf_end == std::string::npos ? conn.rbuf.find("\n\n") : crlf_end;
  std::string status;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
  std::string extra_headers;
  bool head_only = false;
  if (end == std::string::npos) {
    const bool oversized = conn.rbuf.size() > (16u << 10);
    const bool truncated = conn.peer_eof && !conn.rbuf.empty();
    if (!oversized && !truncated) {
      return;  // wait for the rest of the head
    }
    status = "400 Bad Request";
    body = oversized ? "request head exceeds 16KB\n"
                     : "truncated request head\n";
  } else {
    const std::string::size_type line_end = conn.rbuf.find('\n');
    std::string request_line = conn.rbuf.substr(0, line_end);
    if (!request_line.empty() && request_line.back() == '\r') {
      request_line.pop_back();
    }
    const auto sp1 = request_line.find(' ');
    const auto sp2 =
        sp1 == std::string::npos ? sp1 : request_line.find(' ', sp1 + 1);
    const std::string method =
        sp1 == std::string::npos ? "" : request_line.substr(0, sp1);
    const std::string path = sp2 == std::string::npos
                                 ? ""
                                 : request_line.substr(sp1 + 1, sp2 - sp1 - 1);
    if (method.empty() || path.empty() || path[0] != '/') {
      status = "400 Bad Request";
      body = "malformed request line\n";
    } else if (method != "GET" && method != "HEAD") {
      // POST/PUT/... are well-formed but unsupported: a deterministic
      // 405 instead of the catch-all 404.
      status = "405 Method Not Allowed";
      extra_headers = "Allow: GET, HEAD\r\n";
      body = "method not allowed; use GET or HEAD\n";
    } else {
      head_only = method == "HEAD";
      const bool is_profilez =
          path == "/profilez" || path.rfind("/profilez?", 0) == 0;
      if (is_profilez && !head_only) {
        // Sampling for N seconds must not stall the event loop (every
        // other connection shares it), so valid requests hand off to a
        // worker thread and the response returns through the outbound
        // queue, accounted like an in-flight compile.
        profilez_requests_->inc();
        metrics_scrapes_->inc();
        double seconds = 2.0;
        int hz = 97;
        std::string error;
        if (!parse_profilez_query(path, seconds, hz, error)) {
          status = "400 Bad Request";
          body = error;
        } else if (obs::Profiler::active()) {
          status = "409 Conflict";
          body = "profiler busy; one session at a time\n";
        } else {
          ++conn.inflight;
          ++pending_;
          start_profile_job(conn.id, seconds, hz, /*http=*/true, "");
          conn.rbuf.clear();
          conn.peer_eof = true;  // one-shot: nothing further is read
          update_interest(conn);
          return;
        }
      } else {
        route_http(method, path, status, content_type, body);
      }
    }
  }
  conn.rbuf.clear();
  conn.wbuf += "HTTP/1.0 " + status + "\r\nContent-Type: " + content_type +
               "\r\nContent-Length: " + std::to_string(body.size()) +
               "\r\n" + extra_headers + "Connection: close\r\n\r\n";
  if (!head_only) {
    conn.wbuf += body;
  }
  conn.peer_eof = true;
  update_interest(conn);
}

void Server::route_http(const std::string& method, const std::string& path,
                        std::string& status, std::string& content_type,
                        std::string& body) {
  (void)method;  // GET and HEAD differ only in body suppression
  const auto scrape_start = std::chrono::steady_clock::now();
  const auto path_is = [&path](std::string_view target) {
    return path == target ||
           (path.size() > target.size() &&
            path.compare(0, target.size(), target) == 0 &&
            path[target.size()] == '?');
  };
  if (path_is("/metrics")) {
    content_type = "text/plain; version=0.0.4; charset=utf-8";
    body = render_metrics();
    status = "200 OK";
    metrics_scrapes_->inc();
  } else if (path_is("/profilez")) {
    // Only HEAD reaches here (GET is diverted to the worker path in
    // handle_http): validate the params so a HEAD probe still gets the
    // deterministic 400, but never start a session for it.
    profilez_requests_->inc();
    metrics_scrapes_->inc();
    double seconds = 2.0;
    int hz = 97;
    std::string error;
    if (!parse_profilez_query(path, seconds, hz, error)) {
      status = "400 Bad Request";
      body = error;
    } else {
      status = "200 OK";
      body = "profilez: GET /profilez?seconds=N&hz=H for folded stacks\n";
    }
  } else if (path_is("/healthz")) {
    // Liveness: the loop thread is answering — that is the whole check.
    body = "ok\n";
    status = "200 OK";
  } else if (path_is("/readyz")) {
    const bool has_models = service_.registry().size() > 0;
    const bool accepting = !draining_.load();
    if (has_models && accepting) {
      body = "ready\n";
      status = "200 OK";
    } else {
      body = std::string("not ready: ") +
             (!has_models ? "no models loaded" : "draining") + "\n";
      status = "503 Service Unavailable";
    }
  } else if (path_is("/statusz")) {
    body = render_statusz();
    status = "200 OK";
  } else if (path_is("/debugz")) {
    content_type = "application/json";
    body = obs::FlightRecorder::instance().dump_json();
    body += '\n';
    status = "200 OK";
  } else {
    body = "not found; try /metrics /healthz /readyz /statusz /debugz "
           "/profilez\n";
    status = "404 Not Found";
  }
  scrape_seconds_->observe(
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    scrape_start)
          .count());
}

std::string Server::render_metrics() {
  // Scrape-time families: cheap point reads published on demand so the
  // exposition always reflects the current process and kernel counters.
  obs::publish_process_metrics(service_.metrics());
  return service_.metrics().render_prometheus();
}

void Server::start_profile_job(std::uint64_t conn_id, double seconds, int hz,
                               bool http, std::string id) {
  std::lock_guard<std::mutex> lock(profile_threads_mutex_);
  profile_threads_.emplace_back([this, conn_id, seconds, hz, http,
                                 id = std::move(id)] {
    obs::Profiler::enroll_current_thread();
    const std::optional<std::string> folded =
        obs::Profiler::collect_folded(seconds, hz);
    const std::uint64_t samples = obs::Profiler::stats().retained;
    if (http) {
      std::string body;
      std::string status;
      if (folded.has_value()) {
        status = "200 OK";
        body = *folded;
      } else {
        // Params were validated before the handoff, so a refusal means
        // another session won the exclusivity race meanwhile.
        status = "409 Conflict";
        body = "profiler busy; one session at a time\n";
      }
      std::string response = "HTTP/1.0 " + status +
                             "\r\nContent-Type: text/plain; charset=utf-8" +
                             "\r\nContent-Length: " +
                             std::to_string(body.size()) +
                             "\r\nConnection: close\r\n\r\n" + body;
      enqueue_outbound(conn_id, std::move(response), /*final_frame=*/true,
                       /*raw=*/true);
    } else if (folded.has_value()) {
      enqueue_outbound(conn_id,
                       service::serve_profile_line(id, *folded, samples),
                       /*final_frame=*/true);
    } else {
      enqueue_outbound(conn_id,
                       service::serve_error_line(
                           id, service::ErrorCode::kOverloaded,
                           "profiler session already active; retry later"),
                       /*final_frame=*/true);
    }
  });
}

std::string Server::render_statusz() const {
  std::string out = obs::build_info_line(rl::simd_kernel_name());
  out += '\n';
  const auto uptime = std::chrono::duration_cast<std::chrono::seconds>(
      std::chrono::steady_clock::now() - started_at_);
  out += "uptime_s: " + std::to_string(uptime.count()) + "\n";
  out += "draining: " + std::string(draining_.load() ? "true" : "false") +
         "\n";
  out += "models:";
  for (const std::string& name : service_.registry().names()) {
    out += ' ';
    out += name;
  }
  out += '\n';
  for (const auto& [key, value] : read_stats(service_.metrics())) {
    out += std::string(key) + ": " + std::to_string(value) + "\n";
  }
  out += "connections_active: " +
         std::to_string(connections_active_->value()) + "\n";
  const obs::ProfilerStats prof = obs::Profiler::stats();
  out += "profiler: " + std::string(prof.active ? "active" : "idle") + ", " +
         std::to_string(prof.sessions) + " sessions, " +
         std::to_string(prof.samples) + " samples (" +
         std::to_string(prof.dropped) + " dropped, " +
         std::to_string(prof.pc_only) + " pc-only), " +
         std::to_string(profilez_requests_->value()) +
         " profilez requests\n";
  const obs::ProcessStats proc = obs::sample_process_stats();
  out += "process: rss " + std::to_string(proc.rss_bytes / (1 << 20)) +
         " MiB, cpu " + std::to_string(proc.user_cpu_seconds) + "s user / " +
         std::to_string(proc.sys_cpu_seconds) + "s sys, " +
         std::to_string(proc.open_fds) + " fds\n";
  out += "\nflight recorder (most recent last):\n";
  const auto events = obs::FlightRecorder::instance().snapshot();
  const std::size_t tail = std::min<std::size_t>(events.size(), 16);
  for (std::size_t i = events.size() - tail; i < events.size(); ++i) {
    const obs::FlightEvent& ev = events[i];
    out += "#" + std::to_string(ev.seq) + " " +
           std::string(obs::flight_event_kind_name(ev.kind)) + " [" +
           ev.tag + "] " + ev.detail + "\n";
  }
  return out;
}

void Server::handle_line(Conn& conn, const std::string& line) {
  const auto decode_start = std::chrono::steady_clock::now();
  frames_in_->inc();
  service::ServeRequest request;
  try {
    request = service::parse_serve_request(line);
  } catch (const std::exception& e) {
    queue_frame(conn,
                service::serve_error_line(service::extract_request_id(line),
                                          service::error_code_of(e),
                                          e.what()),
                /*is_error=*/true);
    return;
  }

  if (request.op == service::ServeOp::kPing) {
    queue_frame(conn, service::serve_pong_line(request.id),
                /*is_error=*/false);
    return;
  }
  if (request.op == service::ServeOp::kStats) {
    queue_frame(conn,
                serve_stats_line(request.id, service_.metrics()),
                /*is_error=*/false);
    return;
  }
  if (request.op == service::ServeOp::kMetrics) {
    queue_frame(conn,
                service::serve_metrics_line(request.id, render_metrics()),
                /*is_error=*/false);
    return;
  }
  if (request.op == service::ServeOp::kDebugDump) {
    queue_frame(conn,
                service::serve_debug_dump_line(
                    request.id,
                    obs::FlightRecorder::instance().dump_json()),
                /*is_error=*/false);
    return;
  }
  if (request.op == service::ServeOp::kProfile) {
    // Same off-loop handoff as HTTP /profilez: the sampling window runs
    // on a worker; the result frame (or a typed busy error) crosses
    // back through the outbound queue. Params were validated at parse.
    if (obs::Profiler::active()) {
      queue_frame(conn,
                  service::serve_error_line(
                      request.id, service::ErrorCode::kOverloaded,
                      "profiler session already active; retry later"),
                  /*is_error=*/true);
      return;
    }
    profilez_requests_->inc();
    ++conn.inflight;
    ++pending_;
    start_profile_job(conn.id, request.profile_seconds, request.profile_hz,
                      /*http=*/false, request.id);
    return;
  }

  if (conn.inflight >= conn.max_inflight) {
    shed_inflight_->inc();
    queue_frame(conn,
                service::serve_error_line(
                    request.id, service::ErrorCode::kOverloaded,
                    "connection is at its in-flight cap (" +
                        std::to_string(conn.max_inflight) +
                        " requests); wait for results"),
                /*is_error=*/true);
    return;
  }

  ir::Circuit circuit;
  try {
    circuit = ir::from_qasm(request.qasm);
  } catch (const std::exception& e) {
    queue_frame(conn,
                service::serve_error_line(request.id,
                                          service::ErrorCode::kBadRequest,
                                          e.what()),
                /*is_error=*/true);
    return;
  }

  // Per-request tracing starts at frame decode; the span tree rides back
  // on the response frame (serve_response_line renders response.trace).
  std::shared_ptr<obs::TraceContext> trace;
  if (request.trace) {
    trace = std::make_shared<obs::TraceContext>(request.id, decode_start);
    const int span =
        trace->add_span("decode", obs::TraceContext::kNoParent, 0,
                        trace->now_us());
    trace->attr(span, "bytes", static_cast<std::uint64_t>(line.size()));
  }

  const std::uint64_t conn_id = conn.id;
  const std::string id = request.id;
  service::SubmitHooks hooks;
  hooks.on_result = [this, conn_id](service::ServiceResponse r) {
    enqueue_outbound(conn_id, service::serve_response_line(r),
                     /*final_frame=*/true);
  };
  hooks.on_error = [this, conn_id, id](service::ErrorCode code,
                                       const std::string& msg) {
    enqueue_outbound(conn_id, service::serve_error_line(id, code, msg),
                     /*final_frame=*/true);
    error_frames_->inc();
  };
  if (request.search.has_value()) {
    hooks.on_partial = [this, conn_id,
                        id](const search::SearchProgress& progress) {
      enqueue_outbound(conn_id, service::serve_partial_line(id, progress),
                       /*final_frame=*/false);
      partial_frames_->inc();
    };
  }

  // Count the request before submitting: a cache hit delivers its hook
  // synchronously inside submit_with_hooks, and the accounting must
  // already be in place when the outbound frame is drained.
  ++conn.inflight;
  ++pending_;
  try {
    service_.submit_with_hooks(request.id, request.model,
                               std::move(circuit), request.verify,
                               request.search, std::move(hooks),
                               std::move(trace));
  } catch (const std::exception& e) {
    // Admission refusals (lane queue bound, shutdown, unknown model)
    // throw before any hook fires, so the rollback cannot double-count.
    --conn.inflight;
    --pending_;
    queue_frame(conn,
                service::serve_error_line(
                    request.id, service::error_code_of(e), e.what()),
                /*is_error=*/true);
  }
}

void Server::queue_frame(Conn& conn, std::string line, bool is_error) {
  conn.wbuf += line;
  conn.wbuf += '\n';
  frames_out_->inc();
  if (is_error) {
    error_frames_->inc();
  }
  update_interest(conn);
}

void Server::enqueue_outbound(std::uint64_t conn_id, std::string line,
                              bool final_frame, bool raw) {
  {
    std::lock_guard<std::mutex> lock(outbound_mutex_);
    outbound_.push_back(
        Outbound{conn_id, std::move(line), final_frame, raw});
  }
  if (wake_write_.valid()) {
    const char byte = 'o';
    [[maybe_unused]] const ssize_t n =
        ::write(wake_write_.fd(), &byte, 1);
  }
}

void Server::drain_outbound() {
  std::vector<Outbound> batch;
  {
    std::lock_guard<std::mutex> lock(outbound_mutex_);
    batch.swap(outbound_);
  }
  for (Outbound& ob : batch) {
    if (ob.final_frame && pending_ > 0) {
      --pending_;
    }
    const auto it = conns_.find(ob.conn_id);
    if (it == conns_.end()) {
      continue;  // peer left before its answer arrived; drop the frame
    }
    Conn& conn = it->second;
    if (ob.final_frame && conn.inflight > 0) {
      --conn.inflight;
    }
    conn.wbuf += ob.line;
    if (!ob.raw) {
      conn.wbuf += '\n';  // raw payloads are complete HTTP responses
    }
    frames_out_->inc();
    update_interest(conn);
  }
}

void Server::update_interest(Conn& conn) {
  const std::size_t backlog = conn.wbuf.size() - conn.woff;
  if (conn.read_paused) {
    if (backlog * 2 <= kMaxWriteBuffer) {
      conn.read_paused = false;
    }
  } else if (backlog > kMaxWriteBuffer) {
    conn.read_paused = true;
  }
  const bool want_read =
      !conn.peer_eof && !conn.read_paused && !draining_.load();
  const bool want_write = backlog > 0;
  poller_.set(conn.sock.fd(), want_read, want_write);
}

void Server::close_conn(std::uint64_t conn_id) {
  const auto it = conns_.find(conn_id);
  if (it == conns_.end()) {
    return;
  }
  const int fd = it->second.sock.fd();
  poller_.remove(fd);
  fd_to_conn_.erase(fd);
  // In-flight requests for this connection stay counted in pending_;
  // their final frames are drained and dropped, releasing the count.
  conns_.erase(it);
  connections_active_->add(-1);
}

}  // namespace qrc::net


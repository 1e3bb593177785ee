/// \file server.hpp
/// \brief The one front end of the compile service: a single event-loop
///        thread multiplexes many connections over a Poller, speaks the
///        line-delimited serve protocol (service/jsonl.hpp), and hands
///        admitted work to CompileService's sharded per-model lanes via
///        SubmitHooks. Lane threads never touch a socket — completed
///        frames cross back to the loop through a mutex-guarded outbound
///        queue and a wake pipe. Connections come from the TCP listener
///        or are handed in already connected (add_connection): `qrc serve`
///        without --listen serves stdin/stdout over one end of a
///        socketpair that way.
///
/// Overload behaviour is typed, never silent: a connection over its
/// in-flight cap or a lane over its queue bound gets an "overloaded"
/// error frame; an over-long line gets "frame_too_large" and the rest of
/// that line is discarded without killing the connection. A growing
/// write buffer pauses reads on that connection (backpressure) instead
/// of buffering without bound.
///
/// Observability: all counters live in the service's MetricsRegistry
/// (qrc_net_*), read through the stats table (net/stats.hpp). Requests with
/// "trace":true get a TraceContext allocated at frame decode whose span
/// tree rides back on the response frame. An optional second listener
/// (`metrics_host`/`metrics_port`) serves the ops endpoints on the same
/// Poller loop: GET /metrics (Prometheus exposition), /healthz
/// (liveness), /readyz (models loaded and lanes accepting), /statusz
/// (build info, uptime, the stats table, profiler/process counters, the
/// flight-recorder tail, log lines included), /debugz (flight-recorder dump
/// as JSON) and /profilez?seconds=N&hz=H (sampling-profiler session;
/// folded stacks, collected off-loop so other connections keep being
/// served, deterministic 400s on bad params). HEAD works on all of
/// them; other methods get 405.
///
/// Graceful drain (`request_drain()`, async-signal-safe) stops accepting,
/// lets in-flight requests finish, flushes their frames, then exits the
/// loop — wired to SIGINT/SIGTERM by `qrc serve --listen`.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/poller.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"
#include "service/compile_service.hpp"

namespace qrc::net {

struct ServerConfig {
  std::string host = "127.0.0.1";
  /// 0 picks an ephemeral port; read it back via Server::port(). < 0
  /// opens no TCP listener: only add_connection() connections are served.
  int port = 0;
  /// Longest accepted request line (bytes, excluding the newline);
  /// longer lines get a frame_too_large error and are discarded.
  std::size_t max_frame_bytes = 1 << 20;
  /// Per-connection cap on submitted-but-unanswered compiles of accepted
  /// connections; the excess is shed with an "overloaded" error frame.
  std::size_t max_inflight_per_conn = 32;
  /// New connections past this are accepted and immediately closed.
  std::size_t max_connections = 256;
  /// HTTP GET /metrics side listener. metrics_port < 0 (default)
  /// disables it; 0 picks an ephemeral port (Server::metrics_port()).
  std::string metrics_host = "127.0.0.1";
  int metrics_port = -1;
};

/// The serve layer. One instance owns at most one listener, one poller
/// and one event-loop thread. Construct, start(), and keep it alive
/// until stop() returns; the referenced CompileService must outlive it.
class Server {
 public:
  Server(service::CompileService& service, ServerConfig config);
  /// Calls stop(); safe when never started.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Serves `sock`, an already-connected stream socket, as one more
  /// line-protocol connection. It has no in-flight cap (lane bounds
  /// still apply) and is closed once its peer has half-closed and every
  /// request on it is answered.
  /// \throws std::logic_error after start().
  void add_connection(Socket sock);

  /// Binds, listens (unless config.port < 0) and launches the event loop.
  /// \throws std::runtime_error when the bind fails.
  void start();

  /// The bound port (resolves config.port == 0), or -1 without a
  /// listener. Valid after start().
  [[nodiscard]] int port() const { return port_; }

  /// The bound /metrics port, or -1 when disabled. Valid after start().
  [[nodiscard]] int metrics_port() const { return metrics_port_; }

  /// Async-signal-safe graceful-drain request: stop accepting, answer
  /// everything in flight, flush, then exit the loop. Idempotent.
  void request_drain();

  /// request_drain() + join. Blocks until every in-flight request has
  /// been answered and the loop has exited. Idempotent.
  void stop();

  /// Blocks until the event loop exits (e.g. after a signal-triggered
  /// drain). Returns immediately when never started.
  void join();

 private:
  struct Conn {
    Socket sock;
    std::uint64_t id = 0;
    std::string rbuf;
    std::string wbuf;
    std::size_t woff = 0;  ///< bytes of wbuf already written
    std::size_t inflight = 0;
    std::size_t max_inflight = 0;  ///< shed compiles beyond this many
    bool discarding = false;  ///< skipping the rest of an oversized line
    bool peer_eof = false;
    bool read_paused = false;
    bool http = false;  ///< accepted on the /metrics listener
  };

  /// A frame produced on a lane thread, destined for one connection.
  struct Outbound {
    std::uint64_t conn_id = 0;
    std::string line;
    /// Final frames release one in-flight slot (partials do not).
    bool final_frame = false;
    /// Raw payloads (complete HTTP responses from the /profilez worker)
    /// are appended verbatim — no newline framing.
    bool raw = false;
  };

  void run_loop();
  void accept_ready(Socket& listener, bool http);
  void handle_readable(Conn& conn);
  void handle_writable(Conn& conn);
  void process_lines(Conn& conn);
  void handle_line(Conn& conn, const std::string& line);
  /// One-shot HTTP/1.0 handler for the ops listener: answers the first
  /// complete GET/HEAD deterministically (pipelined extra requests are
  /// dropped by the close), 405s other methods, 400s garbage and
  /// truncated request heads, and closes after the flush.
  void handle_http(Conn& conn);
  /// Routes one parsed (method, path) to a response; fills status, body
  /// and content type.
  void route_http(const std::string& method, const std::string& path,
                  std::string& status, std::string& content_type,
                  std::string& body);
  [[nodiscard]] std::string render_statusz() const;
  /// Publishes the scrape-time qrc_process_* families into the service
  /// registry and renders the exposition.
  [[nodiscard]] std::string render_metrics();
  /// Spawns the worker thread backing one profiling request (HTTP
  /// /profilez or the v1 "profile" op). The sampling window runs off the
  /// event loop; the finished frame crosses back via enqueue_outbound
  /// and is accounted like an in-flight compile, so graceful drain waits
  /// for it. Params must already be validated.
  void start_profile_job(std::uint64_t conn_id, double seconds, int hz,
                         bool http, std::string id);
  void queue_frame(Conn& conn, std::string line, bool is_error);
  void enqueue_outbound(std::uint64_t conn_id, std::string line,
                        bool final_frame, bool raw = false);
  void drain_outbound();
  void update_interest(Conn& conn);
  /// Registers an open socket as a new connection (made non-blocking).
  void open_conn(Socket sock, bool http, std::size_t max_inflight);
  void close_conn(std::uint64_t conn_id);
  [[nodiscard]] bool drain_complete() const;

  service::CompileService& service_;
  ServerConfig config_;

  Socket listener_;
  int port_ = -1;
  Socket metrics_listener_;
  int metrics_port_ = -1;
  Socket wake_read_;
  Socket wake_write_;
  Poller poller_;
  std::thread loop_;
  std::atomic<bool> started_{false};
  std::atomic<bool> draining_{false};
  std::chrono::steady_clock::time_point started_at_{};  ///< set by start()

  // Registry handles (service_.metrics() is the source of truth).
  obs::Counter* accepted_ = nullptr;
  obs::Counter* rejected_ = nullptr;
  obs::Counter* frames_in_ = nullptr;
  obs::Counter* frames_out_ = nullptr;
  obs::Counter* partial_frames_ = nullptr;
  obs::Counter* error_frames_ = nullptr;
  obs::Counter* oversized_frames_ = nullptr;
  obs::Counter* shed_inflight_ = nullptr;
  obs::Counter* metrics_scrapes_ = nullptr;
  obs::Counter* profilez_requests_ = nullptr;
  obs::Histogram* scrape_seconds_ = nullptr;
  obs::Gauge* connections_active_ = nullptr;

  std::uint64_t next_conn_id_ = 1;
  std::unordered_map<std::uint64_t, Conn> conns_;
  std::unordered_map<int, std::uint64_t> fd_to_conn_;
  /// Compiles accepted by the service whose final frame has not yet been
  /// consumed by the loop; the drain waits for this to reach zero.
  std::size_t pending_ = 0;

  mutable std::mutex outbound_mutex_;
  std::vector<Outbound> outbound_;

  /// Profiling workers in flight; joined after the loop exits (their
  /// final frames hold pending_ up, so the drain already waited for
  /// them — the join only reclaims the thread handles).
  std::mutex profile_threads_mutex_;
  std::vector<std::thread> profile_threads_;
};

}  // namespace qrc::net

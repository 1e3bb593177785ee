// serve-fresh and serve-mixed: open-loop traffic from one generator thread
// over four TCP connections against a `qrc serve --listen` process
// (net::Server over CompileService), timed from each request's due time.
//
// serve-fresh sends only fresh greedy requests of 2-10 qubits, then runs a
// closed-loop capacity phase (serve-mixed runs the same phase after its
// open loop). It is the workload on which batching, framing, QASM
// decode/encode and the policy forward matter most, and on which search,
// verification and the result cache do no work at all.
//
// serve-mixed adds repeats of earlier circuits (cache hits), deadline-
// bounded beam searches and verified requests. It is the only workload
// with search, verification and cache reads next to inserts, and shows
// greedy requests waiting behind searches in the same lane.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <optional>
#include <random>
#include <sstream>
#include <thread>

#include "device/library.hpp"
#include "inputs.hpp"
#include "ir/qasm.hpp"
#include "net/socket.hpp"
#include "rl/thread_pool.hpp"
#include "service/jsonl.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace core = qrc::core;
using qrc::service::JsonValue;

namespace {

constexpr int kConnections = 4;
constexpr int kSetupRepeats = 11;
constexpr int kMinWidth = 2;
constexpr int kMaxWidth = 10;
/// Widest circuit of the verified class. The server verifies inside the
/// lane, and at 7-8 qubits one verification takes 0.1-0.5 s: the few that
/// land in a run then decide the greedy tail, which spread by up to 4x
/// between seeds.
constexpr int kMaxVerifiedClassQubits = 6;
/// Closed-loop window per connection, below the server's in-flight cap
/// of 32 per connection, so the capacity phase sheds nothing.
constexpr int kCapacityWindow = 16;
/// Size of the closed-loop capacity phase, in fresh greedy requests per
/// second of its share of the run: about half of what the server answers
/// per second on a quiet 4-vCPU host (about 6000), so the phase takes about
/// half its share there and up to twice that on a busy one, and every run
/// with its checks stays well inside its time limit. It runs until every
/// request is answered.
constexpr double kCapacityRequestsPerSecond = 3500.0;
/// The capacity phase runs in this many equal slices, each drained before
/// the next starts, so that the reference computation can run between
/// them while the server is idle. The phase's server CPU time is scaled to
/// the reference speed by the median of those runs: per slice, a single
/// 10 ms reference run was noisier than the server's CPU time per request.
constexpr int kCapacitySlices = 15;
/// How long a phase waits for answers (the open loop: after its last due
/// time); requests still unanswered then fail their checks.
constexpr double kGiveUpMs = 60000.0;
/// Open-loop rates: serve-fresh at about a sixth of the closed-loop rate
/// seen while the host was busy (2500/s; about 6000/s on a quiet host),
/// with Poisson arrivals (at a half or a third of it, the host's slow
/// periods turned bursts into backlogs that overran the in-flight cap);
/// serve-mixed where searches and verification keep the lane about half
/// busy, with evenly spaced arrivals (Poisson bursts put several 50 ms
/// searches into one batch, and the lane then fell behind for seconds).
constexpr double kFreshRate = 400.0;
constexpr double kMixedRate = 60.0;
/// Share of the run's seconds spent in the open-loop phase; the capacity
/// pool is sized to the rest.
constexpr double kOpenShare = 0.7;
/// Greedy samples the open loop needs for a p95 with ten beyond it.
constexpr std::size_t kTailSamples = 200;
/// A send later than this behind its due time marks the run invalid: the
/// generator fell behind its schedule, so the server set the arrivals.
constexpr double kMaxLateMs = 200.0;
/// Output checks that cost tens of milliseconds per circuit run on a
/// sample: direct verification of greedy results, and direct searches in
/// the traced run.
constexpr std::size_t kVerifySample = 48;
constexpr std::size_t kSearchSample = 40;
constexpr const char* kSearchSpec = "beam:4";
constexpr int kSearchDeadlineMs = 50;

enum class Class { kGreedy, kCached, kSearch, kVerify };

/// serve-mixed interleaves its classes in a fixed 20-request pattern: 65%
/// fresh greedy (G), 20% repeats (C), 10% beam searches (S), 5% verified
/// (V). Searches and verifications never cluster, so the greedy tail is
/// set by one search or verification ahead in the lane, not by chance
/// clusters, and every run sends the same class counts.
constexpr std::string_view kOpenPattern = "GCGSGCGGVGCGGSGCGGGG";

Class class_at(std::string_view pattern, std::size_t i) {
  switch (pattern[i % pattern.size()]) {
    case 'C':
      return Class::kCached;
    case 'S':
      return Class::kSearch;
    case 'V':
      return Class::kVerify;
    default:
      return Class::kGreedy;
  }
}

struct Request {
  Class cls = Class::kGreedy;
  int circuit = 0;      ///< index into the circuit pool
  int repeat_of = -1;   ///< kCached: the request whose circuit it repeats
  double due_ms = 0.0;  ///< open loop: from phase start
  std::string line;
};

struct Outcome {
  bool answered = false;
  bool ok = false;  ///< a "result" frame
  double sent_ms = 0.0;
  double done_ms = 0.0;
  double latency_us = 0.0;
  bool cached = false;
  bool search_fields = false;
  double reward = 0.0;
  std::string qasm;
  std::string device;
  std::string verdict;
  std::string error;
};

/// A `qrc serve --listen 127.0.0.1:0` child process.
class ServerProcess {
 public:
  ServerProcess(const std::string& cli, const std::string& model,
                const std::string& log_path) {
    std::ofstream(log_path, std::ios::trunc).close();  // no stale port
    const std::string model_flag = "fid=" + model;
    pid_ = ::fork();
    if (pid_ < 0) {
      throw std::runtime_error("fork failed");
    }
    if (pid_ == 0) {
      const int log = ::open(log_path.c_str(), O_WRONLY | O_APPEND);
      const int null = ::open("/dev/null", O_RDWR);
      ::dup2(null, 0);
      ::dup2(null, 1);
      ::dup2(log, 2);
      ::execl(cli.c_str(), "qrc_cli", "serve", "--model", model_flag.c_str(),
              "--listen", "127.0.0.1:0", static_cast<char*>(nullptr));
      ::_exit(127);
    }
    const auto start = Clock::now();
    while (port_ < 0) {
      std::ifstream is(log_path);
      std::stringstream text;
      text << is.rdbuf();
      const std::string log = text.str();
      const auto at = log.find("listening on 127.0.0.1:");
      if (at != std::string::npos) {
        port_ = std::atoi(log.c_str() + at + 23);
        break;
      }
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("qrc serve exited during start-up:\n" + log);
      }
      if (ms_since(start) > 60000) {
        throw std::runtime_error("qrc serve did not start listening");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  ~ServerProcess() { stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  [[nodiscard]] int port() const { return port_; }
  [[nodiscard]] int pid() const { return pid_; }

  /// SIGTERM drains the server; it is killed if it has not exited after
  /// ten seconds. Waits until the process is gone.
  void stop() {
    if (pid_ <= 0) {
      return;
    }
    ::kill(pid_, SIGTERM);
    const auto start = Clock::now();
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (ms_since(start) > 10000) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
  }

 private:
  pid_t pid_ = -1;
  int port_ = -1;
};

/// The generator: one thread multiplexing the connections with poll(2).
class LoadGen {
 public:
  LoadGen(int port, int connections) {
    for (int c = 0; c < connections; ++c) {
      conns_.emplace_back();
      conns_.back().sock = qrc::net::connect_tcp("127.0.0.1", port);
      qrc::net::set_nonblocking(conns_.back().sock.fd());
    }
  }

  /// Sends request `index` on connection `conn` at `now_ms`.
  void send(int conn, int index, const std::string& line, double now_ms) {
    Conn& c = conns_[static_cast<std::size_t>(conn)];
    c.out += line;
    outcomes_->at(static_cast<std::size_t>(index)).sent_ms = now_ms;
    bytes_sent_ += line.size();
    ++frames_sent_;
    flush(c);
  }

  /// Waits up to `timeout_ms` for socket events and handles every frame
  /// that arrived. Calls `on_done(index)` per finished request.
  template <class OnDone>
  void pump(double timeout_ms, Clock::time_point origin, OnDone&& on_done) {
    std::vector<pollfd> fds;
    for (auto& c : conns_) {
      const bool pending = c.out.size() > c.out_off;
      fds.push_back(pollfd{
          c.sock.fd(), static_cast<short>(POLLIN | (pending ? POLLOUT : 0)),
          0});
    }
    const double t = std::max(0.0, timeout_ms);
    timespec ts{static_cast<time_t>(t / 1000.0),
                static_cast<long>(std::fmod(t, 1000.0) * 1e6)};
    if (::ppoll(fds.data(), fds.size(), &ts, nullptr) <= 0) {
      return;
    }
    for (std::size_t i = 0; i < fds.size(); ++i) {
      Conn& c = conns_[i];
      if (fds[i].revents & POLLOUT) {
        flush(c);
      }
      if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
        read_frames(c, origin, on_done);
      }
    }
  }

  /// Sends a control op on connection 0 and waits for its reply frame.
  JsonValue control(const std::string& op) {
    Conn& c = conns_.front();
    const std::string line =
        "{\"v\":1,\"op\":" + json_string(op) + ",\"id\":\"ctl\"}\n";
    c.out += line;
    flush(c);
    const auto start = Clock::now();
    while (ms_since(start) < 30000) {
      pump(10, start, [](int) {});
      if (control_reply_.has_value()) {
        JsonValue reply = std::move(*control_reply_);
        control_reply_.reset();
        return reply;
      }
    }
    throw std::runtime_error("no reply to op " + op);
  }

  void bind(std::vector<Outcome>* outcomes) { outcomes_ = outcomes; }
  [[nodiscard]] std::uint64_t frames_sent() const { return frames_sent_; }
  [[nodiscard]] std::uint64_t frames_received() const { return frames_received_; }
  [[nodiscard]] std::uint64_t error_frames() const { return error_frames_; }
  [[nodiscard]] std::uint64_t bytes_sent() const { return bytes_sent_; }
  [[nodiscard]] std::uint64_t bytes_received() const { return bytes_received_; }

 private:
  struct Conn {
    qrc::net::Socket sock;
    std::string out;
    std::size_t out_off = 0;
    std::string in;
  };

  static void flush(Conn& c) {
    while (c.out_off < c.out.size()) {
      const ssize_t n = ::send(c.sock.fd(), c.out.data() + c.out_off,
                               c.out.size() - c.out_off, MSG_NOSIGNAL);
      if (n <= 0) {
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
          return;
        }
        throw std::runtime_error("send to the server failed");
      }
      c.out_off += static_cast<std::size_t>(n);
    }
    c.out.clear();
    c.out_off = 0;
  }

  template <class OnDone>
  void read_frames(Conn& c, Clock::time_point origin, OnDone&& on_done) {
    char buf[1 << 16];
    for (;;) {
      const ssize_t n = ::recv(c.sock.fd(), buf, sizeof(buf), 0);
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      }
      if (n <= 0) {
        throw std::runtime_error("the server closed a connection");
      }
      bytes_received_ += static_cast<std::uint64_t>(n);
      c.in.append(buf, static_cast<std::size_t>(n));
    }
    std::size_t start = 0;
    for (std::size_t nl; (nl = c.in.find('\n', start)) != std::string::npos;
         start = nl + 1) {
      ++frames_received_;
      handle_frame(std::string_view(c.in).substr(start, nl - start),
                   ms_since(origin), on_done);
    }
    c.in.erase(0, start);
  }

  template <class OnDone>
  void handle_frame(std::string_view text, double now_ms, OnDone&& on_done) {
    JsonValue frame = JsonValue::parse(text);
    const auto& obj = frame.as_object();
    const std::string& id = obj.at("id").as_string();
    const std::string& type = obj.at("type").as_string();
    if (type == "error") {
      ++error_frames_;
    }
    if (id == "ctl") {
      control_reply_ = std::move(frame);
      return;
    }
    if (type == "partial") {
      return;  // anytime search progress; the result frame follows
    }
    const int index = std::stoi(id.substr(1));
    Outcome& o = outcomes_->at(static_cast<std::size_t>(index));
    o.answered = true;
    o.done_ms = now_ms;
    o.ok = type == "result";
    if (!o.ok) {
      o.error = frame.dump();
    } else {
      o.latency_us = obj.at("latency_us").as_number();
      o.cached = obj.at("cached").as_bool();
      o.reward = obj.at("reward").as_number();
      o.qasm = obj.at("qasm").as_string();
      const JsonValue& device = obj.at("device");
      o.device = device.is_string() ? device.as_string() : "";
      if (const auto it = obj.find("verdict"); it != obj.end()) {
        o.verdict = it->second.as_string();
      }
      o.search_fields = obj.find("search") != obj.end();
    }
    on_done(index);
  }

  std::vector<Conn> conns_;
  std::vector<Outcome>* outcomes_ = nullptr;
  std::optional<JsonValue> control_reply_;
  std::uint64_t frames_sent_ = 0;
  std::uint64_t frames_received_ = 0;
  std::uint64_t error_frames_ = 0;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t bytes_received_ = 0;
};

std::string request_line(int index, const std::string& qasm, Class cls) {
  std::string line = "{\"v\":1,\"op\":\"compile\",\"id\":\"r" +
                     std::to_string(index) + "\",\"qasm\":" + json_string(qasm);
  if (cls == Class::kSearch) {
    line += ",\"search\":\"" + std::string(kSearchSpec) +
            "\",\"deadline_ms\":" + std::to_string(kSearchDeadlineMs);
  } else if (cls == Class::kVerify) {
    line += ",\"verify\":true";
  }
  return line + "}\n";
}

/// Start-up of one server, in ms: from fork to the answer of a first
/// compile.
double start_server_ms(const Context& ctx,
                       std::optional<ServerProcess>& server,
                       const std::string& warmup_qasm) {
  const auto start = Clock::now();
  server.emplace(ctx.build_dir + "/qrc_cli", ctx.model_path,
                 ctx.build_dir + "/serve.log");
  qrc::net::Socket sock = qrc::net::connect_tcp("127.0.0.1", server->port());
  qrc::net::send_all(sock.fd(), request_line(0, warmup_qasm, Class::kGreedy));
  qrc::net::LineReader reader(sock.fd());
  const auto reply = reader.next_line();
  if (!reply.has_value() ||
      reply->find("\"type\":\"result\"") == std::string::npos) {
    throw std::runtime_error("qrc serve did not answer the warm-up compile");
  }
  return ms_since(start);
}

}  // namespace

RunOutput run_serve(const Context& ctx, bool mixed) {
  RunOutput out;
  const auto budget_ms = 1000.0 * ctx.seconds;

  // Inputs. The warm-up circuit is 11 qubits wide, so no request repeats it.
  const std::string warmup_qasm = qrc::ir::to_qasm(
      qrc::bench::make_benchmark(qrc::bench::BenchmarkFamily::kGhz, 11));
  // Widths cycle per class (2-10 qubits, verified class 2-6), so every run
  // sends each class the same width mix: search and verification times
  // grow steeply with width.
  FreshStream stream(ctx.seed);
  std::vector<FreshCircuit> pool;
  std::map<Class, int> drawn;
  const auto fresh = [&](Class cls) {
    const int widths =
        (cls == Class::kVerify ? kMaxVerifiedClassQubits : kMaxWidth) -
        kMinWidth + 1;
    pool.push_back(stream.next(kMinWidth + drawn[cls]++ % widths));
    return static_cast<int>(pool.size()) - 1;
  };

  // Open-loop schedule at the workload's rate (Poisson for serve-fresh,
  // evenly spaced for serve-mixed), for the open share of the run and at
  // least until enough greedy requests for a p95 are due.
  std::mt19937_64 rng(ctx.seed * 0x2545F4914F6CDD1DULL + 3);
  const double rate = mixed ? kMixedRate : kFreshRate;
  std::exponential_distribution<double> gap(rate / 1000.0);
  std::vector<Request> open;
  std::vector<int> recent_greedy;
  std::size_t greedy_due = 0;
  double due = 0.0;
  while (due < kOpenShare * budget_ms || greedy_due < kTailSamples + 50) {
    due += mixed ? 1000.0 / rate : gap(rng);
    Request r;
    r.due_ms = due;
    r.cls = mixed ? class_at(kOpenPattern, open.size()) : Class::kGreedy;
    if (r.cls == Class::kCached) {
      // Repeat a fresh greedy request due at least a second earlier and
      // recent enough to still be in the 1024-entry cache.
      std::vector<int> eligible;
      for (auto it = recent_greedy.rbegin();
           it != recent_greedy.rend() && eligible.size() < 256; ++it) {
        if (open[static_cast<std::size_t>(*it)].due_ms <= due - 1000.0) {
          eligible.push_back(*it);
        }
      }
      if (eligible.empty()) {
        r.cls = Class::kGreedy;
      } else {
        r.repeat_of = eligible[rng() % eligible.size()];
        r.circuit = open[static_cast<std::size_t>(r.repeat_of)].circuit;
      }
    }
    if (r.cls != Class::kCached) {
      r.circuit = fresh(r.cls);
    }
    const int index = static_cast<int>(open.size());
    if (r.cls == Class::kGreedy) {
      recent_greedy.push_back(index);
      ++greedy_due;
    }
    r.line = request_line(index, pool[static_cast<std::size_t>(r.circuit)].qasm,
                          r.cls);
    open.push_back(std::move(r));
  }

  // Closed-loop capacity phase: a fixed pool of fresh greedy requests on
  // both workloads, all drawn here, before set-up, so that circuit
  // generation neither slows the generator thread nor competes with the
  // server for the host's cores while the phase is timed. Greedy only: a
  // deadline-bounded search takes its 50 ms of wall time whatever CPU it
  // gets, so with searches in the loop the completions per CPU-second rose
  // by 70% while other tenants slowed the host. On serve-mixed this phase
  // measures the greedy path after mixed traffic has filled the cache.
  const int n_open = static_cast<int>(open.size());
  std::vector<Request> closed(static_cast<std::size_t>(
      kCapacityRequestsPerSecond * (1.0 - kOpenShare) * ctx.seconds));
  for (std::size_t k = 0; k < closed.size(); ++k) {
    closed[k].circuit = fresh(Class::kGreedy);
    closed[k].line = request_line(
        n_open + static_cast<int>(k),
        pool[static_cast<std::size_t>(closed[k].circuit)].qasm, Class::kGreedy);
  }

  // Set-up: start the server to its first answer, several times, each
  // at the reference host speed.
  std::vector<double> setup_s;
  std::optional<ServerProcess> server;
  HostSpeed host;
  for (int i = 0; i < kSetupRepeats; ++i) {
    if (server.has_value()) {
      server->stop();
      server.reset();
      host.restart();
    }
    setup_s.push_back(
        host.scale(start_server_ms(ctx, server, warmup_qasm)) / 1000.0);
  }
  out.metrics.set("setup_s", median(setup_s), "s");

  // Open-loop phase.
  std::vector<Outcome> outcomes(static_cast<std::size_t>(n_open));
  LoadGen gen(server->port(), kConnections);
  gen.bind(&outcomes);
  double max_late_ms = 0.0;
  {
    int next = 0;
    int done = 0;
    const auto t0 = Clock::now();
    const double give_up_ms = open.back().due_ms + kGiveUpMs;
    while (done < n_open && ms_since(t0) < give_up_ms) {
      double now = ms_since(t0);
      while (next < n_open && open[static_cast<std::size_t>(next)].due_ms <= now) {
        const Request& r = open[static_cast<std::size_t>(next)];
        max_late_ms = std::max(max_late_ms, now - r.due_ms);
        gen.send(next % kConnections, next, r.line, now);
        ++next;
        now = ms_since(t0);
      }
      const double wait =
          next < n_open ? open[static_cast<std::size_t>(next)].due_ms - now : 5.0;
      gen.pump(wait, t0, [&](int) { ++done; });
    }
  }
  if (max_late_ms > kMaxLateMs) {
    out.invalid = "the generator fell behind its schedule by " +
                  std::to_string(max_late_ms) + " ms";
  }

  // Closed-loop capacity phase; request ids continue after the open loop.
  // compile_cps counts completions per CPU-second of the server process
  // (throughput per core, as on corpus-offline), at the reference host
  // speed: the wall-clock capacity swung 3x between runs while other
  // tenants held the host's cores, and stays a per-layer figure.
  std::size_t capacity_done = 0;
  double capacity_wall_s = 0.0;
  double capacity_cpu_s = 0.0;
  std::vector<double> reference_samples_ms;
  {
    outcomes.resize(open.size() + closed.size());
    std::vector<int> conn_of(closed.size(), 0);
    std::vector<int> ready;
    std::size_t next = 0;
    std::size_t slice_end = 0;
    const auto t0 = Clock::now();
    const auto send_next = [&](int c) {
      if (next < slice_end) {
        conn_of[next] = c;
        gen.send(c, n_open + static_cast<int>(next), closed[next].line,
                 ms_since(t0));
        ++next;
      }
    };
    const auto on_done = [&](int index) {
      if (index >= n_open) {
        ++capacity_done;
        ready.push_back(conn_of[static_cast<std::size_t>(index - n_open)]);
      }
    };
    reference_samples_ms.push_back(reference_ms());
    for (int slice = 1; slice <= kCapacitySlices; ++slice) {
      slice_end = closed.size() * static_cast<std::size_t>(slice) /
                  static_cast<std::size_t>(kCapacitySlices);
      const double cpu_start = process_cpu_s(server->pid());
      const auto slice_start = Clock::now();
      for (int c = 0; c < kConnections; ++c) {
        for (int w = 0; w < kCapacityWindow; ++w) {
          send_next(c);
        }
      }
      while (capacity_done < slice_end && ms_since(t0) < kGiveUpMs) {
        gen.pump(1.0, t0, on_done);
        for (const int c : ready) {
          send_next(c);
        }
        ready.clear();
      }
      capacity_wall_s += ms_since(slice_start) / 1000.0;
      capacity_cpu_s += process_cpu_s(server->pid()) - cpu_start;
      reference_samples_ms.push_back(reference_ms());
      if (capacity_done < slice_end) {
        break;  // gave up; the unanswered requests fail their checks
      }
    }
  }
  const auto done = static_cast<double>(capacity_done);
  const double capacity_reference_cpu_s =
      at_reference_speed(capacity_cpu_s, median(reference_samples_ms));
  out.metrics.set("compile_cps",
                  capacity_reference_cpu_s > 0.0
                      ? done / capacity_reference_cpu_s
                      : 0.0,
                  "1/s");
  out.metrics.set("loadgen.capacity_rps", done / capacity_wall_s, "1/s");

  std::optional<JsonValue> stats;
  std::string exposition;
  if (ctx.trace) {
    stats = gen.control("stats");
    exposition = gen.control("metrics").as_object().at("body").as_string();
  }
  out.metrics.set("peak_rss_mb", peak_rss_mb(server->pid()), "MiB");
  server->stop();

  // Every request, both phases, in one list.
  std::vector<Request> requests = std::move(open);
  for (auto& r : closed) {
    requests.push_back(std::move(r));
  }
  const int n = static_cast<int>(requests.size());
  out.checks.outputs(static_cast<std::size_t>(n));

  const auto circuit_of = [&](int i) -> const qrc::ir::Circuit& {
    const Request& r = requests[static_cast<std::size_t>(i)];
    return pool[static_cast<std::size_t>(r.circuit)].circuit;
  };

  // Frames and latencies.
  std::vector<double> greedy_ms, cached_ms, search_ms, verify_ms;
  std::vector<double> overhead_ms;
  std::uint64_t completed = 0;
  for (int i = 0; i < n; ++i) {
    const Request& r = requests[static_cast<std::size_t>(i)];
    const Outcome& o = outcomes[static_cast<std::size_t>(i)];
    out.checks.expect(static_cast<std::size_t>(i), o.answered && o.ok,
                      "request r" + std::to_string(i) + " got no result frame " +
                          o.error);
    if (!o.answered || !o.ok) {
      continue;
    }
    ++completed;
    overhead_ms.push_back((o.done_ms - o.sent_ms) - o.latency_us / 1000.0);
    if (i >= n_open) {
      continue;
    }
    const double from_due = o.done_ms - r.due_ms;
    switch (r.cls) {
      case Class::kGreedy:
        greedy_ms.push_back(from_due);
        break;
      case Class::kCached:
        if (o.cached) {
          cached_ms.push_back(from_due);
        }
        break;
      case Class::kSearch:
        search_ms.push_back(from_due);
        break;
      case Class::kVerify:
        verify_ms.push_back(from_due);
        break;
    }
  }

  // Checks of each answered request against `d`, the direct compile of its
  // circuit. The served text is dropped once checked.
  const auto check = [&](int i, const core::CompilationResult& d) {
    const Request& r = requests[static_cast<std::size_t>(i)];
    Outcome& o = outcomes[static_cast<std::size_t>(i)];
    if (!o.answered || !o.ok) {
      return;
    }
    const std::string tag = "request r" + std::to_string(i);
    const auto item = static_cast<std::size_t>(i);
    double fidelity = 0.0;
    if (r.cls == Class::kSearch) {
      // Anytime results are not reproducible; they must be executable,
      // carry the search fields and never fall below the greedy result.
      out.checks.expect(item, o.search_fields && o.reward >= d.reward,
                        tag + " search result below its greedy baseline");
      if (!o.device.empty()) {
        fidelity = qrc::reward::expected_fidelity(
            qrc::ir::from_qasm(o.qasm), qrc::device::device_by_name(o.device));
      }
    } else {
      out.checks.expect(item,
                        d.device != nullptr && o.device == d.device->name() &&
                            o.qasm == qrc::ir::to_qasm(d.circuit),
                        tag + " differs from the direct compile");
      // Fresh circuits never hit the cache; a repeat must, unless its
      // original was still being compiled when the repeat was sent.
      const bool cache_ok =
          r.cls != Class::kCached
              ? !o.cached
              : o.cached || outcomes[static_cast<std::size_t>(r.repeat_of)]
                                    .done_ms >= o.sent_ms;
      out.checks.expect(
          item, cache_ok,
          tag + (o.cached ? " was a cache hit" : " missed the cache"));
      if (d.device != nullptr) {
        fidelity = qrc::reward::expected_fidelity(d.circuit, *d.device);
      }
      if (r.cls == Class::kVerify) {
        out.checks.expect(item, o.verdict == "equivalent",
                          tag + " verdict " + o.verdict);
      }
    }
    out.checks.expect(item, fidelity > 0.0, tag + " is not executable");
    std::string().swap(o.qasm);
  };

  // Direct work: every circuit that was not a repeat, compiled through the
  // library in batches of 32 and checked batch by batch, so that only one
  // batch of compiled circuits is held at a time. Kept from them: the
  // expected fidelity (quality metrics) and, for a sample of greedy
  // results of at most 8 qubits, the result itself (verification).
  std::vector<int> direct_ids;
  std::vector<std::vector<int>> repeats(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const Request& r = requests[static_cast<std::size_t>(i)];
    if (r.cls == Class::kCached) {
      repeats[static_cast<std::size_t>(r.repeat_of)].push_back(i);
    } else {
      direct_ids.push_back(i);
    }
  }
  const core::Predictor predictor = load_predictor(ctx.model_path);
  std::vector<double> direct_fidelity(static_cast<std::size_t>(n), 0.0);
  std::vector<std::pair<int, core::CompilationResult>> verify_sample;
  for (std::size_t b = 0; b < direct_ids.size(); b += 32) {
    const std::size_t end = std::min(direct_ids.size(), b + 32);
    std::vector<qrc::ir::Circuit> batch;
    for (std::size_t k = b; k < end; ++k) {
      batch.push_back(circuit_of(direct_ids[k]));
    }
    auto results = predictor.compile_all(batch);
    for (std::size_t k = b; k < end; ++k) {
      const int i = direct_ids[k];
      auto& d = results[k - b];
      check(i, d);
      for (const int j : repeats[static_cast<std::size_t>(i)]) {
        check(j, d);
      }
      if (d.device != nullptr) {
        direct_fidelity[static_cast<std::size_t>(i)] =
            qrc::reward::expected_fidelity(d.circuit, *d.device);
      }
      if (requests[static_cast<std::size_t>(i)].cls == Class::kGreedy &&
          outcomes[static_cast<std::size_t>(i)].ok &&
          verify_sample.size() < kVerifySample &&
          circuit_of(i).num_qubits() <= kMaxVerifyQubits) {
        verify_sample.emplace_back(i, std::move(d));
      }
    }
  }
  qrc::rl::WorkerPool check_pool(kCheckThreads);
  std::vector<char> equivalent(verify_sample.size(), 0);
  check_pool.parallel_for(static_cast<int>(verify_sample.size()), [&](int k) {
    const auto& [i, d] = verify_sample[static_cast<std::size_t>(k)];
    equivalent[static_cast<std::size_t>(k)] =
        core::verify_compilation(circuit_of(i), d).equivalent();
  });
  for (std::size_t k = 0; k < verify_sample.size(); ++k) {
    const int i = verify_sample[k].first;
    out.checks.expect(static_cast<std::size_t>(i), equivalent[k] != 0,
                      "request r" + std::to_string(i) + " not verified equivalent");
  }

  out.metrics.set("loadgen.sent", static_cast<double>(n), "count");
  out.metrics.set("loadgen.completed", static_cast<double>(completed), "count");
  out.metrics.set("loadgen.max_late_ms", max_late_ms, "ms");
  std::fprintf(stderr,
               "perfbench: %d requests; greedy from due time p10 %.2f p50 "
               "%.2f p90 %.2f p95 %.2f ms over %zu; capacity phase %zu in "
               "%.2f s, %.2f server CPU-s as measured, %.2f at the reference "
               "speed\n",
               n, percentile(greedy_ms, 10.0, 0).value_or(0.0),
               median(greedy_ms), percentile(greedy_ms, 90.0, 0).value_or(0.0),
               percentile(greedy_ms, 95.0, 0).value_or(0.0), greedy_ms.size(),
               capacity_done, capacity_wall_s, capacity_cpu_s,
               capacity_reference_cpu_s);
  out.metrics.set("class.greedy_p50_ms", median(greedy_ms), "ms");
  if (const auto p95 = percentile(greedy_ms, 95.0)) {
    out.metrics.set("class.greedy_p95_ms", *p95, "ms");
  } else {
    out.invalid = "too few greedy requests for a p95";
  }
  out.metrics.set("class.cached_p50_ms", median(cached_ms), "ms");
  out.metrics.set("class.search_p50_ms", median(search_ms), "ms");
  out.metrics.set("class.verify_p50_ms", median(verify_ms), "ms");

  if (!ctx.trace) {
    // Quality, a function of the seed alone: the open loop's fresh greedy
    // and verified circuits (the seed fixes which and how many), through
    // their direct compiles, which the served results equal. fidelity_mean
    // averages all of them; beats_baselines_frac takes the first circuit
    // of each (family, width) cell against the two baselines on
    // ibmq_washington.
    double fidelity_sum = 0.0;
    std::size_t fidelity_n = 0;
    std::map<std::pair<int, int>, int> cells;
    for (int i = 0; i < n_open; ++i) {
      const Request& r = requests[static_cast<std::size_t>(i)];
      if (r.cls != Class::kGreedy && r.cls != Class::kVerify) {
        continue;
      }
      fidelity_sum += direct_fidelity[static_cast<std::size_t>(i)];
      ++fidelity_n;
      const auto& spec = pool[static_cast<std::size_t>(r.circuit)].spec;
      cells.emplace(std::make_pair(static_cast<int>(spec.family), spec.width), i);
    }
    out.metrics.set("fidelity_mean",
                    fidelity_n > 0 ? fidelity_sum / fidelity_n : 0.0, "1");
    std::vector<int> sample;
    for (const auto& [cell, i] : cells) {
      sample.push_back(i);
    }
    std::vector<char> beats(sample.size(), 0);
    check_pool.parallel_for(static_cast<int>(sample.size()), [&](int k) {
      const int i = sample[static_cast<std::size_t>(k)];
      beats[static_cast<std::size_t>(k)] = beats_baselines(
          circuit_of(i), direct_fidelity[static_cast<std::size_t>(i)]);
    });
    out.metrics.set("beats_baselines_frac",
                    sample.empty() ? 0.0
                                   : static_cast<double>(std::count(
                                         beats.begin(), beats.end(), 1)) /
                                         static_cast<double>(sample.size()),
                    "1");
    return out;
  }

  // Traced run: split each open-loop request into net, service and work.
  const auto& st = stats->as_object();
  const auto stat = [&](const char* key) { return st.at(key).as_number(); };
  double evictions = 0.0;
  {
    std::istringstream lines(exposition);
    std::string line;
    while (std::getline(lines, line)) {
      if (line.rfind("qrc_cache_evictions_total", 0) == 0) {
        evictions += std::stod(line.substr(line.rfind(' ') + 1));
      }
    }
  }
  out.metrics.set("service.requests", stat("requests"), "count");
  out.metrics.set("service.batches", stat("batches"), "count");
  out.metrics.set("service.batch_size_mean",
                  stat("batches") > 0 ? stat("batched_requests") / stat("batches")
                                      : 0.0,
                  "count");
  out.metrics.set("service.cache_hit_frac",
                  stat("requests") > 0 ? stat("cache_hits") / stat("requests") : 0.0,
                  "ratio");
  out.metrics.set("service.cache_evictions", evictions, "count");
  out.metrics.set("service.shed", stat("shed"), "count");
  out.metrics.set("service.partials", stat("partials"), "count");
  out.metrics.set("net.frames_in", static_cast<double>(gen.frames_sent()), "count");
  out.metrics.set("net.frames_out", static_cast<double>(gen.frames_received()),
                  "count");
  out.metrics.set("net.error_frames", static_cast<double>(gen.error_frames()),
                  "count");
  out.metrics.set("net.bytes_in", static_cast<double>(gen.bytes_sent()), "B");
  out.metrics.set("net.bytes_out", static_cast<double>(gen.bytes_received()), "B");
  out.metrics.set("net.overhead_p50_ms", median(overhead_ms), "ms");
  if (const auto p99 = percentile(overhead_ms, 99.0)) {
    out.metrics.set("net.overhead_p99_ms", *p99, "ms");
  }

  Ledger ledger;
  std::vector<double> service_latency_ms;
  std::vector<double> wait_ms;
  std::vector<int> group_steps;
  const int group = std::max(1, static_cast<int>(std::lround(out.metrics.value(
                                    "service.batch_size_mean"))));
  for (int i = 0; i < n_open; ++i) {
    const Request& r = requests[static_cast<std::size_t>(i)];
    const Outcome& o = outcomes[static_cast<std::size_t>(i)];
    if (!o.ok) {
      continue;
    }
    service_latency_ms.push_back(o.latency_us / 1000.0);
    const auto& circuit = pool[static_cast<std::size_t>(r.circuit)].circuit;
    const auto& text = pool[static_cast<std::size_t>(r.circuit)].qasm;
    ledger.time(static_cast<std::uint32_t>(i), "ir", "parse",
                [&] { return qrc::ir::from_qasm(text); });
    ledger.add_count("ir.parse.bytes", static_cast<double>(text.size()));
    if (r.cls != Class::kGreedy && r.cls != Class::kVerify) {
      continue;
    }
    const auto start = Clock::now();
    const auto result = predictor.compile(circuit);
    const double compile_ms = ms_since(start);
    ledger.add_count("core.compile_wall_ms", compile_ms);
    if (r.cls == Class::kGreedy) {
      wait_ms.push_back(o.latency_us / 1000.0 - compile_ms);
    }
    ledger.time(static_cast<std::uint32_t>(i), "ir", "emit",
                [&] { return qrc::ir::to_qasm(result.circuit); });
    const auto replay_start = Clock::now();
    out.checks.expect(static_cast<std::size_t>(i),
                      replay_greedy(circuit, result, ctx.replay, ledger,
                                    static_cast<std::uint32_t>(i),
                                    /*forward=*/false),
                      "replay differs on request r" + std::to_string(i));
    group_steps.push_back(greedy_steps(result));
    if (static_cast<int>(group_steps.size()) == group) {
      time_batched_forwards(group_steps, *ctx.replay.policy, ledger,
                            static_cast<std::uint32_t>(i));
      group_steps.clear();
    }
    ledger.add_count("core.replay_wall_ms", ms_since(replay_start));
    if (r.cls == Class::kVerify) {
      const auto v_start = Clock::now();
      const auto verdict = core::verify_compilation(circuit, result);
      ledger.record(static_cast<std::uint32_t>(i), "verify",
                    std::string(qrc::verify::method_name(verdict.method)),
                    v_start, Clock::now());
      if (verdict.verdict == qrc::verify::Verdict::kNotEquivalent) {
        ledger.add_count("verify.refuted", 1);
      } else if (verdict.verdict == qrc::verify::Verdict::kUnknown) {
        ledger.add_count("verify.unknown", 1);
      }
    }
  }
  time_batched_forwards(group_steps, *ctx.replay.policy, ledger, 0);
  out.metrics.set("service.latency_p50_ms", median(service_latency_ms), "ms");
  out.metrics.set("service.wait_p50_ms", median(wait_ms), "ms");

  // Search work: a sample of the searched circuits, searched directly.
  auto options = qrc::search::parse_spec(kSearchSpec);
  options.deadline_ms = kSearchDeadlineMs;
  double nodes = 0.0, evals = 0.0, hits = 0.0, elapsed_us = 0.0;
  double improved = 0.0, deadline_hits = 0.0, delta = 0.0, searches = 0.0;
  for (int i = 0; i < n_open && searches < kSearchSample; ++i) {
    const Request& r = requests[static_cast<std::size_t>(i)];
    if (r.cls != Class::kSearch) {
      continue;
    }
    const auto result =
        ledger.time(static_cast<std::uint32_t>(i), "search", "run", [&] {
          return predictor.compile_search(circuit_of(i), options);
        });
    const auto& s = *result.search_stats;
    searches += 1;
    nodes += static_cast<double>(s.nodes_expanded);
    evals += static_cast<double>(s.policy_evals);
    hits += static_cast<double>(s.transposition_hits);
    elapsed_us += static_cast<double>(s.elapsed_us);
    improved += s.improved ? 1 : 0;
    deadline_hits += s.deadline_hit ? 1 : 0;
    delta += result.reward - s.baseline_reward;
  }
  out.metrics.set("search.calls", searches, "count");
  out.metrics.set("search.nodes_expanded", nodes, "count");
  out.metrics.set("search.nodes_per_s",
                  elapsed_us > 0 ? nodes / (elapsed_us / 1e6) : 0.0, "1/s");
  out.metrics.set("search.policy_evals", evals, "count");
  out.metrics.set("search.transposition_hits", hits, "count");
  out.metrics.set("search.improved_frac", searches > 0 ? improved / searches : 0.0,
                  "ratio");
  out.metrics.set("search.deadline_hit_frac",
                  searches > 0 ? deadline_hits / searches : 0.0, "ratio");
  out.metrics.set("search.reward_delta_mean", searches > 0 ? delta / searches : 0.0,
                  "1");

  ledger_metrics(ledger, out.metrics);
  ledger.write_jsonl(trace_path(ctx));
  return out;
}

}  // namespace perfbench

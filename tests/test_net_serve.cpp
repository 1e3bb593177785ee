// Tests for the serve layer: the v1 wire envelope and its codecs, the
// non-blocking TCP server — many concurrent clients, bitwise agreement
// with direct Predictor::compile(), malformed/oversized frame handling,
// typed "overloaded" load shedding at both the per-connection and
// per-lane bounds, partial-then-final streaming for deadline-bounded
// searches — graceful drain semantics, and the stdio front end: a server
// without a listener serving one handed-in socketpair connection.

#include <gtest/gtest.h>
#include <sys/socket.h>

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_suite/benchmarks.hpp"
#include "core/predictor.hpp"
#include "ir/qasm.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "service/compile_service.hpp"
#include "service/errors.hpp"
#include "service/jsonl.hpp"

namespace {

using qrc::bench::BenchmarkFamily;
using qrc::core::Predictor;
using qrc::ir::Circuit;
using qrc::reward::RewardKind;
using qrc::service::CompileService;
using qrc::service::ErrorCode;
using qrc::service::JsonValue;
using qrc::service::ServeOp;
using qrc::service::ServiceConfig;
using qrc::service::ServiceError;

Circuit small_ghz() {
  Circuit c(3, "ghz3");
  c.h(0);
  c.cx(0, 1);
  c.cx(1, 2);
  c.measure_all();
  return c;
}

/// One tiny trained model shared across tests (training is the slow part;
/// every compile path on it is const and thread-safe).
const Predictor& shared_model() {
  static auto* model = [] {
    qrc::core::PredictorConfig config;
    config.reward = RewardKind::kFidelity;
    config.seed = 11;
    config.ppo.total_timesteps = 512;
    config.ppo.steps_per_update = 256;
    config.ppo.hidden_sizes = {16};
    auto* predictor = new Predictor(config);
    (void)predictor->train({small_ghz()});
    return predictor;
  }();
  return *model;
}

std::shared_ptr<const Predictor> shared_handle() {
  return {&shared_model(), [](const Predictor*) {}};
}

/// A compile service with the shared model plus a listening server on an
/// ephemeral port. Declaration order matters: the service must outlive
/// the server, so it is declared (and thus destroyed) after it.
struct TestServer {
  CompileService service;
  qrc::net::Server server;

  explicit TestServer(ServiceConfig service_config = {},
                      qrc::net::ServerConfig net_config = {})
      : service(std::move(service_config)),
        server(service, [&net_config] {
          net_config.host = "127.0.0.1";
          net_config.port = 0;
          return net_config;
        }()) {
    service.registry().add("fidelity", shared_handle());
    server.start();
  }

  [[nodiscard]] int port() const { return server.port(); }
};

/// A blocking line-oriented client connection.
struct Client {
  qrc::net::Socket sock;
  qrc::net::LineReader reader;

  explicit Client(int port)
      : sock(qrc::net::connect_tcp("127.0.0.1", port)),
        reader(sock.fd()) {}

  void send(const std::string& line) {
    qrc::net::send_all(sock.fd(), line + "\n");
  }
  std::optional<std::string> recv() { return reader.next_line(); }
};

/// What the server actually compiles: the circuit after its trip through
/// QASM text. Serialisation prints angles with finite precision, so the
/// direct-comparison baselines must compile this, not the original.
Circuit wire_roundtrip(const Circuit& circuit) {
  return qrc::ir::from_qasm(qrc::ir::to_qasm(circuit));
}

std::string compile_request(const std::string& id, const Circuit& circuit,
                            const std::string& extra = "") {
  return "{\"v\":1,\"op\":\"compile\",\"id\":" +
         qrc::service::json_quote(id) +
         ",\"qasm\":" + qrc::service::json_quote(qrc::ir::to_qasm(circuit)) +
         extra + "}";
}

const JsonValue::Object& as_object(const JsonValue& v) {
  return v.as_object();
}

std::string str_field(const JsonValue& v, const std::string& key) {
  const auto& obj = as_object(v);
  const auto it = obj.find(key);
  if (it == obj.end()) {
    ADD_FAILURE() << "missing field '" << key << "' in " << v.dump();
    return "";
  }
  return it->second.as_string();
}

bool has_field(const JsonValue& v, const std::string& key) {
  return as_object(v).count(key) > 0;
}

/// The "error"."code" of a v1 error frame.
std::string error_code(const JsonValue& v) {
  return str_field(as_object(v).at("error"), "code");
}

// --------------------------------------------------------- codecs only ---

TEST(ServeProtocolTest, V1CompileEnvelopeRoundTrips) {
  const auto request = qrc::service::parse_serve_request(
      "{\"v\":1,\"op\":\"compile\",\"id\":7,\"model\":\"m\","
      "\"qasm\":\"OPENQASM 2.0;\",\"verify\":true,"
      "\"search\":\"beam:6\",\"deadline_ms\":250}");
  EXPECT_EQ(request.op, ServeOp::kCompile);
  EXPECT_EQ(request.id, "7");
  EXPECT_EQ(request.model, "m");
  EXPECT_TRUE(request.verify);
  ASSERT_TRUE(request.search.has_value());
  EXPECT_EQ(request.search->beam_width, 6);
  EXPECT_EQ(request.search->deadline_ms, 250);
}

TEST(ServeProtocolTest, V1ControlOpsParse) {
  const auto ping = qrc::service::parse_serve_request(
      "{\"v\":1,\"op\":\"ping\",\"id\":\"p\"}");
  EXPECT_EQ(ping.op, ServeOp::kPing);
  EXPECT_EQ(ping.id, "p");
  const auto stats = qrc::service::parse_serve_request(
      "{\"v\":1,\"op\":\"stats\",\"id\":\"s\"}");
  EXPECT_EQ(stats.op, ServeOp::kStats);

  // Compile payload fields are rejected on control ops.
  EXPECT_THROW(qrc::service::parse_serve_request(
                   "{\"v\":1,\"op\":\"ping\",\"qasm\":\"x\"}"),
               ServiceError);
  // Unknown ops are rejected.
  EXPECT_THROW(qrc::service::parse_serve_request(
                   "{\"v\":1,\"op\":\"reboot\"}"),
               ServiceError);
}

TEST(ServeProtocolTest, UnsupportedVersionIsTyped) {
  try {
    (void)qrc::service::parse_serve_request("{\"v\":2,\"op\":\"ping\"}");
    FAIL() << "expected ServiceError";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kUnsupportedVersion);
  }
  // A bare line without "v" is refused the same way, pointing at the fix.
  try {
    (void)qrc::service::parse_serve_request(
        "{\"id\":\"legacy\",\"qasm\":\"OPENQASM 2.0;\"}");
    FAIL() << "expected ServiceError";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kUnsupportedVersion);
    EXPECT_NE(std::string(e.what()).find("\"v\":1"), std::string::npos)
        << e.what();
  }
}

TEST(ServeProtocolTest, ResponseLinesAreVersionShaped) {
  qrc::service::ServiceResponse response;
  response.id = "r1";
  response.model = "m";
  const auto v1 =
      JsonValue::parse(qrc::service::serve_response_line(response));
  EXPECT_EQ(str_field(v1, "type"), "result");

  const auto typed_error = JsonValue::parse(qrc::service::serve_error_line(
      "e1", ErrorCode::kOverloaded, "busy"));
  EXPECT_EQ(str_field(typed_error, "type"), "error");
  EXPECT_EQ(error_code(typed_error), "overloaded");
  EXPECT_EQ(str_field(as_object(typed_error).at("error"), "message"),
            "busy");

  qrc::search::SearchProgress progress;
  progress.quantum = 3;
  progress.nodes_expanded = 42;
  progress.found_terminal = true;
  progress.best_reward = 0.5;
  const auto partial = JsonValue::parse(
      qrc::service::serve_partial_line("s1", progress));
  EXPECT_EQ(str_field(partial, "type"), "partial");
  EXPECT_EQ(as_object(partial).at("quantum").as_number(), 3.0);
  EXPECT_EQ(as_object(partial).at("nodes").as_number(), 42.0);
  EXPECT_TRUE(as_object(partial).at("found_terminal").as_bool());
}

TEST(ServeProtocolTest, ErrorCodeNamesAreWireStable) {
  EXPECT_EQ(qrc::service::error_code_name(ErrorCode::kBadRequest),
            "bad_request");
  EXPECT_EQ(qrc::service::error_code_name(ErrorCode::kUnknownModel),
            "unknown_model");
  EXPECT_EQ(qrc::service::error_code_name(ErrorCode::kOverloaded),
            "overloaded");
  EXPECT_EQ(qrc::service::error_code_name(ErrorCode::kShuttingDown),
            "shutting_down");
  EXPECT_EQ(qrc::service::error_code_name(ErrorCode::kFrameTooLarge),
            "frame_too_large");
  EXPECT_EQ(qrc::service::error_code_name(ErrorCode::kUnsupportedVersion),
            "unsupported_version");
  EXPECT_EQ(qrc::service::error_code_name(ErrorCode::kInternal),
            "internal");
}

// --------------------------------------------------------- live server ---

TEST(NetServeTest, PingStatsAndUnknownModel) {
  TestServer ts;
  Client client(ts.port());

  client.send("{\"v\":1,\"op\":\"ping\",\"id\":\"p1\"}");
  auto line = client.recv();
  ASSERT_TRUE(line.has_value());
  auto frame = JsonValue::parse(*line);
  EXPECT_EQ(str_field(frame, "id"), "p1");
  EXPECT_EQ(str_field(frame, "type"), "result");
  EXPECT_EQ(str_field(frame, "op"), "ping");

  client.send("{\"v\":1,\"op\":\"stats\",\"id\":\"s1\"}");
  line = client.recv();
  ASSERT_TRUE(line.has_value());
  frame = JsonValue::parse(*line);
  EXPECT_EQ(str_field(frame, "op"), "stats");
  EXPECT_TRUE(has_field(frame, "requests"));
  EXPECT_TRUE(has_field(frame, "shed"));
  EXPECT_TRUE(has_field(frame, "partials"));

  client.send(compile_request("u1", small_ghz(),
                              ",\"model\":\"no_such_model\""));
  line = client.recv();
  ASSERT_TRUE(line.has_value());
  frame = JsonValue::parse(*line);
  EXPECT_EQ(str_field(frame, "type"), "error");
  EXPECT_EQ(error_code(frame), "unknown_model");
}

TEST(NetServeTest, CompileMatchesDirectPredictorBitwise) {
  TestServer ts;
  Client client(ts.port());
  const Circuit circuit = small_ghz();
  const std::string direct = qrc::ir::to_qasm(
      shared_model().compile(wire_roundtrip(circuit)).circuit);

  client.send(compile_request("c1", circuit));
  const auto line = client.recv();
  ASSERT_TRUE(line.has_value());
  const auto frame = JsonValue::parse(*line);
  ASSERT_EQ(str_field(frame, "type"), "result") << *line;
  EXPECT_EQ(str_field(frame, "id"), "c1");
  EXPECT_EQ(str_field(frame, "qasm"), direct);
}

TEST(NetServeTest, SearchCompileMatchesDirectSearchBitwise) {
  TestServer ts;
  Client client(ts.port());
  const Circuit circuit =
      qrc::bench::make_benchmark(BenchmarkFamily::kVqe, 4, 1);
  qrc::search::SearchOptions options;
  options.strategy = qrc::search::Strategy::kBeam;
  options.beam_width = 2;
  const std::string direct = qrc::ir::to_qasm(
      shared_model()
          .compile_search(wire_roundtrip(circuit), options)
          .circuit);

  client.send(compile_request("b1", circuit, ",\"search\":\"beam:2\""));
  // Partials may or may not stream (no deadline); the final result frame
  // is the last one for this id.
  for (;;) {
    const auto line = client.recv();
    ASSERT_TRUE(line.has_value());
    const auto frame = JsonValue::parse(*line);
    if (str_field(frame, "type") == "partial") {
      continue;
    }
    ASSERT_EQ(str_field(frame, "type"), "result") << *line;
    EXPECT_EQ(str_field(frame, "qasm"), direct);
    break;
  }
}

TEST(NetServeTest, ConcurrentClientsMatchDirectCompiles) {
  TestServer ts;
  std::vector<Circuit> circuits;
  for (const int n : {2, 3, 4}) {
    circuits.push_back(
        qrc::bench::make_benchmark(BenchmarkFamily::kGhz, n, 1));
    circuits.push_back(
        qrc::bench::make_benchmark(BenchmarkFamily::kVqe, n, 1));
  }
  std::vector<std::string> direct;
  direct.reserve(circuits.size());
  for (const Circuit& c : circuits) {
    direct.push_back(
        qrc::ir::to_qasm(shared_model().compile(wire_roundtrip(c)).circuit));
  }

  constexpr int kClients = 8;
  std::vector<int> failures(kClients, 0);
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      Client client(ts.port());
      // Pipeline every request first, then read all responses.
      for (std::size_t i = 0; i < circuits.size(); ++i) {
        client.send(compile_request(
            "t" + std::to_string(t) + "-" + std::to_string(i),
            circuits[i]));
      }
      std::map<std::string, std::string> got;
      while (got.size() < circuits.size()) {
        const auto line = client.recv();
        if (!line.has_value()) {
          ++failures[t];
          return;
        }
        const auto frame = JsonValue::parse(*line);
        if (str_field(frame, "type") != "result") {
          ++failures[t];
          return;
        }
        got[str_field(frame, "id")] = str_field(frame, "qasm");
      }
      for (std::size_t i = 0; i < circuits.size(); ++i) {
        const auto it =
            got.find("t" + std::to_string(t) + "-" + std::to_string(i));
        if (it == got.end() || it->second != direct[i]) {
          ++failures[t];
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(std::count(failures.begin(), failures.end(), 0), kClients);
}

TEST(NetServeTest, MalformedLinesGetTypedErrorsAndConnectionSurvives) {
  TestServer ts;
  Client client(ts.port());

  // Unparseable JSON: typed bad_request.
  client.send("this is not json");
  auto line = client.recv();
  ASSERT_TRUE(line.has_value());
  auto frame = JsonValue::parse(*line);
  EXPECT_EQ(error_code(frame), "bad_request");

  // Well-formed v1 envelope missing its payload: typed bad_request.
  client.send("{\"v\":1,\"op\":\"compile\",\"id\":\"m1\"}");
  line = client.recv();
  ASSERT_TRUE(line.has_value());
  frame = JsonValue::parse(*line);
  EXPECT_EQ(str_field(frame, "id"), "m1");
  EXPECT_EQ(error_code(frame), "bad_request");

  // Payload that fails QASM parsing: also bad_request.
  client.send("{\"v\":1,\"op\":\"compile\",\"id\":\"m2\","
              "\"qasm\":\"bogus\"}");
  line = client.recv();
  ASSERT_TRUE(line.has_value());
  frame = JsonValue::parse(*line);
  EXPECT_EQ(error_code(frame), "bad_request");
  // The parser's own message goes out unchanged, prefixed once.
  const std::string message =
      str_field(as_object(frame).at("error"), "message");
  EXPECT_EQ(message.rfind("qasm: parse error", 0), 0u) << message;
  EXPECT_EQ(message.find("qasm: qasm:"), std::string::npos) << message;

  // The connection survived all three refusals.
  client.send("{\"v\":1,\"op\":\"ping\",\"id\":\"alive\"}");
  line = client.recv();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(str_field(JsonValue::parse(*line), "id"), "alive");
}

TEST(NetServeTest, OversizedFrameIsRejectedWithoutKillingConnection) {
  qrc::net::ServerConfig net_config;
  net_config.max_frame_bytes = 2048;
  TestServer ts({}, net_config);
  Client client(ts.port());

  std::string huge = "{\"v\":1,\"op\":\"compile\",\"id\":\"big\",\"qasm\":\"";
  huge.append(16384, 'x');
  huge += "\"}";
  client.send(huge);
  auto line = client.recv();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(error_code(JsonValue::parse(*line)), "frame_too_large");

  client.send("{\"v\":1,\"op\":\"ping\",\"id\":\"after\"}");
  line = client.recv();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(str_field(JsonValue::parse(*line), "id"), "after");
}

TEST(NetServeTest, ConnectionInflightCapShedsWithTypedOverloaded) {
  qrc::net::ServerConfig net_config;
  net_config.max_inflight_per_conn = 2;
  TestServer ts({}, net_config);
  Client client(ts.port());

  // One batched send of 8 slow (deadline-bounded search) requests: the
  // server admits at most 2 before answering, so most are shed. Every
  // request must still get exactly one final frame — shedding never
  // drops a request on the floor.
  constexpr int kRequests = 8;
  std::string burst;
  for (int i = 0; i < kRequests; ++i) {
    const Circuit circuit =
        qrc::bench::make_benchmark(BenchmarkFamily::kVqe, 2 + (i % 3), 1);
    burst += compile_request(
                 "q" + std::to_string(i), circuit,
                 ",\"search\":\"beam:4\",\"deadline_ms\":200") +
             "\n";
  }
  qrc::net::send_all(client.sock.fd(), burst);

  int finals = 0;
  int overloaded = 0;
  while (finals < kRequests) {
    const auto line = client.recv();
    ASSERT_TRUE(line.has_value()) << "connection closed early";
    const auto frame = JsonValue::parse(*line);
    const std::string type = str_field(frame, "type");
    if (type == "partial") {
      continue;
    }
    ++finals;
    if (type == "error") {
      EXPECT_EQ(error_code(frame), "overloaded") << *line;
      ++overloaded;
    }
  }
  EXPECT_EQ(finals, kRequests);
  EXPECT_GE(overloaded, 1);
  EXPECT_GE(ts.service.metrics().counter_value(
                "qrc_shed_total", {{"reason", "conn_inflight"}}),
            1u);
}

TEST(NetServeTest, LaneQueueBoundShedsWithTypedOverloaded) {
  ServiceConfig service_config;
  service_config.max_batch = 1;  // drain one request at a time
  service_config.max_lane_queue = 1;
  TestServer ts(service_config, {});
  Client client(ts.port());

  constexpr int kRequests = 6;
  std::string burst;
  for (int i = 0; i < kRequests; ++i) {
    const Circuit circuit =
        qrc::bench::make_benchmark(BenchmarkFamily::kGhz, 2 + (i % 3), 1);
    burst += compile_request(
                 "q" + std::to_string(i), circuit,
                 ",\"search\":\"beam:4\",\"deadline_ms\":150") +
             "\n";
  }
  qrc::net::send_all(client.sock.fd(), burst);

  int finals = 0;
  int overloaded = 0;
  while (finals < kRequests) {
    const auto line = client.recv();
    ASSERT_TRUE(line.has_value()) << "connection closed early";
    const auto frame = JsonValue::parse(*line);
    const std::string type = str_field(frame, "type");
    if (type == "partial") {
      continue;
    }
    ++finals;
    if (type == "error") {
      EXPECT_EQ(error_code(frame), "overloaded") << *line;
      ++overloaded;
    }
  }
  EXPECT_EQ(finals, kRequests);
  EXPECT_GE(overloaded, 1);
  EXPECT_GE(ts.service.metrics().counter_value(
                "qrc_shed_total", {{"reason", "lane_queue"}}),
            1u);
}

TEST(NetServeTest, DeadlineBoundedSearchStreamsPartialsBeforeFinal) {
  TestServer ts;
  Client client(ts.port());
  const Circuit circuit =
      qrc::bench::make_benchmark(BenchmarkFamily::kVqe, 4, 1);
  client.send(compile_request("s1", circuit,
                              ",\"search\":\"beam:4\",\"deadline_ms\":400"));

  int partials = 0;
  bool saw_final = false;
  while (!saw_final) {
    const auto line = client.recv();
    ASSERT_TRUE(line.has_value());
    const auto frame = JsonValue::parse(*line);
    EXPECT_EQ(str_field(frame, "id"), "s1");
    const std::string type = str_field(frame, "type");
    if (type == "partial") {
      EXPECT_FALSE(saw_final) << "partial after final";
      ++partials;
      EXPECT_TRUE(has_field(frame, "quantum"));
      EXPECT_TRUE(has_field(frame, "best_reward"));
    } else {
      ASSERT_EQ(type, "result") << *line;
      saw_final = true;
    }
  }
  // The greedy-baseline snapshot guarantees at least one partial for
  // every streamed search, even when the deadline lands instantly.
  EXPECT_GE(partials, 1);
  EXPECT_GE(
      ts.service.metrics().counter_value("qrc_net_partial_frames_total"),
      1u);
}

TEST(NetServeTest, GracefulDrainAnswersInflightThenCloses) {
  TestServer ts;
  const int port = ts.port();
  Client client(port);
  const Circuit circuit =
      qrc::bench::make_benchmark(BenchmarkFamily::kVqe, 4, 1);
  client.send(compile_request("d1", circuit,
                              ",\"search\":\"beam:4\",\"deadline_ms\":300"));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ts.server.request_drain();

  // The in-flight request still completes and flushes...
  bool saw_final = false;
  for (;;) {
    const auto line = client.recv();
    if (!line.has_value()) {
      break;  // ...after which the server hangs up.
    }
    const auto frame = JsonValue::parse(*line);
    const std::string type = str_field(frame, "type");
    if (type != "partial") {
      EXPECT_EQ(type, "result") << *line;
      EXPECT_EQ(str_field(frame, "id"), "d1");
      saw_final = true;
    }
  }
  EXPECT_TRUE(saw_final);

  ts.server.join();
  // The listener is gone: new connections are refused.
  EXPECT_THROW((void)qrc::net::connect_tcp("127.0.0.1", port),
               std::runtime_error);
}

// ------------------------------------------------------ stdio front end ---

/// What `qrc serve` without --listen runs: a server with no TCP listener
/// that owns one end of a socketpair. The test holds the other end, in
/// the role of the CLI's stdin/stdout pump.
struct StdioServer {
  CompileService service;
  qrc::net::Server server;
  qrc::net::Socket peer;

  explicit StdioServer(qrc::net::ServerConfig net_config = {})
      : server(service, [&net_config] {
          net_config.port = -1;
          return net_config;
        }()) {
    service.registry().add("fidelity", shared_handle());
    auto [server_end, peer_end] = qrc::net::socket_pair();
    server.add_connection(std::move(server_end));
    peer = std::move(peer_end);
    server.start();
  }

  void send(const std::string& line) {
    qrc::net::send_all(peer.fd(), line + "\n");
  }

  /// Half-closes the peer's write side (stdin EOF), then reads every
  /// frame until the server closes the connection.
  std::vector<JsonValue> finish() {
    ::shutdown(peer.fd(), SHUT_WR);
    std::vector<JsonValue> frames;
    qrc::net::LineReader reader(peer.fd());
    while (const auto line = reader.next_line()) {
      frames.push_back(JsonValue::parse(*line));
    }
    return frames;
  }
};

const JsonValue* frame_with_id(const std::vector<JsonValue>& frames,
                               const std::string& id) {
  for (const JsonValue& frame : frames) {
    if (str_field(frame, "id") == id &&
        str_field(frame, "type") != "partial") {
      return &frame;
    }
  }
  ADD_FAILURE() << "no final frame for id '" << id << "'";
  return nullptr;
}

TEST(StdioServeTest, OneConnectionAnswersCompileAndControlOps) {
  StdioServer stdio;
  EXPECT_EQ(stdio.server.port(), -1);
  const Circuit circuit = small_ghz();
  const std::string direct = qrc::ir::to_qasm(
      shared_model().compile(wire_roundtrip(circuit)).circuit);

  stdio.send(compile_request("c1", circuit));
  stdio.send("{\"v\":1,\"op\":\"ping\",\"id\":\"p1\"}");
  stdio.send("{\"v\":1,\"op\":\"stats\",\"id\":\"s1\"}");
  stdio.send("{\"id\":\"old\",\"qasm\":" +
             qrc::service::json_quote(qrc::ir::to_qasm(circuit)) + "}");
  stdio.send("{\"id\":\"garbled\",");
  const auto frames = stdio.finish();
  ASSERT_EQ(frames.size(), 5u);

  const JsonValue* compiled = frame_with_id(frames, "c1");
  ASSERT_NE(compiled, nullptr);
  ASSERT_EQ(str_field(*compiled, "type"), "result") << compiled->dump();
  EXPECT_EQ(str_field(*compiled, "qasm"), direct);

  const JsonValue* pong = frame_with_id(frames, "p1");
  ASSERT_NE(pong, nullptr);
  EXPECT_EQ(str_field(*pong, "op"), "ping");

  // The compile line was admitted before the stats line was read, so the
  // count is exact whichever of the two finished first.
  const JsonValue* stats = frame_with_id(frames, "s1");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(str_field(*stats, "op"), "stats");
  for (const char* key :
       {"requests", "cache_hits", "cache_misses", "batches",
        "batched_requests", "verified", "refuted", "verify_unknown",
        "beam_requests", "mcts_requests", "search_improved",
        "search_deadline_hits", "shed", "partials"}) {
    EXPECT_TRUE(has_field(*stats, key)) << key;
  }
  EXPECT_EQ(as_object(*stats).at("requests").as_number(), 1.0);

  const JsonValue* old = frame_with_id(frames, "old");
  ASSERT_NE(old, nullptr);
  EXPECT_EQ(str_field(*old, "type"), "error");
  EXPECT_EQ(error_code(*old), "unsupported_version");

  // Unparseable JSON: the id cannot be recovered, the error is typed.
  const JsonValue* garbled = frame_with_id(frames, "");
  ASSERT_NE(garbled, nullptr);
  EXPECT_EQ(error_code(*garbled), "bad_request");
}

TEST(StdioServeTest, DeeplyNestedExpressionIsABadRequestNotACrash) {
  // A 100 KB frame whose rz angle nests 50,000 parentheses used to
  // overflow the stack of the parser and kill `qrc serve` with SIGSEGV.
  StdioServer stdio;
  const std::string deep =
      "OPENQASM 2.0;\nqreg q[1];\nrz(" + std::string(50000, '(') + "0.5" +
      std::string(50000, ')') + ") q[0];\n";
  stdio.send("{\"v\":1,\"op\":\"compile\",\"id\":\"deep\",\"qasm\":" +
             qrc::service::json_quote(deep) + "}");
  stdio.send("{\"v\":1,\"op\":\"ping\",\"id\":\"after\"}");
  const auto frames = stdio.finish();
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(str_field(frames[0], "id"), "deep");
  EXPECT_EQ(error_code(frames[0]), "bad_request");
  EXPECT_EQ(str_field(frames[1], "id"), "after");
  EXPECT_EQ(str_field(frames[1], "op"), "ping");
}

TEST(StdioServeTest, HalfCloseAnswersEverythingInFlightThenCloses) {
  // The accepted-connection cap does not apply: the handed-in connection
  // is the only one, so a piped batch is answered in full.
  qrc::net::ServerConfig net_config;
  net_config.max_inflight_per_conn = 1;
  StdioServer stdio(net_config);
  std::vector<std::string> direct;
  for (const int n : {2, 3, 4}) {
    const Circuit circuit =
        qrc::bench::make_benchmark(BenchmarkFamily::kVqe, n, 1);
    direct.push_back(qrc::ir::to_qasm(
        shared_model().compile(wire_roundtrip(circuit)).circuit));
    stdio.send(compile_request("g" + std::to_string(n), circuit));
  }
  stdio.send(compile_request(
      "s1", qrc::bench::make_benchmark(BenchmarkFamily::kGhz, 4, 1),
      ",\"search\":\"beam:4\",\"deadline_ms\":200"));

  // finish() returns only once the server has closed the connection.
  const auto frames = stdio.finish();
  int partials = 0;
  for (const JsonValue& frame : frames) {
    partials += str_field(frame, "type") == "partial" ? 1 : 0;
  }
  EXPECT_EQ(frames.size() - static_cast<std::size_t>(partials), 4u);
  EXPECT_GE(partials, 1);  // search requests stream on stdio too
  for (const int n : {2, 3, 4}) {
    const JsonValue* frame = frame_with_id(frames, "g" + std::to_string(n));
    ASSERT_NE(frame, nullptr);
    ASSERT_EQ(str_field(*frame, "type"), "result") << frame->dump();
    EXPECT_EQ(str_field(*frame, "qasm"),
              direct[static_cast<std::size_t>(n - 2)]);
  }
  const JsonValue* searched = frame_with_id(frames, "s1");
  ASSERT_NE(searched, nullptr);
  EXPECT_EQ(str_field(*searched, "type"), "result") << searched->dump();
  EXPECT_EQ(stdio.service.metrics().counter_value(
                "qrc_shed_total", {{"reason", "conn_inflight"}}),
            0u);
  stdio.server.stop();
}

}  // namespace

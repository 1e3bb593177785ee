// Tests for the operational observability layer: the structured logger
// (levels, lines recorded as flight events, rate limiting, JSON lines),
// the flight recorder (seqlock wraparound, JSON dump, the SIGQUIT
// handler), the ops HTTP endpoints on the metrics listener (/healthz
// /readyz /statusz /debugz, HEAD/405/400 handling, the scrape counter),
// the v1 "debug_dump" wire op, and training telemetry (qrc_train_* metric
// families, the JSONL curve logger, and the guarantee that telemetry is
// observation-only — instrumented training produces a bitwise-identical
// model).

#include <gtest/gtest.h>
#include <csignal>
#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cmath>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/predictor.hpp"
#include "ir/qasm.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "obs/build_info.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/training_logger.hpp"
#include "service/compile_service.hpp"
#include "service/jsonl.hpp"
#include "util/json.hpp"

namespace {

using qrc::core::Predictor;
using qrc::ir::Circuit;
using qrc::obs::FlightEventKind;
using qrc::obs::FlightRecorder;
using qrc::obs::Logger;
using qrc::obs::LogLevel;
using qrc::obs::MetricsRegistry;
using qrc::service::CompileService;
using qrc::service::ServiceConfig;
using qrc::util::JsonValue;

/// Every control byte, quote, backslash, DEL and multi-byte UTF-8
/// (U+00E9, U+20AC, U+1F600) in one string.
std::string awkward_text() {
  std::string s;
  for (int c = 0; c < 0x20; ++c) {
    s.push_back(static_cast<char>(c));
  }
  return s + "\"\\\x7f\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80";
}

Circuit small_ghz() {
  Circuit c(3, "ghz3");
  c.h(0);
  c.cx(0, 1);
  c.cx(1, 2);
  c.measure_all();
  return c;
}

/// One tiny trained model shared across the server tests.
const Predictor& shared_model() {
  static auto* model = [] {
    qrc::core::PredictorConfig config;
    config.reward = qrc::reward::RewardKind::kFidelity;
    config.seed = 17;
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

/// A live server with the metrics side listener on an ephemeral port.
struct TestServer {
  CompileService service;
  qrc::net::Server server;

  explicit TestServer(bool with_model = true)
      : service(ServiceConfig{}), server(service, [] {
          qrc::net::ServerConfig net_config;
          net_config.host = "127.0.0.1";
          net_config.port = 0;
          net_config.metrics_port = 0;  // ephemeral ops/metrics listener
          return net_config;
        }()) {
    if (with_model) {
      service.registry().add("fidelity", shared_handle());
    }
    server.start();
  }
};

/// Sends raw bytes to the ops listener and reads until the server closes.
std::string http_exchange(int port, const std::string& raw) {
  const qrc::net::Socket sock = qrc::net::connect_tcp("127.0.0.1", port);
  qrc::net::send_all(sock.fd(), raw);
  // Half-close so a request without a header terminator reads as a
  // truncated head (EOF) instead of leaving the server waiting for more.
  ::shutdown(sock.fd(), SHUT_WR);
  std::string response;
  char buf[8192];
  for (;;) {
    const auto n = ::recv(sock.fd(), buf, sizeof(buf), 0);
    if (n <= 0) {
      break;
    }
    response.append(buf, static_cast<std::size_t>(n));
  }
  return response;
}

std::string http_get(int port, const std::string& path) {
  return http_exchange(port, "GET " + path + " HTTP/1.0\r\n\r\n");
}

/// The body of an HTTP response (everything after the header terminator).
std::string body_of(const std::string& response) {
  const auto pos = response.find("\r\n\r\n");
  return pos == std::string::npos ? "" : response.substr(pos + 4);
}

int count_occurrences(const std::string& haystack, const std::string& needle) {
  int count = 0;
  for (auto pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

// ---------------------------------------------------------------- logger ---

TEST(LogTest, LevelGatesEmissionAndRingRetainsLines) {
  Logger& log = Logger::instance();
  log.clear();
  log.set_sink_fd(-1);  // flight recorder only: no stderr noise from tests
  log.set_level(LogLevel::kInfo);

  const auto before = log.emitted();
  EXPECT_FALSE(qrc::obs::log_debug("test", "suppressed below info"));
  EXPECT_EQ(log.emitted(), before);

  EXPECT_TRUE(qrc::obs::log_info("test", "hello ops"));
  EXPECT_TRUE(qrc::obs::log_warn("test", "warned"));
  EXPECT_EQ(log.emitted(), before + 2);

  // Every emitted line is a kLog flight event holding tag and message.
  std::vector<qrc::obs::FlightEvent> lines;
  for (const auto& event : FlightRecorder::instance().snapshot()) {
    if (event.kind == FlightEventKind::kLog) {
      lines.push_back(event);
    }
  }
  ASSERT_GE(lines.size(), 2u);
  EXPECT_STREQ(lines[lines.size() - 2].tag, "test");
  EXPECT_STREQ(lines[lines.size() - 2].detail, "hello ops");
  EXPECT_STREQ(lines.back().detail, "warned");

  log.set_level(LogLevel::kOff);
  EXPECT_FALSE(qrc::obs::log_error("test", "nothing gets past off"));
  log.set_sink_fd(2);
  log.set_level(LogLevel::kInfo);
}

TEST(LogTest, ParseLevelNamesAndAliases) {
  EXPECT_EQ(qrc::obs::parse_log_level("debug"), LogLevel::kDebug);
  EXPECT_EQ(qrc::obs::parse_log_level("warn"), LogLevel::kWarn);
  EXPECT_EQ(qrc::obs::parse_log_level("warning"), LogLevel::kWarn);
  EXPECT_EQ(qrc::obs::parse_log_level("off"), LogLevel::kOff);
  EXPECT_EQ(qrc::obs::parse_log_level("none"), LogLevel::kOff);
  EXPECT_FALSE(qrc::obs::parse_log_level("verbose").has_value());
  EXPECT_EQ(qrc::obs::log_level_name(LogLevel::kError), "error");
}

TEST(LogTest, RateLimiterBoundsPerSiteEmission) {
  Logger& log = Logger::instance();
  log.clear();
  log.set_sink_fd(-1);
  log.set_level(LogLevel::kInfo);

  const auto emitted_before = log.emitted();
  const auto limited_before = log.rate_limited();
  for (int i = 0; i < 50; ++i) {
    log.log_rate_limited(LogLevel::kWarn, "test", "flood", 2, "same site");
  }
  // At most 2 per one-second window; 50 calls can straddle one boundary.
  EXPECT_LE(log.emitted() - emitted_before, 4u);
  EXPECT_GE(log.rate_limited() - limited_before, 46u);

  // A different (tag, key) site has its own budget.
  EXPECT_TRUE(
      log.log_rate_limited(LogLevel::kWarn, "test", "other", 2, "fresh"));
  log.set_sink_fd(2);
}

TEST(LogTest, JsonModeEmitsParsableObjects) {
  Logger& log = Logger::instance();
  log.clear();
  int pipe_fds[2];
  ASSERT_EQ(::pipe(pipe_fds), 0);
  log.set_sink_fd(pipe_fds[1]);
  log.set_level(LogLevel::kInfo);
  log.set_json(true);
  ASSERT_TRUE(qrc::obs::log_info("test", "json \"quoted\" payload"));
  const std::string awkward = awkward_text();
  ASSERT_TRUE(qrc::obs::log_info(awkward, awkward));
  log.set_json(false);
  log.set_sink_fd(-1);
  ::close(pipe_fds[1]);

  std::string written;
  char buf[4096];
  for (ssize_t n; (n = ::read(pipe_fds[0], buf, sizeof(buf))) > 0;) {
    written.append(buf, static_cast<std::size_t>(n));
  }
  ::close(pipe_fds[0]);
  std::vector<std::string> lines;
  std::istringstream stream(written);
  for (std::string line; std::getline(stream, line);) {
    lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 2u);
  const auto obj = JsonValue::parse(lines.front()).as_object();
  EXPECT_EQ(obj.at("level").as_string(), "info");
  EXPECT_EQ(obj.at("tag").as_string(), "test");
  EXPECT_EQ(obj.at("msg").as_string(), "json \"quoted\" payload");
  EXPECT_EQ(obj.count("ts"), 1u);
  const auto odd = JsonValue::parse(lines.back()).as_object();
  EXPECT_EQ(odd.at("tag").as_string(), awkward);
  EXPECT_EQ(odd.at("msg").as_string(), awkward);
  log.set_sink_fd(2);
}

// ------------------------------------------------------- flight recorder ---

TEST(FlightRecorderTest, WraparoundKeepsTheMostRecentEvents) {
  FlightRecorder& rec = FlightRecorder::instance();
  rec.clear();
  const int total = static_cast<int>(FlightRecorder::kCapacity) + 50;
  for (int i = 0; i < total; ++i) {
    rec.record(FlightEventKind::kRequest, "test",
               "event " + std::to_string(i));
  }
  EXPECT_EQ(rec.total(), static_cast<std::uint64_t>(total));

  const auto events = rec.snapshot();
  ASSERT_EQ(events.size(), FlightRecorder::kCapacity);
  // Oldest-first, contiguous, ending at the newest seq.
  EXPECT_EQ(events.back().seq, static_cast<std::uint64_t>(total));
  EXPECT_EQ(events.front().seq,
            static_cast<std::uint64_t>(total) - FlightRecorder::kCapacity + 1);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, events[i - 1].seq + 1);
  }
  EXPECT_STREQ(events.back().tag, "test");
  EXPECT_EQ(std::string(events.back().detail),
            "event " + std::to_string(total - 1));
}

TEST(FlightRecorderTest, DumpJsonIsAParsableArray) {
  FlightRecorder& rec = FlightRecorder::instance();
  rec.clear();
  rec.record(FlightEventKind::kShed, "service", "lane 'x' shed \"r1\"");
  rec.record(FlightEventKind::kRefutation, "verify", "model m refuted");
  // A client-chosen id whose two-byte characters straddle the detail
  // field's cut: the cut must not split one.
  std::string id = "a";
  for (int i = 0; i < 60; ++i) {
    id += "\xc3\xbc";  // U+00FC
  }
  rec.record(FlightEventKind::kRequest, "service", "request '" + id);

  const auto parsed = JsonValue::parse(rec.dump_json()).as_array();
  ASSERT_EQ(parsed.size(), 3u);
  EXPECT_EQ(parsed[0].as_object().at("kind").as_string(), "shed");
  EXPECT_EQ(parsed[0].as_object().at("detail").as_string(),
            "lane 'x' shed \"r1\"");
  EXPECT_EQ(parsed[1].as_object().at("kind").as_string(), "refutation");
  EXPECT_GT(parsed[1].as_object().at("wall_us").as_number(), 0.0);
  const std::string cut = parsed[2].as_object().at("detail").as_string();
  EXPECT_EQ(cut, ("request '" + id).substr(0, 94));  // 42 whole U+00FC
}

TEST(FlightRecorderTest, SigquitDumpsTheRingToTheInstalledFd) {
  FlightRecorder& rec = FlightRecorder::instance();
  rec.clear();
  rec.record(FlightEventKind::kShed, "service", "sigquit-shed-marker");
  rec.record(FlightEventKind::kError, "net", "sigquit-error-marker");

  char path[] = "/tmp/qrc_test_sigquit_XXXXXX";
  const int fd = ::mkstemp(path);
  ASSERT_GE(fd, 0);
  qrc::obs::install_sigquit_dump(fd);
  ASSERT_EQ(std::raise(SIGQUIT), 0);
  std::signal(SIGQUIT, SIG_DFL);

  std::ifstream is(path);
  std::stringstream buffer;
  buffer << is.rdbuf();
  const std::string dump = buffer.str();
  ::close(fd);
  ::unlink(path);

  EXPECT_NE(dump.find("sigquit-shed-marker"), std::string::npos) << dump;
  EXPECT_NE(dump.find("sigquit-error-marker"), std::string::npos);
  EXPECT_NE(dump.find("shed"), std::string::npos);
}

// ---------------------------------------------------------- ops endpoints ---

TEST(OpsEndpointsTest, AllFourEndpointsAnswerOnALiveServer) {
  TestServer ts;
  const int port = ts.server.metrics_port();
  ASSERT_GE(port, 0);

  const std::string health = http_get(port, "/healthz");
  EXPECT_NE(health.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_EQ(body_of(health), "ok\n");

  const std::string ready = http_get(port, "/readyz");
  EXPECT_NE(ready.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_EQ(body_of(ready), "ready\n");

  const std::string status = http_get(port, "/statusz");
  EXPECT_NE(status.find("HTTP/1.0 200 OK"), std::string::npos);
  const std::string status_body = body_of(status);
  EXPECT_NE(status_body.find(qrc::obs::build_info().git_sha),
            std::string::npos);
  EXPECT_NE(status_body.find("uptime_s: "), std::string::npos);
  EXPECT_NE(status_body.find("models: fidelity"), std::string::npos);
  // The counter rows are the stats table, first row to last.
  EXPECT_NE(status_body.find("\nrequests: "), std::string::npos);
  EXPECT_NE(status_body.find("\nshed_inflight: "), std::string::npos);
  EXPECT_NE(status_body.find("flight recorder"), std::string::npos);

  const std::string debug = http_get(port, "/debugz");
  EXPECT_NE(debug.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(debug.find("application/json"), std::string::npos);
  EXPECT_TRUE(JsonValue::parse(body_of(debug)).is_array());

  // /metrics carries the build-info gauge stamped at construction.
  const std::string metrics = http_get(port, "/metrics");
  EXPECT_NE(metrics.find("qrc_build_info{"), std::string::npos);
  EXPECT_NE(metrics.find("simd_kernel="), std::string::npos);
}

TEST(OpsEndpointsTest, ReadyzReports503WithoutModels) {
  TestServer ts(/*with_model=*/false);
  const std::string ready = http_get(ts.server.metrics_port(), "/readyz");
  EXPECT_NE(ready.find("HTTP/1.0 503 Service Unavailable"),
            std::string::npos);
  EXPECT_EQ(body_of(ready), "not ready: no models loaded\n");
  // Liveness stays green: the loop is answering even with nothing loaded.
  EXPECT_NE(http_get(ts.server.metrics_port(), "/healthz")
                .find("HTTP/1.0 200 OK"),
            std::string::npos);
}

TEST(OpsEndpointsTest, HeadPostAndMalformedRequestsAreDeterministic) {
  TestServer ts;
  const int port = ts.server.metrics_port();

  // HEAD: full headers with the real Content-Length, body suppressed.
  const std::string head =
      http_exchange(port, "HEAD /healthz HTTP/1.0\r\n\r\n");
  EXPECT_NE(head.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(head.find("Content-Length: 3"), std::string::npos);
  EXPECT_EQ(body_of(head), "");

  // POST is well-formed but unsupported: 405 with an Allow header.
  const std::string post = http_exchange(
      port, "POST /metrics HTTP/1.0\r\nContent-Length: 0\r\n\r\n");
  EXPECT_NE(post.find("HTTP/1.0 405 Method Not Allowed"), std::string::npos);
  EXPECT_NE(post.find("Allow: GET, HEAD"), std::string::npos);

  // Garbage request line: 400, not silence.
  const std::string garbage = http_exchange(port, "nonsense\r\n\r\n");
  EXPECT_NE(garbage.find("HTTP/1.0 400 Bad Request"), std::string::npos);

  // A head truncated by EOF also gets a 400.
  const std::string truncated = http_exchange(port, "GET /healthz");
  EXPECT_NE(truncated.find("HTTP/1.0 400 Bad Request"), std::string::npos);
  EXPECT_NE(truncated.find("truncated request head"), std::string::npos);

  // An unterminated head over 16KB is refused without waiting for more.
  const std::string oversized =
      http_exchange(port, "GET /" + std::string(17 << 10, 'a'));
  EXPECT_NE(oversized.find("HTTP/1.0 400 Bad Request"), std::string::npos);
  EXPECT_NE(oversized.find("request head exceeds 16KB"), std::string::npos);
}

TEST(OpsEndpointsTest, PipelinedRequestsAnswerOnceAndScrapesAreCounted) {
  TestServer ts;
  const int port = ts.server.metrics_port();
  const auto scrapes_before =
      ts.service.metrics().counter_value("qrc_net_metrics_scrapes_total");

  // Two pipelined GETs in one write: exactly one response, then close.
  const std::string response = http_exchange(
      port,
      "GET /metrics HTTP/1.0\r\n\r\nGET /metrics HTTP/1.0\r\n\r\n");
  EXPECT_EQ(count_occurrences(response, "HTTP/1.0 200 OK"), 1);
  EXPECT_NE(response.find("Connection: close"), std::string::npos);

  // One more ordinary scrape; the counter reflects both answered scrapes
  // (the dropped pipelined follower was never answered, so never counted).
  (void)http_get(port, "/metrics");
  EXPECT_EQ(
      ts.service.metrics().counter_value("qrc_net_metrics_scrapes_total"),
      scrapes_before + 2);

  // Hits on other endpoints do not inflate the scrape counter.
  (void)http_get(port, "/healthz");
  EXPECT_EQ(
      ts.service.metrics().counter_value("qrc_net_metrics_scrapes_total"),
      scrapes_before + 2);
}

TEST(OpsEndpointsTest, DebugDumpWireOpReturnsTheEventArray) {
  FlightRecorder::instance().clear();
  FlightRecorder::instance().record(FlightEventKind::kDeadlineHit, "test",
                                    "wire-dump-marker");
  TestServer ts;
  const qrc::net::Socket sock =
      qrc::net::connect_tcp("127.0.0.1", ts.server.port());
  qrc::net::LineReader reader(sock.fd());
  qrc::net::send_all(sock.fd(),
                     "{\"v\":1,\"op\":\"debug_dump\",\"id\":\"d1\"}\n");
  const auto line = reader.next_line();
  ASSERT_TRUE(line.has_value());
  const auto frame = JsonValue::parse(*line).as_object();
  EXPECT_EQ(frame.at("id").as_string(), "d1");
  EXPECT_EQ(frame.at("type").as_string(), "result");
  EXPECT_EQ(frame.at("op").as_string(), "debug_dump");
  const auto& events = frame.at("events").as_array();
  bool found = false;
  for (const auto& ev : events) {
    found = found || ev.as_object().at("detail").as_string() ==
                         "wire-dump-marker";
  }
  EXPECT_TRUE(found) << *line;
}

// ------------------------------------------------------ training telemetry ---

qrc::core::PredictorConfig tiny_train_config() {
  qrc::core::PredictorConfig config;
  config.reward = qrc::reward::RewardKind::kFidelity;
  config.seed = 29;
  config.ppo.total_timesteps = 768;
  config.ppo.steps_per_update = 256;
  config.ppo.hidden_sizes = {16};
  config.num_envs = 2;  // exercise train_ppo_vec, the production path
  return config;
}

TEST(TrainTelemetryTest, TrainingPublishesTheMetricFamilies) {
  MetricsRegistry registry;
  Predictor predictor(tiny_train_config());
  const auto stats = predictor.train({small_ghz()}, {}, &registry);
  ASSERT_FALSE(stats.empty());

  const auto families = registry.family_names("qrc_train_");
  EXPECT_GE(families.size(), 6u) << "got " << families.size() << " families";
  EXPECT_EQ(registry.counter_value("qrc_train_updates_total"), stats.size());
  EXPECT_GT(registry.counter_value("qrc_train_timesteps_total"), 0u);
  for (const char* name :
       {"qrc_train_policy_loss", "qrc_train_value_loss", "qrc_train_entropy",
        "qrc_train_approx_kl", "qrc_train_clip_fraction",
        "qrc_train_episode_reward_mean"}) {
    EXPECT_TRUE(std::isfinite(registry.float_gauge_value(name)))
        << name << " missing or non-finite";
  }
  // The last update's numbers are what the gauges retain.
  EXPECT_DOUBLE_EQ(registry.float_gauge_value("qrc_train_policy_loss"),
                   stats.back().policy_loss);
  EXPECT_DOUBLE_EQ(
      registry.float_gauge_value("qrc_train_episode_reward_mean"),
      stats.back().mean_episode_reward);
  EXPECT_GT(registry.float_gauge_value("qrc_train_env_steps_per_sec"), 0.0);
}

TEST(TrainTelemetryTest, JsonlLoggerWritesOneRecordPerUpdate) {
  char path[] = "/tmp/qrc_test_curves_XXXXXX";
  const int fd = ::mkstemp(path);
  ASSERT_GE(fd, 0);
  ::close(fd);

  std::size_t callbacks = 0;
  {
    qrc::obs::TrainingLogger jsonl{std::string(path)};
    ASSERT_TRUE(jsonl.ok());
    Predictor predictor(tiny_train_config());
    const auto progress = [&](const qrc::rl::PpoUpdateStats& u) {
      ++callbacks;
      jsonl.write({{"update", static_cast<double>(u.update_index)},
                   {"policy_loss", u.policy_loss},
                   {"approx_kl", u.approx_kl},
                   {"clip_fraction", u.clip_fraction},
                   {"mean_episode_reward", u.mean_episode_reward},
                   {"undefined", std::nan("")}});
    };
    const auto stats = predictor.train({small_ghz()}, progress);
    EXPECT_EQ(callbacks, stats.size());
    EXPECT_EQ(jsonl.records(), stats.size());
  }

  std::ifstream is(path);
  std::string line;
  std::size_t parsed = 0;
  double last_update = -1.0;
  while (std::getline(is, line)) {
    const auto obj = JsonValue::parse(line).as_object();
    EXPECT_GT(obj.at("update").as_number(), last_update);
    last_update = obj.at("update").as_number();
    EXPECT_EQ(obj.count("policy_loss"), 1u);
    EXPECT_EQ(obj.count("clip_fraction"), 1u);
    EXPECT_TRUE(obj.at("undefined").is_null());  // JSON has no NaN
    ++parsed;
  }
  ::unlink(path);
  EXPECT_EQ(parsed, callbacks);
  EXPECT_GE(parsed, 2u);  // 768 steps / 256 per update / 2 envs rounds up
}

TEST(TrainTelemetryTest, TelemetryLeavesTrainingBitwiseUnchanged) {
  // Quiet run: no registry, logger off.
  Logger::instance().set_level(LogLevel::kOff);
  Predictor plain(tiny_train_config());
  const auto plain_stats = plain.train({small_ghz()});
  std::ostringstream plain_model;
  plain.save(plain_model);

  // Fully instrumented run: registry, JSONL progress, debug-level logging
  // into the flight recorder.
  Logger::instance().set_sink_fd(-1);
  Logger::instance().set_level(LogLevel::kDebug);
  char path[] = "/tmp/qrc_test_invisible_XXXXXX";
  const int fd = ::mkstemp(path);
  ASSERT_GE(fd, 0);
  ::close(fd);
  MetricsRegistry registry;
  qrc::obs::TrainingLogger jsonl{std::string(path)};
  Predictor instrumented(tiny_train_config());
  const auto instrumented_stats = instrumented.train(
      {small_ghz()},
      [&](const qrc::rl::PpoUpdateStats& u) {
        jsonl.write({{"update", static_cast<double>(u.update_index)},
                     {"policy_loss", u.policy_loss}});
        qrc::obs::log_debug("train", "update done");
      },
      &registry);
  std::ostringstream instrumented_model;
  instrumented.save(instrumented_model);
  ::unlink(path);
  Logger::instance().set_sink_fd(2);
  Logger::instance().set_level(LogLevel::kInfo);

  ASSERT_EQ(plain_stats.size(), instrumented_stats.size());
  for (std::size_t i = 0; i < plain_stats.size(); ++i) {
    EXPECT_EQ(plain_stats[i].mean_episode_reward,
              instrumented_stats[i].mean_episode_reward);
    EXPECT_EQ(plain_stats[i].policy_loss, instrumented_stats[i].policy_loss);
    EXPECT_EQ(plain_stats[i].approx_kl, instrumented_stats[i].approx_kl);
  }
  EXPECT_EQ(plain_model.str(), instrumented_model.str());
}

}  // namespace

/// \file test_profiler.cpp
/// \brief Profiler + regression-sentinel suite: signal safety under a
///        malloc-heavy beam-search burst, folded output shape and
///        symbolization, param validation on every surface (library,
///        GET /profilez, the v1 "profile" wire op), bitwise-unchanged
///        compiles under profiling, process self-metrics, and
///        qrc_bench_diff gate semantics (advisory vs hard regression).
#include <gtest/gtest.h>
#include <sys/socket.h>

#include <atomic>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_suite/benchmarks.hpp"
#include "core/predictor.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "obs/bench_diff.hpp"
#include "obs/metrics.hpp"
#include "obs/process_stats.hpp"
#include "obs/profiler.hpp"
#include "search/search.hpp"
#include "service/compile_service.hpp"
#include "service/jsonl.hpp"

namespace qrc {
namespace {

using obs::Profiler;

core::PredictorConfig tiny_config() {
  core::PredictorConfig config;
  config.ppo.total_timesteps = 512;
  config.ppo.steps_per_update = 128;
  config.seed = 7;
  return config;
}

// ------------------------------------------------------------ profiler ---

TEST(Profiler, RejectsOutOfRangeHz) {
  EXPECT_FALSE(Profiler::start(0));
  EXPECT_FALSE(Profiler::start(-5));
  EXPECT_FALSE(Profiler::start(Profiler::kMaxHz + 1));
  EXPECT_FALSE(Profiler::active());
}

TEST(Profiler, SessionsAreExclusive) {
  ASSERT_TRUE(Profiler::start(97));
  EXPECT_TRUE(Profiler::active());
  EXPECT_FALSE(Profiler::start(97));  // second session rejected
  EXPECT_FALSE(Profiler::collect_folded(0.05, 97).has_value());
  Profiler::stop();
  EXPECT_FALSE(Profiler::active());
  Profiler::stop();  // idempotent
  Profiler::reset();
}

TEST(Profiler, CollectRejectsBadDurations) {
  EXPECT_FALSE(Profiler::collect_folded(0.0, 97).has_value());
  EXPECT_FALSE(Profiler::collect_folded(-1.0, 97).has_value());
  EXPECT_FALSE(
      Profiler::collect_folded(Profiler::kMaxSeconds + 1.0, 97).has_value());
  EXPECT_FALSE(Profiler::collect_folded(0.1, 0).has_value());
  EXPECT_FALSE(Profiler::active());
}

/// The signal-safety stress: sample at an aggressive rate while the
/// beam search allocates, frees, and steps across a worker pool. Any
/// handler that took a lock or allocated would deadlock or corrupt
/// under ASan here; the fp-walk must also never fault on foreign
/// frames. Asserts the compile result is bitwise identical to an
/// unprofiled run, which doubles as the "profiling is observation-only"
/// guarantee.
TEST(Profiler, SignalSafeDuringBeamSearchBurstAndBitwiseClean) {
  core::Predictor predictor(tiny_config());
  const auto corpus = bench::benchmark_suite(4, 6, 10);
  ASSERT_FALSE(corpus.empty());
  predictor.train({corpus.front()});

  search::SearchOptions options;
  options.strategy = search::Strategy::kBeam;
  options.beam_width = 4;

  const auto baseline = predictor.compile_search(corpus.front(), options);

  Profiler::reset();
  ASSERT_TRUE(Profiler::start(500));  // aggressive: ~10x the serving rate
  std::vector<core::CompilationResult> profiled;
  for (int burst = 0; burst < 3; ++burst) {
    profiled.push_back(predictor.compile_search(corpus.front(), options));
  }
  Profiler::stop();

  for (const auto& run : profiled) {
    ASSERT_EQ(run.action_trace.size(), baseline.action_trace.size());
    for (std::size_t i = 0; i < run.action_trace.size(); ++i) {
      EXPECT_EQ(run.action_trace[i], baseline.action_trace[i]);
    }
    EXPECT_EQ(run.reward, baseline.reward);  // bitwise, not approximate
  }

  const auto stats = Profiler::stats();
  EXPECT_GE(stats.sessions, 1u);
  EXPECT_GT(stats.samples, 0u) << "CPU-bound burst produced no samples";

  // Folded output parses: every line is "frame(;frame)* count".
  const std::string folded = Profiler::render_folded();
  ASSERT_FALSE(folded.empty());
  std::istringstream lines(folded);
  std::string line;
  bool found_kernel_frame = false;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    const auto space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string stack = line.substr(0, space);
    const std::string count = line.substr(space + 1);
    ASSERT_FALSE(stack.empty()) << line;
    EXPECT_EQ(count.find_first_not_of("0123456789"), std::string::npos)
        << line;
    EXPECT_GT(std::stoull(count), 0u);
    // At least one sample should land in a known hot qrc kernel. The
    // candidates cover the MLP forward, rollout core, env stepping and
    // search expansion, any of which dominates this burst.
    for (const char* candidate :
         {"forward_batch", "run_greedy", "parallel_for", "peek_step",
          "run_search", "qrc"}) {
      if (stack.find(candidate) != std::string::npos) {
        found_kernel_frame = true;
      }
    }
  }
  EXPECT_TRUE(found_kernel_frame)
      << "no known kernel frame in folded output:\n"
      << folded;
  Profiler::reset();
}

TEST(Profiler, ResetClearsRingAndCounters) {
  ASSERT_TRUE(Profiler::start(97));
  Profiler::stop();
  Profiler::reset();
  const auto stats = Profiler::stats();
  EXPECT_EQ(stats.sessions, 0u);
  EXPECT_EQ(stats.samples, 0u);
  EXPECT_EQ(stats.retained, 0u);
  EXPECT_FALSE(stats.active);
  EXPECT_TRUE(Profiler::render_folded().empty());
}

// ------------------------------------------------------- process stats ---

TEST(ProcessStats, SamplesSaneValues) {
  const auto s = obs::sample_process_stats();
  EXPECT_GT(s.rss_bytes, 0);
  EXPECT_GE(s.user_cpu_seconds, 0.0);
  EXPECT_GE(s.sys_cpu_seconds, 0.0);
  EXPECT_GE(s.uptime_seconds, 0.0);
#if defined(__linux__)
  EXPECT_GT(s.open_fds, 0);
#endif
}

TEST(ProcessStats, PublishesGauges) {
  obs::MetricsRegistry registry;
  obs::publish_process_metrics(registry);
  EXPECT_GT(registry.gauge_value("qrc_process_resident_memory_bytes"), 0);
  const std::string text = registry.render_prometheus();
  EXPECT_NE(text.find("qrc_process_uptime_seconds"), std::string::npos);
  EXPECT_NE(text.find("qrc_process_open_fds"), std::string::npos);
}

// ------------------------------------------------ /profilez + wire op ---

/// One tiny trained model shared across the server-surface tests.
const core::Predictor& shared_model() {
  static auto* model = [] {
    auto* predictor = new core::Predictor(tiny_config());
    (void)predictor->train(
        {bench::make_benchmark(bench::BenchmarkFamily::kGhz, 3, 1)});
    return predictor;
  }();
  return *model;
}

/// A live server with the ops listener on an ephemeral port. The result
/// cache is disabled so burst compiles stay real CPU work for the
/// sampler to catch.
struct ProfTestServer {
  service::CompileService service;
  net::Server server;

  explicit ProfTestServer(bool with_model = true)
      : service([] {
          service::ServiceConfig config;
          config.cache_entries = 0;
          return config;
        }()),
        server(service, [] {
          net::ServerConfig net_config;
          net_config.host = "127.0.0.1";
          net_config.port = 0;
          net_config.metrics_port = 0;
          return net_config;
        }()) {
    if (with_model) {
      service.registry().add(
          "fidelity", std::shared_ptr<const core::Predictor>(
                          &shared_model(), [](const core::Predictor*) {}));
    }
    server.start();
  }
};

std::string http_exchange(int port, const std::string& raw) {
  const net::Socket sock = net::connect_tcp("127.0.0.1", port);
  net::send_all(sock.fd(), raw);
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

std::string body_of(const std::string& response) {
  const auto pos = response.find("\r\n\r\n");
  return pos == std::string::npos ? "" : response.substr(pos + 4);
}

/// Drives distinct beam-search compiles through the service until
/// stopped — the CPU load whose stacks /profilez should capture.
struct CompileBurst {
  service::CompileService& svc;
  std::atomic<bool> stop{false};
  std::thread thread;

  explicit CompileBurst(service::CompileService& service) : svc(service) {
    thread = std::thread([this] {
      const auto corpus = bench::benchmark_suite(4, 6, 10);
      search::SearchOptions options;
      options.strategy = search::Strategy::kBeam;
      options.beam_width = 4;
      int i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        try {
          (void)svc.submit("b" + std::to_string(i), "fidelity",
                           corpus[static_cast<std::size_t>(i) % corpus.size()],
                           /*verify=*/false, options)
              .get();
        } catch (...) {
        }
        ++i;
      }
    });
  }
  ~CompileBurst() {
    stop.store(true);
    thread.join();
  }
};

TEST(ProfilezHttp, BadParamsGetDeterministic400s) {
  ProfTestServer ts(/*with_model=*/false);
  const int port = ts.server.metrics_port();
  const struct {
    const char* path;
    const char* message;
  } cases[] = {
      {"/profilez?seconds=0", "bad 'seconds': must be in (0, 60]"},
      {"/profilez?seconds=-1", "bad 'seconds': must be in (0, 60]"},
      {"/profilez?seconds=100", "bad 'seconds': must be in (0, 60]"},
      {"/profilez?seconds=abc", "bad 'seconds': not a number"},
      {"/profilez?hz=0", "bad 'hz': must be in [1, 1000]"},
      {"/profilez?hz=-5", "bad 'hz': must be in [1, 1000]"},
      {"/profilez?hz=5000", "bad 'hz': must be in [1, 1000]"},
      {"/profilez?hz=x", "bad 'hz': not an integer"},
      {"/profilez?depth=5", "unknown query parameter 'depth'"},
  };
  for (const auto& c : cases) {
    const std::string response = http_get(port, c.path);
    EXPECT_NE(response.find("400 Bad Request"), std::string::npos) << c.path;
    EXPECT_NE(body_of(response).find(c.message), std::string::npos) << c.path;
  }
  EXPECT_FALSE(Profiler::active()) << "a rejected request started a session";
}

TEST(ProfilezHttp, BusySessionGets409) {
  ProfTestServer ts(/*with_model=*/false);
  ASSERT_TRUE(Profiler::start(97));
  const std::string response =
      http_get(ts.server.metrics_port(), "/profilez?seconds=0.05");
  EXPECT_NE(response.find("409 Conflict"), std::string::npos);
  EXPECT_NE(body_of(response).find("profiler busy"), std::string::npos);
  Profiler::stop();
  Profiler::reset();
}

TEST(ProfilezHttp, HeadValidatesWithoutSampling) {
  ProfTestServer ts(/*with_model=*/false);
  const int port = ts.server.metrics_port();
  const std::string good = http_exchange(
      port, "HEAD /profilez?seconds=1&hz=97 HTTP/1.0\r\n\r\n");
  EXPECT_NE(good.find("200 OK"), std::string::npos);
  EXPECT_FALSE(Profiler::active()) << "HEAD must never start a session";
  const std::string bad =
      http_exchange(port, "HEAD /profilez?hz=0 HTTP/1.0\r\n\r\n");
  EXPECT_NE(bad.find("400 Bad Request"), std::string::npos);
}

TEST(ProfilezHttp, FoldedProfileDuringCompileBurst) {
  Profiler::reset();
  ProfTestServer ts;
  std::string response;
  {
    CompileBurst burst(ts.service);
    response = http_get(ts.server.metrics_port(),
                        "/profilez?seconds=0.4&hz=500");
  }
  ASSERT_NE(response.find("200 OK"), std::string::npos) << response;
  const std::string folded = body_of(response);
  ASSERT_FALSE(folded.empty());
  bool found_kernel_frame = false;
  for (const char* candidate :
       {"forward_batch", "run_greedy", "parallel_for", "peek_step",
        "run_search", "qrc"}) {
    if (folded.find(candidate) != std::string::npos) {
      found_kernel_frame = true;
    }
  }
  EXPECT_TRUE(found_kernel_frame)
      << "no known kernel frame in /profilez body:\n"
      << folded;
  Profiler::reset();
}

TEST(WireProfileOp, ReturnsFoldedResultFrame) {
  Profiler::reset();
  ProfTestServer ts;
  const net::Socket sock = net::connect_tcp("127.0.0.1", ts.server.port());
  net::LineReader reader(sock.fd());
  std::optional<std::string> line;
  {
    CompileBurst burst(ts.service);
    net::send_all(sock.fd(),
                  "{\"v\":1,\"op\":\"profile\",\"id\":\"p1\","
                  "\"seconds\":0.2,\"hz\":199}\n");
    line = reader.next_line();
  }
  ASSERT_TRUE(line.has_value());
  const auto frame = service::JsonValue::parse(*line).as_object();
  EXPECT_EQ(frame.at("id").as_string(), "p1");
  EXPECT_EQ(frame.at("type").as_string(), "result");
  EXPECT_EQ(frame.at("op").as_string(), "profile");
  EXPECT_GE(frame.at("samples").as_number(), 0.0);
  EXPECT_TRUE(frame.at("folded").is_string());
  Profiler::reset();
}

TEST(WireProfileOp, BadParamsAreTypedErrors) {
  ProfTestServer ts(/*with_model=*/false);
  const net::Socket sock = net::connect_tcp("127.0.0.1", ts.server.port());
  net::LineReader reader(sock.fd());
  const struct {
    const char* request;
    const char* message;
  } cases[] = {
      {"{\"v\":1,\"op\":\"profile\",\"id\":\"e1\",\"seconds\":0}",
       "'seconds' must be a number in (0, 60]"},
      {"{\"v\":1,\"op\":\"profile\",\"id\":\"e2\",\"seconds\":61}",
       "'seconds' must be a number in (0, 60]"},
      {"{\"v\":1,\"op\":\"profile\",\"id\":\"e3\",\"hz\":0}",
       "'hz' must be an integer in [1, 1000]"},
      {"{\"v\":1,\"op\":\"profile\",\"id\":\"e4\",\"hz\":96.5}",
       "'hz' must be an integer in [1, 1000]"},
      {"{\"v\":1,\"op\":\"profile\",\"id\":\"e5\",\"qasm\":\"x\"}",
       "unknown request field 'qasm'"},
  };
  for (const auto& c : cases) {
    net::send_all(sock.fd(), std::string(c.request) + "\n");
    const auto line = reader.next_line();
    ASSERT_TRUE(line.has_value()) << c.request;
    EXPECT_NE(line->find("\"error\""), std::string::npos) << *line;
    EXPECT_NE(line->find(c.message), std::string::npos) << *line;
  }
  EXPECT_FALSE(Profiler::active());
}

TEST(WireProfileOp, BusySessionGetsTypedError) {
  ProfTestServer ts(/*with_model=*/false);
  ASSERT_TRUE(Profiler::start(97));
  const net::Socket sock = net::connect_tcp("127.0.0.1", ts.server.port());
  net::LineReader reader(sock.fd());
  net::send_all(sock.fd(),
                "{\"v\":1,\"op\":\"profile\",\"id\":\"b1\","
                "\"seconds\":0.05}\n");
  const auto line = reader.next_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_NE(line->find("profiler session already active"), std::string::npos)
      << *line;
  Profiler::stop();
  Profiler::reset();
}

TEST(OpsSurfaces, MetricsCarriesProfilerAndProcessFamilies) {
  ProfTestServer ts(/*with_model=*/false);
  const std::string body = body_of(http_get(ts.server.metrics_port(),
                                            "/metrics"));
  for (const char* family :
       {"qrc_process_resident_memory_bytes", "qrc_process_cpu_user_seconds",
        "qrc_process_open_fds", "qrc_obs_scrape_seconds",
        "qrc_net_profilez_requests_total"}) {
    EXPECT_NE(body.find(family), std::string::npos) << family;
  }
}

TEST(OpsSurfaces, StatuszShowsProfilerAndProcessRows) {
  ProfTestServer ts(/*with_model=*/false);
  const std::string body = body_of(http_get(ts.server.metrics_port(),
                                            "/statusz"));
  EXPECT_NE(body.find("profiler:"), std::string::npos) << body;
  EXPECT_NE(body.find("process: rss"), std::string::npos) << body;
}

// ---------------------------------------------------------- bench diff ---

std::string history_rows(const char* bench, const char* key,
                         std::initializer_list<double> values) {
  std::string out;
  for (double v : values) {
    out += std::string("{\"bench\": \"") + bench + "\", \"" + key +
           "\": " + std::to_string(v) + "}\n";
  }
  return out;
}

TEST(BenchDiff, NoHistoryMeansNoBaselinePass) {
  std::map<std::string, obs::BenchMetrics> current;
  current["service_throughput"] = {{"requests_per_sec", 1000.0}};
  const auto report = obs::diff_benches("", current);
  EXPECT_FALSE(report.regressed);
  EXPECT_FALSE(report.advisory);
  ASSERT_EQ(report.results.size(), 1u);
  EXPECT_EQ(report.results[0].status, obs::DiffStatus::kNoBaseline);
}

TEST(BenchDiff, RegressionGatesOnceHistoryIsDeep) {
  const std::string history = history_rows(
      "service_throughput", "requests_per_sec", {1000, 1020, 980, 1010});
  std::map<std::string, obs::BenchMetrics> current;
  // 40% below the ~1005 median: far past the 25% tolerance.
  current["service_throughput"] = {{"requests_per_sec", 600.0}};
  const auto report = obs::diff_benches(history, current, /*min_history=*/3);
  EXPECT_TRUE(report.regressed);
  ASSERT_EQ(report.results.size(), 1u);
  EXPECT_EQ(report.results[0].status, obs::DiffStatus::kRegressed);
  EXPECT_EQ(report.results[0].history_n, 4);
  EXPECT_NEAR(report.results[0].baseline, 1005.0, 1.0);
  EXPECT_NE(report.render().find("REGRESSED"), std::string::npos);
}

TEST(BenchDiff, ShallowHistoryIsAdvisoryOnly) {
  const std::string history =
      history_rows("service_throughput", "requests_per_sec", {1000, 1020});
  std::map<std::string, obs::BenchMetrics> current;
  current["service_throughput"] = {{"requests_per_sec", 600.0}};
  const auto report = obs::diff_benches(history, current, /*min_history=*/3);
  EXPECT_FALSE(report.regressed) << "2 rows must not hard-gate";
  EXPECT_TRUE(report.advisory);
  ASSERT_EQ(report.results.size(), 1u);
  EXPECT_EQ(report.results[0].status, obs::DiffStatus::kAdvisory);
}

TEST(BenchDiff, NoiseWithinToleranceAndImprovementsPass) {
  const std::string history = history_rows(
      "service_throughput", "requests_per_sec", {1000, 1020, 980, 1010});
  std::map<std::string, obs::BenchMetrics> current;
  current["service_throughput"] = {{"requests_per_sec", 950.0}};  // -5.5%
  auto report = obs::diff_benches(history, current);
  EXPECT_FALSE(report.regressed);
  EXPECT_EQ(report.results[0].status, obs::DiffStatus::kOk);

  current["service_throughput"] = {{"requests_per_sec", 2000.0}};
  report = obs::diff_benches(history, current);
  EXPECT_FALSE(report.regressed);
  EXPECT_EQ(report.results[0].status, obs::DiffStatus::kImproved);
}

TEST(BenchDiff, LowerIsBetterDirectionRespected) {
  const std::string history = history_rows("service_throughput",
                                           "p99_latency_us", {800, 820, 790});
  std::map<std::string, obs::BenchMetrics> current;
  current["service_throughput"] = {{"p99_latency_us", 3000.0}};  // blowup
  auto report = obs::diff_benches(history, current);
  EXPECT_TRUE(report.regressed);

  current["service_throughput"] = {{"p99_latency_us", 100.0}};  // improved
  report = obs::diff_benches(history, current);
  EXPECT_FALSE(report.regressed);
  EXPECT_EQ(report.results[0].status, obs::DiffStatus::kImproved);
}

TEST(BenchDiff, MalformedHistoryLinesAreSkippedNotFatal) {
  std::string history = "this is not json\n{\"bench\": 42}\n";
  history += history_rows("kernels", "mlp_simd_speedup", {3.0, 3.1, 2.9});
  std::map<std::string, obs::BenchMetrics> current;
  current["kernels"] = {{"mlp_simd_speedup", 3.05}};
  const auto report = obs::diff_benches(history, current);
  EXPECT_EQ(report.history_rows, 3);
  EXPECT_FALSE(report.regressed);
  EXPECT_EQ(report.results[0].status, obs::DiffStatus::kOk);
}

TEST(BenchDiff, ExtractsMetricsAndServeScalePeak) {
  std::string bench_name;
  const auto metrics = obs::extract_bench_metrics(
      R"({"bench": "serve_scale", "meta": {"git_sha": "abc"},
          "sweep": [
            {"connections": 1, "requests_per_sec": 900.0},
            {"connections": 8, "requests_per_sec": 4200.0},
            {"connections": 16, "requests_per_sec": 3900.0}]})",
      bench_name);
  EXPECT_EQ(bench_name, "serve_scale");
  ASSERT_TRUE(metrics.count("peak_requests_per_sec"));
  EXPECT_DOUBLE_EQ(metrics.at("peak_requests_per_sec"), 4200.0);
  EXPECT_DOUBLE_EQ(metrics.at("peak_connections"), 8.0);
}

}  // namespace
}  // namespace qrc

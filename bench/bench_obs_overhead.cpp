// Observability overhead bench: proves the metrics/tracing layer is
// effectively free on the serving hot path. Three interleaved modes run
// the same compile workload through a CompileService (cache disabled, so
// every request is a real policy rollout):
//
//   baseline    obs::set_enabled(false) — every counter/histogram
//               mutation short-circuits at the kill switch
//   obs_on      the production default: registry mutations live,
//               requests untraced (every span = one branch)
//   log_on      obs_on plus the structured logger at info level — the
//               service's hot-path lines are debug/rate-limited, so this
//               measures the per-request should_log checks
//   detail_on   a per-request TraceContext, so every coarse and
//               hot-path span records — the full span pipeline,
//               reported but not asserted
//   profile_on  obs_on plus a live 97 Hz SIGPROF sampling session over
//               the request — measures the cost of taking profiles in
//               production (signal delivery + fp-walk per tick)
//
// The five modes interleave at request granularity (each request runs
// once per mode, in rotating order, against that mode's persistent
// service) so machine-load drift over the run cancels out instead of
// biasing one mode. Every request's submit-to-completion latency is
// pooled per mode; the compared statistic is the pooled median, which
// shrugs off scheduler-wakeup spikes that would dominate a wall-clock
// diff. The bench asserts obs_on AND log_on within QRC_OBS_BENCH_MAX_PCT
// (default 2%) of baseline, and profile_on within
// QRC_OBS_BENCH_MAX_PROFILE_PCT (default 5%), exiting nonzero past
// either ceiling.
//
// A second section stands up a live server with the /metrics side
// listener, drives one traced verified search compile over the wire, and
// scrapes GET /metrics — recording which core metric families appear in
// the snapshot. Results go to BENCH_obs_overhead.json.
//
// Knobs: QRC_TRAIN_STEPS (default 2000) sizes model training,
// QRC_OBS_BENCH_REQUESTS (default 48) requests per trial,
// QRC_OBS_BENCH_TRIALS (default 5) trials per mode,
// QRC_OBS_BENCH_MAX_PCT (default 2.0) the asserted overhead ceiling,
// QRC_OBS_BENCH_MAX_PROFILE_PCT (default 5.0) the profile_on ceiling.

#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "experiment_common.hpp"
#include "ir/qasm.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "service/compile_service.hpp"
#include "service/jsonl.hpp"

namespace {

using namespace qrc;
using Clock = std::chrono::steady_clock;

core::Predictor train_small_model(const std::vector<ir::Circuit>& corpus) {
  core::PredictorConfig config;
  config.reward = reward::RewardKind::kFidelity;
  config.seed = 23;
  config.ppo.total_timesteps =
      bench_harness::env_int("QRC_TRAIN_STEPS", 2000);
  config.ppo.steps_per_update = 512;
  config.ppo.hidden_sizes = {32};
  config.num_envs = bench_harness::num_envs();
  config.rollout_workers = bench_harness::rollout_workers();
  core::Predictor predictor(config);
  std::printf("# training model (%d timesteps)...\n",
              config.ppo.total_timesteps);
  std::fflush(stdout);
  (void)predictor.train(corpus);
  return predictor;
}

enum class Mode { kBaseline, kObsOn, kLogOn, kDetailOn, kProfileOn };

/// Each mode gets one persistent service; requests alternate between the
/// modes at sub-millisecond granularity so that machine-load drift over
/// the run hits every mode equally instead of biasing whichever one ran
/// during a quiet stretch. Flipping the global obs switches per request
/// is safe because submissions are sequential: .get() completes the
/// in-flight request before the next flip.
struct ModeLane {
  Mode mode;
  std::unique_ptr<service::CompileService> svc;
  std::vector<std::int64_t> samples;
};

std::unique_ptr<service::CompileService> make_service(
    const core::Predictor& model) {
  service::ServiceConfig config;
  config.cache_entries = 0;  // measure rollouts, not cache hits
  config.max_wait_us = 0;    // dispatch immediately: the batch window's
                             // timer jitter would otherwise swamp the
                             // nanoseconds under measurement
  auto svc = std::make_unique<service::CompileService>(config);
  svc->registry().add(
      "fidelity",
      std::shared_ptr<const core::Predictor>(&model,
                                             [](const core::Predictor*) {}));
  return svc;
}

void run_one(ModeLane& lane, const ir::Circuit& circuit, int i,
             bool record) {
  obs::set_enabled(lane.mode != Mode::kBaseline);
  obs::Logger::instance().set_level(lane.mode == Mode::kLogOn
                                        ? obs::LogLevel::kInfo
                                        : obs::LogLevel::kOff);
  std::shared_ptr<obs::TraceContext> trace;
  if (lane.mode == Mode::kDetailOn) {
    trace = std::make_shared<obs::TraceContext>("r" + std::to_string(i));
  }
  // profile_on: the sampling session brackets the submission, so every
  // SIGPROF tick lands while the rollout runs; the setitimer start/stop
  // syscalls themselves stay outside the measured latency_us.
  const bool profiling =
      lane.mode == Mode::kProfileOn && obs::Profiler::start(97);
  const auto response =
      lane.svc->submit("r" + std::to_string(i), "fidelity", circuit,
                       /*verify=*/false, std::nullopt, trace)
          .get();
  if (profiling) {
    obs::Profiler::stop();
  }
  if (record) {
    lane.samples.push_back(response.latency_us);
  }
  obs::set_enabled(true);
  obs::Logger::instance().set_level(obs::LogLevel::kOff);
}

std::int64_t median_of(std::vector<std::int64_t> samples) {
  if (samples.empty()) {
    return 0;
  }
  const auto mid = samples.begin() +
                   static_cast<std::ptrdiff_t>(samples.size() / 2);
  std::nth_element(samples.begin(), mid, samples.end());
  return *mid;
}

/// Live-server leg: one traced compile over the wire plus an HTTP scrape;
/// returns the metric families found in the snapshot.
std::vector<std::string> scrape_live_server(const core::Predictor& model,
                                            bool* traced_ok) {
  service::CompileService svc;
  svc.registry().add(
      "fidelity",
      std::shared_ptr<const core::Predictor>(&model,
                                             [](const core::Predictor*) {}));
  net::ServerConfig net_config;
  net_config.host = "127.0.0.1";
  net_config.port = 0;
  net_config.metrics_port = 0;
  net::Server server(svc, net_config);
  server.start();

  const ir::Circuit circuit = bench::make_benchmark(
      bench::BenchmarkFamily::kGhz, 3, 1);
  {
    const net::Socket sock = net::connect_tcp("127.0.0.1", server.port());
    net::LineReader reader(sock.fd());
    net::send_all(sock.fd(),
                  "{\"v\":1,\"op\":\"compile\",\"id\":\"t1\",\"qasm\":" +
                      service::json_quote(ir::to_qasm(circuit)) +
                      ",\"verify\":true,\"search\":\"beam:2\","
                      "\"trace\":true}\n");
    *traced_ok = false;
    while (const auto line = reader.next_line()) {
      if (line->find("\"type\":\"partial\"") != std::string::npos) {
        continue;
      }
      *traced_ok = line->find("\"trace\":{") != std::string::npos;
      break;
    }
  }

  std::string snapshot;
  {
    const net::Socket sock =
        net::connect_tcp("127.0.0.1", server.metrics_port());
    net::send_all(sock.fd(), "GET /metrics HTTP/1.0\r\n\r\n");
    char buf[8192];
    for (;;) {
      const auto n = ::recv(sock.fd(), buf, sizeof(buf), 0);
      if (n <= 0) {
        break;
      }
      snapshot.append(buf, static_cast<std::size_t>(n));
    }
  }
  server.stop();

  const std::vector<std::string> core_families = {
      "qrc_requests_total",       "qrc_request_latency_us",
      "qrc_queue_wait_us",        "qrc_rollout_duration_us",
      "qrc_batches_total",        "qrc_search_requests_total",
      "qrc_search_duration_us",   "qrc_verify_verdicts_total",
      "qrc_verify_duration_us",   "qrc_cache_hits_total",
      "qrc_net_frames_in_total",  "qrc_net_frames_out_total",
      "qrc_net_connections_active"};
  std::vector<std::string> found;
  for (const std::string& family : core_families) {
    if (snapshot.find(family) != std::string::npos) {
      found.push_back(family);
    }
  }
  return found;
}

}  // namespace

int main() {
  const int requests =
      std::max(1, bench_harness::env_int("QRC_OBS_BENCH_REQUESTS", 48));
  const int trials =
      std::max(1, bench_harness::env_int("QRC_OBS_BENCH_TRIALS", 5));
  const double max_pct = [] {
    const char* v = std::getenv("QRC_OBS_BENCH_MAX_PCT");
    return v != nullptr && *v != '\0' ? std::atof(v) : 2.0;
  }();
  const double max_profile_pct = [] {
    const char* v = std::getenv("QRC_OBS_BENCH_MAX_PROFILE_PCT");
    return v != nullptr && *v != '\0' ? std::atof(v) : 5.0;
  }();

  const std::vector<ir::Circuit> corpus = bench::benchmark_suite(2, 4, 6);
  const core::Predictor model = train_small_model(corpus);

  // The main thread participates in rollouts via the pool's
  // caller-runs path, so enroll it before any profile_on request.
  obs::Profiler::enroll_current_thread();

  ModeLane lanes[5] = {{Mode::kBaseline, make_service(model), {}},
                       {Mode::kObsOn, make_service(model), {}},
                       {Mode::kLogOn, make_service(model), {}},
                       {Mode::kDetailOn, make_service(model), {}},
                       {Mode::kProfileOn, make_service(model), {}}};

  // Warm-up pass so first-touch costs (lane spin-up, allocator) are paid
  // before any timed request.
  for (int i = 0; i < requests; ++i) {
    for (ModeLane& lane : lanes) {
      run_one(lane, corpus[static_cast<std::size_t>(i) % corpus.size()], i,
              /*record=*/false);
    }
  }

  for (int t = 0; t < trials; ++t) {
    for (int i = 0; i < requests; ++i) {
      const ir::Circuit& circuit =
          corpus[static_cast<std::size_t>(i) % corpus.size()];
      // Rotate which mode goes first so no mode always pays (or always
      // skips) the cache-warming cost of a fresh circuit.
      for (int m = 0; m < 5; ++m) {
        run_one(lanes[(m + i + t) % 5], circuit, t * requests + i,
                /*record=*/true);
      }
    }
    std::printf("# trial %d/%d: pooled medians baseline %lld us, obs_on "
                "%lld us, log_on %lld us, detail_on %lld us, profile_on "
                "%lld us\n",
                t + 1, trials,
                static_cast<long long>(median_of(lanes[0].samples)),
                static_cast<long long>(median_of(lanes[1].samples)),
                static_cast<long long>(median_of(lanes[2].samples)),
                static_cast<long long>(median_of(lanes[3].samples)),
                static_cast<long long>(median_of(lanes[4].samples)));
    std::fflush(stdout);
  }

  const std::int64_t best_baseline = median_of(lanes[0].samples);
  const std::int64_t best_obs_on = median_of(lanes[1].samples);
  const std::int64_t best_log_on = median_of(lanes[2].samples);
  const std::int64_t best_detail = median_of(lanes[3].samples);
  const std::int64_t best_profile = median_of(lanes[4].samples);
  const auto pct = [&](std::int64_t us) {
    return best_baseline > 0
               ? 100.0 * (static_cast<double>(us - best_baseline) /
                          static_cast<double>(best_baseline))
               : 0.0;
  };
  const double overhead_on_pct = pct(best_obs_on);
  const double overhead_log_pct = pct(best_log_on);
  const double overhead_detail_pct = pct(best_detail);
  const double overhead_profile_pct = pct(best_profile);
  std::printf("# obs_on overhead %.3f%%, log_on %.3f%% (ceiling %.1f%%), "
              "detail_on %.3f%% (reported only), profile_on %.3f%% "
              "(ceiling %.1f%%)\n",
              overhead_on_pct, overhead_log_pct, max_pct,
              overhead_detail_pct, overhead_profile_pct, max_profile_pct);

  bool traced_ok = false;
  const std::vector<std::string> found =
      scrape_live_server(model, &traced_ok);
  std::printf("# live server: traced response %s, %zu core famil%s in "
              "the /metrics snapshot\n",
              traced_ok ? "carried a span tree" : "MISSING its trace",
              found.size(), found.size() == 1 ? "y" : "ies");

  std::FILE* json = std::fopen("BENCH_obs_overhead.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "{\n");
    bench_harness::write_meta(json);
    std::fprintf(json,
                 "  \"bench\": \"obs_overhead\",\n"
                 "  \"requests_per_trial\": %d,\n"
                 "  \"trials\": %d,\n"
                 "  \"baseline_us\": %lld,\n"
                 "  \"obs_on_us\": %lld,\n"
                 "  \"log_on_us\": %lld,\n"
                 "  \"detail_on_us\": %lld,\n"
                 "  \"profile_on_us\": %lld,\n"
                 "  \"overhead_on_pct\": %.4f,\n"
                 "  \"overhead_log_pct\": %.4f,\n"
                 "  \"overhead_detail_pct\": %.4f,\n"
                 "  \"overhead_profile_pct\": %.4f,\n"
                 "  \"max_overhead_pct\": %.2f,\n"
                 "  \"max_profile_pct\": %.2f,\n"
                 "  \"traced_response_has_trace\": %s,\n"
                 "  \"snapshot_metrics\": [",
                 requests, trials, static_cast<long long>(best_baseline),
                 static_cast<long long>(best_obs_on),
                 static_cast<long long>(best_log_on),
                 static_cast<long long>(best_detail),
                 static_cast<long long>(best_profile), overhead_on_pct,
                 overhead_log_pct, overhead_detail_pct,
                 overhead_profile_pct, max_pct, max_profile_pct,
                 traced_ok ? "true" : "false");
    for (std::size_t i = 0; i < found.size(); ++i) {
      std::fprintf(json, "%s\"%s\"", i == 0 ? "" : ", ", found[i].c_str());
    }
    std::fprintf(json, "]\n}\n");
    std::fclose(json);
    std::printf("  results written to BENCH_obs_overhead.json\n");
  }

  if (overhead_on_pct > max_pct) {
    std::fprintf(stderr,
                 "FAIL: obs_on overhead %.3f%% exceeds the %.1f%% ceiling\n",
                 overhead_on_pct, max_pct);
    return 1;
  }
  if (overhead_log_pct > max_pct) {
    std::fprintf(stderr,
                 "FAIL: log_on overhead %.3f%% exceeds the %.1f%% ceiling\n",
                 overhead_log_pct, max_pct);
    return 1;
  }
  if (overhead_profile_pct > max_profile_pct) {
    std::fprintf(stderr,
                 "FAIL: profile_on overhead %.3f%% exceeds the %.1f%% "
                 "ceiling\n",
                 overhead_profile_pct, max_profile_pct);
    return 1;
  }
  if (!traced_ok) {
    std::fprintf(stderr, "FAIL: traced wire response carried no trace\n");
    return 1;
  }
  return 0;
}

// Compile-service throughput bench: measures the micro-batching scheduler
// end to end. Two small models (fidelity + depth objectives) are trained,
// a request mix (every circuit requested several times, alternating
// models) is replayed twice against fresh services — once single-stream
// (submit, wait, repeat: no batching possible) and once from concurrent
// client threads (requests fuse into batched policy rollouts and repeats
// hit the LRU cache) — and the results are printed and written to
// BENCH_service_throughput.json: requests/sec, p50/p99 latency, the
// batch-size histogram, cache hit rate, and the concurrent-vs-single
// speedup (>= 1.0 expected on multi-core hosts; on a single hardware
// thread the two collapse to parity by construction).
//
// Knobs (see experiment_common.hpp): QRC_TRAIN_STEPS (default 4000) sizes
// model training, QRC_EVAL_COUNT (default 16) the circuit corpus,
// QRC_SERVE_CLIENTS (default 4) the concurrent client threads,
// QRC_SERVE_REPEAT (default 3) how often each circuit is requested,
// QRC_SERVE_MAX_BATCH / QRC_SERVE_MAX_WAIT_US the scheduler window.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "experiment_common.hpp"
#include "obs/metrics.hpp"
#include "service/compile_service.hpp"

namespace {

using namespace qrc;
using Clock = std::chrono::steady_clock;

struct Request {
  std::string model;
  const ir::Circuit* circuit = nullptr;
};

struct RunResult {
  double seconds = 0.0;
  double requests_per_sec = 0.0;
  std::int64_t p50_latency_us = 0;
  std::int64_t p99_latency_us = 0;
  /// The run's service registry, read after the service is gone.
  std::shared_ptr<obs::MetricsRegistry> metrics;
};

std::int64_t percentile(std::vector<std::int64_t>& sorted, double p) {
  if (sorted.empty()) {
    return 0;
  }
  const auto rank = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1) / 100.0 + 0.5);
  return sorted[std::min(rank, sorted.size() - 1)];
}

core::Predictor train_small_model(reward::RewardKind kind,
                                  const std::vector<ir::Circuit>& corpus) {
  core::PredictorConfig config;
  config.reward = kind;
  config.seed = 17;
  config.ppo.total_timesteps =
      bench_harness::env_int("QRC_TRAIN_STEPS", 4000);
  config.ppo.steps_per_update = 512;
  config.ppo.hidden_sizes = {32};
  config.num_envs = bench_harness::num_envs();
  config.rollout_workers = bench_harness::rollout_workers();
  core::Predictor predictor(config);
  std::printf("# training '%s' model (%d timesteps)...\n",
              reward::reward_name(kind).data(),
              config.ppo.total_timesteps);
  std::fflush(stdout);
  (void)predictor.train(corpus);
  return predictor;
}

/// Replays the request waves and reports wall time plus service-side
/// latencies. `clients` == 1 submits synchronously (single-stream
/// baseline: no batching possible); more clients submit their shard of a
/// wave without waiting, so concurrent requests fuse into batches. Waves
/// are separated by a barrier — repeats of a circuit in a later wave hit
/// the result cache instead of deduping inside one batch.
RunResult run(service::CompileService& svc,
              const std::vector<std::vector<Request>>& waves, int clients) {
  std::vector<std::int64_t> latencies;
  const auto start = Clock::now();
  for (const auto& wave : waves) {
    if (clients <= 1) {
      for (const Request& request : wave) {
        latencies.push_back(
            svc.compile(request.model, *request.circuit).latency_us);
      }
      continue;
    }
    std::vector<std::int64_t> wave_latencies(wave.size());
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(clients));
    for (int t = 0; t < clients; ++t) {
      threads.emplace_back([&, t] {
        std::vector<std::pair<std::size_t,
                              std::future<service::ServiceResponse>>>
            inflight;
        for (std::size_t i = static_cast<std::size_t>(t); i < wave.size();
             i += static_cast<std::size_t>(clients)) {
          inflight.emplace_back(
              i, svc.submit(std::to_string(i), wave[i].model,
                            *wave[i].circuit));
        }
        for (auto& [i, future] : inflight) {
          wave_latencies[i] = future.get().latency_us;
        }
      });
    }
    for (auto& thread : threads) {
      thread.join();
    }
    latencies.insert(latencies.end(), wave_latencies.begin(),
                     wave_latencies.end());
  }
  RunResult out;
  out.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  out.requests_per_sec =
      static_cast<double>(latencies.size()) / std::max(out.seconds, 1e-12);
  std::sort(latencies.begin(), latencies.end());
  out.p50_latency_us = percentile(latencies, 50.0);
  out.p99_latency_us = percentile(latencies, 99.0);
  out.metrics = svc.config().metrics;
  return out;
}

}  // namespace

int main() {
  const int corpus_size =
      std::max(4, bench_harness::env_int("QRC_EVAL_COUNT", 16));
  const int clients =
      std::max(2, bench_harness::env_int("QRC_SERVE_CLIENTS", 4));
  const int repeat =
      std::max(1, bench_harness::env_int("QRC_SERVE_REPEAT", 3));
  const auto corpus = bench::benchmark_suite(2, 8, corpus_size);

  service::ServiceConfig config;
  config.max_batch = bench_harness::env_int("QRC_SERVE_MAX_BATCH", 16);
  config.max_wait_us =
      bench_harness::env_int("QRC_SERVE_MAX_WAIT_US", 2000);
  config.cache_entries = 512;

  std::printf("# service throughput: %zu circuits x %d repeats, %d "
              "concurrent clients, max_batch=%d max_wait_us=%lld\n",
              corpus.size(), repeat, clients, config.max_batch,
              static_cast<long long>(config.max_wait_us));

  auto fidelity =
      train_small_model(reward::RewardKind::kFidelity, corpus);
  auto depth = train_small_model(reward::RewardKind::kDepth, corpus);

  // The request mix: `repeat` waves over the corpus, alternating models,
  // so both lanes see traffic; wave 1 exercises batching, later waves are
  // repeats and exercise the cache ((repeat-1)/repeat ideal hit rate).
  std::vector<std::vector<Request>> waves(
      static_cast<std::size_t>(repeat));
  std::size_t num_requests = 0;
  for (auto& wave : waves) {
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      wave.push_back({i % 2 == 0 ? "fidelity" : "depth", &corpus[i]});
      ++num_requests;
    }
  }

  const auto run_one = [&](int run_clients) {
    service::ServiceConfig run_config = config;
    run_config.metrics = std::make_shared<obs::MetricsRegistry>();
    service::CompileService svc(run_config);
    svc.registry().add(
        "fidelity",
        std::shared_ptr<const core::Predictor>(&fidelity,
                                               [](const auto*) {}));
    svc.registry().add(
        "depth", std::shared_ptr<const core::Predictor>(
                     &depth, [](const auto*) {}));
    return run(svc, waves, run_clients);
  };

  std::printf("# single-stream pass (no batching possible)...\n");
  std::fflush(stdout);
  const RunResult single = run_one(1);
  std::printf("  single-stream: %7.1f req/sec  p50 %6lld us  p99 %6lld us\n",
              single.requests_per_sec,
              static_cast<long long>(single.p50_latency_us),
              static_cast<long long>(single.p99_latency_us));

  std::printf("# concurrent pass (%d clients)...\n", clients);
  std::fflush(stdout);
  const RunResult conc = run_one(clients);
  const double speedup =
      conc.requests_per_sec / std::max(single.requests_per_sec, 1e-12);
  const obs::MetricsRegistry& metrics = *conc.metrics;
  const std::uint64_t requests = metrics.counter_total("qrc_requests_total");
  const double hit_rate =
      requests > 0
          ? static_cast<double>(metrics.counter_value("qrc_cache_hits_total")) /
                static_cast<double>(requests)
          : 0.0;
  const int max_batch_observed =
      static_cast<int>(metrics.gauge_value("qrc_batch_size_max"));
  std::map<int, std::uint64_t> batch_sizes;  // numeric order for the report
  for (const auto& [labels, count] :
       metrics.counter_series("qrc_batches_by_size_total")) {
    batch_sizes[std::stoi(labels.front().second)] += count;
  }
  std::printf("  concurrent:    %7.1f req/sec  p50 %6lld us  p99 %6lld us\n",
              conc.requests_per_sec,
              static_cast<long long>(conc.p50_latency_us),
              static_cast<long long>(conc.p99_latency_us));
  std::printf("  cache hit rate %.3f, %llu batch(es), largest batch %d\n",
              hit_rate,
              static_cast<unsigned long long>(
                  metrics.counter_value("qrc_batches_total")),
              max_batch_observed);
  std::printf("  batch-size histogram:");
  for (const auto& [size, count] : batch_sizes) {
    std::printf(" %d:%llu", size,
                static_cast<unsigned long long>(count));
  }
  std::printf("\n  -> concurrent vs single-stream: %.2fx (target >= 1x; "
              "batching wins need >= 2 hardware threads)\n",
              speedup);

  std::FILE* json = std::fopen("BENCH_service_throughput.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "{\n");
    bench_harness::write_meta(json);
    std::fprintf(json,
                 "  \"bench\": \"service_throughput\",\n"
                 "  \"num_requests\": %zu,\n"
                 "  \"num_clients\": %d,\n"
                 "  \"max_batch\": %d,\n"
                 "  \"max_wait_us\": %lld,\n"
                 "  \"requests_per_sec\": %.2f,\n"
                 "  \"p50_latency_us\": %lld,\n"
                 "  \"p99_latency_us\": %lld,\n"
                 "  \"cache_hit_rate\": %.4f,\n"
                 "  \"single_stream_rps\": %.2f,\n"
                 "  \"concurrent_vs_single_speedup\": %.3f,\n"
                 "  \"max_batch_observed\": %d,\n"
                 "  \"batch_size_histogram\": {",
                 num_requests, clients, config.max_batch,
                 static_cast<long long>(config.max_wait_us),
                 conc.requests_per_sec,
                 static_cast<long long>(conc.p50_latency_us),
                 static_cast<long long>(conc.p99_latency_us), hit_rate,
                 single.requests_per_sec, speedup, max_batch_observed);
    bool first = true;
    for (const auto& [size, count] : batch_sizes) {
      std::fprintf(json, "%s\"%d\": %llu", first ? "" : ", ", size,
                   static_cast<unsigned long long>(count));
      first = false;
    }
    std::fprintf(json, "}\n}\n");
    std::fclose(json);
    std::printf("  results written to BENCH_service_throughput.json\n");
  }
  return 0;
}

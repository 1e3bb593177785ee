/// \file compile_service.hpp
/// \brief Long-lived concurrent compilation server over trained Predictor
///        models: a dynamic micro-batching scheduler fuses requests that
///        arrive within a batch window into one batched greedy-policy
///        rollout (Predictor::compile_all), a model registry routes each
///        request to its model (batching per model), and an LRU result
///        cache short-circuits repeat circuits. Micro-batching and caching
///        are exact: every request's result is identical to a direct
///        Predictor::compile() of the same circuit.
///
/// Observability: every counter lives in an obs::MetricsRegistry owned by
/// (or injected into) the service; the serve stats table (net/stats.hpp)
/// reads it. Requests submitted with a TraceContext get scoped
/// spans (queue wait, batch, rollout, search, verify) recorded as they
/// move through the lane.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "core/predictor.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rl/thread_pool.hpp"
#include "service/errors.hpp"
#include "service/model_registry.hpp"
#include "service/result_cache.hpp"

namespace qrc::service {

struct ServiceConfig {
  /// Most requests fused into one batched policy rollout. A batch closes
  /// as soon as this many requests are queued.
  int max_batch = 32;
  /// Batch window: after the first request of a batch, the scheduler
  /// waits at most this long for more before dispatching. 0 dispatches
  /// immediately (batching only what is already queued).
  std::int64_t max_wait_us = 2000;
  /// LRU result-cache capacity in entries; 0 disables caching.
  std::size_t cache_entries = 1024;
  /// Model used by requests that do not name one. Empty: requests may
  /// omit the model only while exactly one model is registered.
  std::string default_model;
  /// Admission control: per-model-lane queue bound. A submit against a
  /// lane already holding this many queued requests is shed with a typed
  /// ServiceError(kOverloaded) instead of growing the queue without
  /// bound. 0 (default) disables shedding.
  std::size_t max_lane_queue = 0;
  /// Metrics destination. Null (default): the service creates its own
  /// registry — each service instance counts independently, which the
  /// service tests rely on. Inject a shared registry to aggregate.
  std::shared_ptr<obs::MetricsRegistry> metrics;
};

/// Outcome of one service request.
struct ServiceResponse {
  std::string id;     ///< echoed request id
  std::string model;  ///< model that served the request
  /// Identical to Predictor::compile(); `result.verification` is filled
  /// iff the request asked for it (the field CompileOptions::verify fills).
  /// Cached results are re-verified against the incoming circuit — the
  /// checker is deterministic, so a cache hit carries the same verdict a
  /// fresh compilation would.
  core::CompilationResult result;
  bool cached = false;          ///< served from the LRU, no policy run
  std::int64_t latency_us = 0;  ///< submit-to-completion wall time
  /// The request's trace, when it was submitted with one; spans recorded
  /// by the service are complete by the time the response is delivered.
  std::shared_ptr<obs::TraceContext> trace;
};

/// Completion/streaming hooks for submit(). All hooks fire on the model
/// lane's scheduler thread (never the submitter's), so they must be cheap
/// and must not call back into the service. `on_partial` only fires for
/// freshly searched requests (a cache hit replays the recorded outcome
/// without re-running the engine — no interim progress exists).
struct SubmitHooks {
  std::function<void(const search::SearchProgress&)> on_partial;
  std::function<void(ServiceResponse)> on_result;
  std::function<void(ErrorCode, const std::string&)> on_error;
};

/// Thread-safe compilation server. Submit from any number of threads; each
/// registered model gets its own request lane, scheduler thread, and
/// worker pool, so traffic to one model never stalls another. Destruction
/// drains every lane: all returned futures complete.
class CompileService {
 public:
  explicit CompileService(ServiceConfig config = {});
  ~CompileService();
  CompileService(const CompileService&) = delete;
  CompileService& operator=(const CompileService&) = delete;

  /// Models are hot-addable: registry().add(...) at any time makes the
  /// model immediately routable by name.
  [[nodiscard]] ModelRegistry& registry() { return registry_; }
  [[nodiscard]] const ModelRegistry& registry() const { return registry_; }

  /// The service's metrics registry (see ServiceConfig::metrics). The net
  /// layer and the /metrics surfaces render from here.
  [[nodiscard]] obs::MetricsRegistry& metrics() const { return *metrics_; }

  /// Enqueues one compilation. `model_name` empty selects the default
  /// model (ServiceConfig::default_model, or the sole registered model).
  /// The future completes with the response, or with the exception the
  /// compilation raised. `verify` requests the post-compile equivalence
  /// gate with the default verify::VerifyOptions (fixed seed: replays and
  /// cache hits reach identical verdicts); the compiled circuit is
  /// identical either way. `search`, if set, compiles by policy-guided
  /// lookahead (CompileOptions::search) instead of the greedy rollout;
  /// the cache key then incorporates the full search configuration, so
  /// searched results never alias greedy ones (or searches under other
  /// configs). `trace`, if set, collects scoped spans for the request —
  /// tracing is observation-only and never changes the compiled result.
  /// \throws ServiceError(kBadRequest) when the circuit is wider than the
  ///         widest library device (no target could ever hold it).
  /// \throws ServiceError(kUnknownModel) if the model cannot be resolved.
  /// \throws ServiceError(kOverloaded) when the lane queue is full
  ///         (ServiceConfig::max_lane_queue).
  /// \throws ServiceError(kShuttingDown) after shutdown has begun.
  std::future<ServiceResponse> submit(
      std::string id, const std::string& model_name, ir::Circuit circuit,
      bool verify = false,
      std::optional<search::SearchOptions> search = std::nullopt,
      std::shared_ptr<obs::TraceContext> trace = nullptr);

  /// Hook-based variant for event-loop callers (the socket server): the
  /// response (or processing error) is delivered through `hooks` on the
  /// lane thread instead of a future, and deadline-bounded searches
  /// stream interim progress through `hooks.on_partial`. Admission
  /// failures still throw synchronously, exactly like submit().
  void submit_with_hooks(std::string id, const std::string& model_name,
                         ir::Circuit circuit, bool verify,
                         std::optional<search::SearchOptions> search,
                         SubmitHooks hooks,
                         std::shared_ptr<obs::TraceContext> trace = nullptr);

  /// Convenience: submit and wait.
  ServiceResponse compile(const std::string& model_name,
                          const ir::Circuit& circuit);

  [[nodiscard]] const ServiceConfig& config() const { return config_; }

 private:
  struct Pending {
    std::string id;
    std::string key;  ///< cache key; empty when caching is disabled
    ir::Circuit circuit;
    bool verify = false;  ///< run the post-compile equivalence gate
    /// Policy-guided search config; nullopt = greedy rollout.
    std::optional<search::SearchOptions> search;
    /// Cache hit that still needs verification: carried into the lane so
    /// the (possibly slow) equivalence check runs on the lane's worker
    /// pool instead of stalling the submitter's thread. No policy run.
    std::optional<core::CompilationResult> cached_result;
    /// Exactly one delivery channel is armed: the promise (future-based
    /// submit) or hooks.on_result/on_error (submit_with_hooks).
    std::promise<ServiceResponse> promise;
    SubmitHooks hooks;
    /// Span sink for the request; null = untraced (the common case).
    std::shared_ptr<obs::TraceContext> trace;
    std::chrono::steady_clock::time_point submitted;
  };

  /// Per-model request lane: queue, scheduler thread, rollout pool.
  struct Lane {
    std::string name;
    std::shared_ptr<const core::Predictor> model;
    std::unique_ptr<rl::WorkerPool> pool;
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Pending> queue;
    bool stop = false;
    std::thread worker;
  };

  /// Cached registry handles for one model's label set.
  struct ModelMetrics {
    obs::Counter* requests = nullptr;
    obs::Histogram* latency_us = nullptr;
    obs::Histogram* queue_wait_us = nullptr;
    obs::Histogram* rollout_us = nullptr;
  };

  [[nodiscard]] std::string resolve_model_name(
      const std::string& model_name) const;
  Lane& lane_for(const std::string& name,
                 std::shared_ptr<const core::Predictor> model);
  ModelMetrics& model_metrics(const std::string& model);
  /// Shared submit path behind both public variants; `pending` carries
  /// whichever delivery channel the caller armed.
  void submit_impl(const std::string& model_name, Pending pending);
  /// Routes one finished response / processing failure through whichever
  /// delivery channel the submit armed (hooks or promise).
  static void deliver_response(Pending& pending, ServiceResponse response);
  static void deliver_error(Pending& pending,
                            const std::exception_ptr& error);
  void scheduler_loop(Lane& lane);
  void process_batch(Lane& lane, std::vector<Pending> batch);
  /// Bumps the per-(verdict, method) verdict counter.
  void count_verdict(const verify::VerifyResult& verdict);

  ServiceConfig config_;
  std::shared_ptr<obs::MetricsRegistry> metrics_;
  ModelRegistry registry_;
  ResultCache cache_;

  // Registry handles shared across models (registered once in the ctor).
  obs::Counter* batches_total_ = nullptr;
  obs::Counter* batched_requests_total_ = nullptr;
  obs::Gauge* batch_size_max_ = nullptr;
  obs::Counter* shed_total_ = nullptr;
  obs::Counter* partials_total_ = nullptr;
  obs::Counter* search_requests_beam_ = nullptr;
  obs::Counter* search_requests_mcts_ = nullptr;

  mutable std::mutex lanes_mu_;
  std::map<std::string, std::unique_ptr<Lane>> lanes_;

  mutable std::mutex model_metrics_mu_;
  std::map<std::string, ModelMetrics> model_metrics_;

  std::atomic<bool> stopping_{false};
};

}  // namespace qrc::service

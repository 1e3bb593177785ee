#include "service/compile_service.hpp"

#include <algorithm>
#include <limits>
#include <span>
#include <stdexcept>
#include <string_view>
#include <utility>
#include <vector>

#include "device/library.hpp"
#include "ir/qasm.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/log.hpp"
#include "obs/profiler.hpp"
#include "obs/stage.hpp"
#include "verify/equivalence.hpp"

namespace qrc::service {

namespace {

using Clock = std::chrono::steady_clock;

std::int64_t elapsed_us(Clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             Clock::now() - since)
      .count();
}

std::int64_t us_between(Clock::time_point from, Clock::time_point to) {
  const auto us =
      std::chrono::duration_cast<std::chrono::microseconds>(to - from)
          .count();
  return us < 0 ? 0 : us;
}

constexpr std::string_view kHelpRequests = "Requests submitted, per model";
constexpr std::string_view kHelpLatency =
    "Submit-to-completion latency in microseconds, per model";
constexpr std::string_view kHelpQueueWait =
    "Lane queue wait in microseconds, per model";
constexpr std::string_view kHelpRollout =
    "Fused greedy rollout duration in microseconds, per model";

}  // namespace

void CompileService::deliver_response(Pending& pending,
                                      ServiceResponse response) {
  if (pending.hooks.on_result) {
    pending.hooks.on_result(std::move(response));
    return;
  }
  pending.promise.set_value(std::move(response));
}

void CompileService::deliver_error(Pending& pending,
                                   const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    obs::FlightRecorder::instance().record(
        obs::FlightEventKind::kError, "service",
        "request '" + pending.id + "' failed: " + e.what());
    obs::Logger::instance().log_rate_limited(
        obs::LogLevel::kWarn, "service", "deliver_error", 4,
        "request '" + pending.id + "' failed: " + std::string(e.what()));
  } catch (...) {
    obs::FlightRecorder::instance().record(
        obs::FlightEventKind::kError, "service",
        "request '" + pending.id + "' failed: non-standard exception");
  }
  if (pending.hooks.on_error || pending.hooks.on_result) {
    try {
      std::rethrow_exception(error);
    } catch (const std::exception& e) {
      if (pending.hooks.on_error) {
        pending.hooks.on_error(error_code_of(e), e.what());
      }
      // A hooks submit without on_error drops the failure silently by
      // choice of the caller; nothing else to do.
    }
    return;
  }
  pending.promise.set_exception(error);
}

CompileService::CompileService(ServiceConfig config)
    : config_(std::move(config)),
      metrics_(config_.metrics != nullptr
                   ? config_.metrics
                   : std::make_shared<obs::MetricsRegistry>()),
      cache_(config_.cache_entries, *metrics_) {
  if (config_.max_batch < 1) {
    throw std::invalid_argument("CompileService: max_batch must be >= 1");
  }
  if (config_.max_wait_us < 0) {
    throw std::invalid_argument("CompileService: max_wait_us must be >= 0");
  }
  batches_total_ =
      &metrics_->counter("qrc_batches_total", "Batched rollouts dispatched");
  batched_requests_total_ = &metrics_->counter(
      "qrc_batched_requests_total", "Requests fused across all batches");
  batch_size_max_ =
      &metrics_->gauge("qrc_batch_size_max", "Largest fused batch so far");
  shed_total_ = &metrics_->counter(
      "qrc_shed_total", "Requests refused by admission control",
      {{"reason", "lane_queue"}});
  partials_total_ = &metrics_->counter(
      "qrc_partials_total", "Streamed search-progress events delivered");
  search_requests_beam_ =
      &metrics_->counter("qrc_search_requests_total",
                         "Search requests submitted, per strategy",
                         {{"strategy", "beam"}});
  search_requests_mcts_ =
      &metrics_->counter("qrc_search_requests_total",
                         "Search requests submitted, per strategy",
                         {{"strategy", "mcts"}});
}

CompileService::~CompileService() {
  stopping_ = true;
  std::lock_guard lanes_lock(lanes_mu_);
  for (auto& [name, lane] : lanes_) {
    {
      std::lock_guard lock(lane->mu);
      lane->stop = true;
    }
    lane->cv.notify_all();
  }
  // Schedulers drain their queues before exiting, so every future handed
  // out by submit() completes.
  for (auto& [name, lane] : lanes_) {
    if (lane->worker.joinable()) {
      lane->worker.join();
    }
  }
}

std::string CompileService::resolve_model_name(
    const std::string& model_name) const {
  if (!model_name.empty()) {
    return model_name;
  }
  if (!config_.default_model.empty()) {
    return config_.default_model;
  }
  const auto names = registry_.names();
  if (names.size() == 1) {
    return names.front();
  }
  throw ServiceError(
      ErrorCode::kUnknownModel,
      names.empty()
          ? "no models registered"
          : "request names no model and no default model is configured");
}

CompileService::Lane& CompileService::lane_for(
    const std::string& name,
    std::shared_ptr<const core::Predictor> model) {
  std::lock_guard lock(lanes_mu_);
  const auto it = lanes_.find(name);
  if (it != lanes_.end()) {
    return *it->second;
  }
  auto lane = std::make_unique<Lane>();
  lane->name = name;
  lane->model = std::move(model);
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  lane->pool = std::make_unique<rl::WorkerPool>(
      std::max(1, std::min(config_.max_batch, hw > 0 ? hw : 1)));
  Lane& ref = *lane;
  lanes_.emplace(name, std::move(lane));
  ref.worker = std::thread([this, &ref] { scheduler_loop(ref); });
  return ref;
}

CompileService::ModelMetrics& CompileService::model_metrics(
    const std::string& model) {
  std::lock_guard lock(model_metrics_mu_);
  const auto it = model_metrics_.find(model);
  if (it != model_metrics_.end()) {
    return it->second;
  }
  const obs::Labels labels = {{"model", model}};
  ModelMetrics mm;
  mm.requests = &metrics_->counter("qrc_requests_total", kHelpRequests, labels);
  mm.latency_us = &metrics_->histogram("qrc_request_latency_us", kHelpLatency,
                                       obs::latency_buckets_us(), labels);
  mm.queue_wait_us = &metrics_->histogram(
      "qrc_queue_wait_us", kHelpQueueWait, obs::latency_buckets_us(), labels);
  mm.rollout_us = &metrics_->histogram(
      "qrc_rollout_duration_us", kHelpRollout, obs::latency_buckets_us(),
      labels);
  return model_metrics_.emplace(model, mm).first->second;
}

std::future<ServiceResponse> CompileService::submit(
    std::string id, const std::string& model_name, ir::Circuit circuit,
    bool verify, std::optional<search::SearchOptions> search,
    std::shared_ptr<obs::TraceContext> trace) {
  Pending pending;
  pending.id = std::move(id);
  pending.circuit = std::move(circuit);
  pending.verify = verify;
  pending.search = std::move(search);
  pending.trace = std::move(trace);
  auto future = pending.promise.get_future();
  submit_impl(model_name, std::move(pending));
  return future;
}

void CompileService::submit_with_hooks(
    std::string id, const std::string& model_name, ir::Circuit circuit,
    bool verify, std::optional<search::SearchOptions> search,
    SubmitHooks hooks, std::shared_ptr<obs::TraceContext> trace) {
  Pending pending;
  pending.id = std::move(id);
  pending.circuit = std::move(circuit);
  pending.verify = verify;
  pending.search = std::move(search);
  pending.hooks = std::move(hooks);
  pending.trace = std::move(trace);
  submit_impl(model_name, std::move(pending));
}

void CompileService::submit_impl(const std::string& model_name,
                                 Pending pending) {
  if (stopping_.load()) {
    throw ServiceError(ErrorCode::kShuttingDown,
                       "CompileService::submit: service is stopping");
  }
  // No device can hold a wider circuit, and a failed rollout fails its
  // whole batch, so refuse it before it can share one.
  static const int widest_device = [] {
    int widest = 0;
    for (const device::Device* dev : device::all_devices()) {
      widest = std::max(widest, dev->num_qubits());
    }
    return widest;
  }();
  if (pending.circuit.num_qubits() > widest_device) {
    throw ServiceError(ErrorCode::kBadRequest,
                       "circuit has " +
                           std::to_string(pending.circuit.num_qubits()) +
                           " qubits; the widest device has " +
                           std::to_string(widest_device));
  }
  pending.submitted = Clock::now();
  const std::string name = resolve_model_name(model_name);
  auto model = registry_.find(name);
  if (model == nullptr) {
    throw ServiceError(ErrorCode::kUnknownModel,
                       "unknown model '" + name + "'");
  }
  ModelMetrics& mm = model_metrics(name);
  mm.requests->inc();
  if (pending.search.has_value()) {
    (pending.search->strategy == search::Strategy::kBeam
         ? search_requests_beam_
         : search_requests_mcts_)
        ->inc();
  }

  if (cache_.enabled()) {
    // Key on model + search config + content so the same circuit may live
    // in the cache once per objective and once per search configuration
    // (greedy uses the empty config token). Fingerprints ignore the
    // circuit name.
    pending.key = name + '\n' +
                  (pending.search.has_value()
                       ? search::cache_token(*pending.search)
                       : std::string()) +
                  '\n' + ir::canonical_key(pending.circuit);
    if (auto hit = cache_.get(pending.key)) {
      if (!pending.verify) {
        ServiceResponse response;
        response.id = std::move(pending.id);
        response.model = name;
        response.result = std::move(*hit);
        response.cached = true;
        response.latency_us = elapsed_us(pending.submitted);
        if (pending.trace != nullptr) {
          const int span = pending.trace->add_span(
              "cache_lookup", obs::TraceContext::kNoParent,
              pending.trace->since_epoch_us(pending.submitted),
              response.latency_us);
          pending.trace->attr(span, "hit", true);
          response.trace = pending.trace;
        }
        mm.latency_us->observe(static_cast<double>(response.latency_us));
        deliver_response(pending, std::move(response));
        return;
      }
      // Hit that still needs the equivalence gate: ride the lane so the
      // check runs on the lane's worker pool, not the submitter's thread
      // (a wide verification could otherwise stall request ingestion).
      pending.cached_result = std::move(*hit);
    }
  }

  Lane& lane = lane_for(name, std::move(model));
  {
    std::lock_guard lock(lane.mu);
    // Admission control: shed instead of queueing without bound. Checked
    // under the lane lock so a burst cannot race past the limit.
    if (config_.max_lane_queue > 0 &&
        lane.queue.size() >= config_.max_lane_queue) {
      shed_total_->inc();
      obs::FlightRecorder::instance().record(
          obs::FlightEventKind::kShed, "service",
          "lane '" + name + "' shed a request at queue bound " +
              std::to_string(config_.max_lane_queue));
      // Rate-limited: under sustained overload this fires per request.
      obs::Logger::instance().log_rate_limited(
          obs::LogLevel::kWarn, "service", "shed:" + name, 2,
          "lane '" + name + "' shedding at its queue bound");
      throw ServiceError(ErrorCode::kOverloaded,
                         "lane '" + name + "' is at its queue bound (" +
                             std::to_string(config_.max_lane_queue) +
                             " requests); retry later");
    }
    lane.queue.push_back(std::move(pending));
  }
  lane.cv.notify_all();
}

ServiceResponse CompileService::compile(const std::string& model_name,
                                        const ir::Circuit& circuit) {
  return submit("", model_name, circuit).get();
}

void CompileService::scheduler_loop(Lane& lane) {
  // Lane threads drive every compile, so sampled stacks mostly land
  // here; enrollment lets the profiler's fp-walk validate them.
  obs::Profiler::enroll_current_thread();
  for (;;) {
    std::vector<Pending> batch;
    {
      std::unique_lock lock(lane.mu);
      lane.cv.wait(lock, [&] { return lane.stop || !lane.queue.empty(); });
      if (lane.queue.empty()) {
        return;  // stop requested and fully drained
      }
      // Batch window: give concurrent submitters max_wait_us to pile on,
      // but dispatch immediately once the batch is full or on shutdown.
      if (!lane.stop &&
          static_cast<int>(lane.queue.size()) < config_.max_batch &&
          config_.max_wait_us > 0) {
        const auto deadline =
            Clock::now() + std::chrono::microseconds(config_.max_wait_us);
        lane.cv.wait_until(lock, deadline, [&] {
          return lane.stop ||
                 static_cast<int>(lane.queue.size()) >= config_.max_batch;
        });
      }
      const auto take =
          std::min(lane.queue.size(),
                   static_cast<std::size_t>(config_.max_batch));
      batch.reserve(take);
      for (std::size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(lane.queue.front()));
        lane.queue.pop_front();
      }
    }
    process_batch(lane, std::move(batch));
  }
}

void CompileService::process_batch(Lane& lane, std::vector<Pending> batch) {
  try {
    ModelMetrics& mm = model_metrics(lane.name);
    const auto dequeued = Clock::now();

    // Trace bookkeeping: each traced request gets a queue_wait span plus
    // an open "batch" span that rollout/search/verify spans hang under.
    std::vector<int> batch_span(batch.size(), obs::TraceContext::kDropped);
    std::vector<std::size_t> traced_greedy;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const std::int64_t wait = us_between(batch[i].submitted, dequeued);
      mm.queue_wait_us->observe(static_cast<double>(wait));
      if (batch[i].trace == nullptr) {
        continue;
      }
      auto& ctx = *batch[i].trace;
      ctx.add_span("queue_wait", obs::TraceContext::kNoParent,
                   ctx.since_epoch_us(batch[i].submitted), wait);
      batch_span[i] =
          ctx.begin_span("batch", obs::TraceContext::kNoParent);
      ctx.attr(batch_span[i], "lane", lane.name);
      ctx.attr(batch_span[i], "batch_size",
               static_cast<std::int64_t>(batch.size()));
      if (!batch[i].cached_result.has_value() &&
          !batch[i].search.has_value()) {
        traced_greedy.push_back(i);
      }
    }

    // Identical circuits in one batch (or raced past the cache while a
    // twin was in flight) compile once and fan out. Cache hits that ride
    // the lane for verification (cached_result set) never recompile.
    constexpr auto kNoSlot = std::numeric_limits<std::size_t>::max();
    struct Slot {
      ir::Circuit circuit;
      std::optional<search::SearchOptions> search;
    };
    std::vector<Slot> slots;
    std::vector<std::size_t> slot(batch.size(), kNoSlot);
    std::map<std::string_view, std::size_t> first_of_key;
    int compiled_requests = 0;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (batch[i].cached_result.has_value()) {
        continue;
      }
      ++compiled_requests;
      if (!batch[i].key.empty()) {
        // The key embeds the search config, so a slot never mixes greedy
        // and searched requests (or two search configurations).
        const auto [it, inserted] =
            first_of_key.try_emplace(batch[i].key, slots.size());
        slot[i] = it->second;
        if (!inserted) {
          continue;
        }
      } else {
        slot[i] = slots.size();
      }
      slots.push_back({batch[i].circuit, batch[i].search});
    }

    // Greedy slots fuse into one batched rollout; search slots run the
    // planning engine one by one on the lane's pool (each search batches
    // its own frontier/leaf evaluations internally).
    std::vector<ir::Circuit> greedy_circuits;
    std::vector<std::size_t> greedy_slots;
    int searched_requests = 0;
    for (std::size_t s = 0; s < slots.size(); ++s) {
      if (!slots[s].search.has_value()) {
        greedy_circuits.push_back(slots[s].circuit);
        greedy_slots.push_back(s);
      }
    }
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (!batch[i].cached_result.has_value() &&
          batch[i].search.has_value()) {
        ++searched_requests;
      }
    }

    // Batch stats count requests fused into the greedy rollout only
    // (verification-only riders and searches never reached it).
    const int greedy_requests = compiled_requests - searched_requests;
    if (greedy_requests > 0) {
      batches_total_->inc();
      batched_requests_total_->inc(
          static_cast<std::uint64_t>(greedy_requests));
      batch_size_max_->max_of(greedy_requests);
      metrics_
          ->counter("qrc_batches_by_size_total",
                    "Batched rollouts by fused greedy request count",
                    {{"size", std::to_string(greedy_requests)}})
          .inc();
    }

    std::vector<core::CompilationResult> results(slots.size());
    if (!greedy_circuits.empty()) {
      // Detail collector: the rollout Stage and every Stage nested in it
      // record here, and the tree is adopted under each traced greedy
      // request's batch span afterwards.
      std::optional<obs::TraceContext> detail;
      if (!traced_greedy.empty()) {
        detail.emplace("rollout");
      }
      {
        const obs::CurrentTraceScope scope(detail ? &*detail : nullptr);
        obs::Stage stage(obs::StageId::kRollout, mm.rollout_us);
        stage.attr("fused_circuits",
                   static_cast<std::int64_t>(greedy_circuits.size()));
        auto greedy_results =
            lane.model->compile_all(greedy_circuits, lane.pool.get());
        for (std::size_t g = 0; g < greedy_slots.size(); ++g) {
          results[greedy_slots[g]] = std::move(greedy_results[g]);
        }
      }
      for (const std::size_t i : traced_greedy) {
        batch[i].trace->adopt(*detail, batch_span[i]);
      }
    }

    for (std::size_t s = 0; s < slots.size(); ++s) {
      if (!slots[s].search.has_value()) {
        continue;
      }
      // Streaming: fan each engine progress snapshot out to every
      // requester of this slot that armed on_partial (deduped twins all
      // see the shared search progress).
      std::vector<const SubmitHooks*> listeners;
      std::vector<std::size_t> traced_requesters;
      for (std::size_t i = 0; i < batch.size(); ++i) {
        if (slot[i] != s || batch[i].cached_result.has_value()) {
          continue;
        }
        if (batch[i].hooks.on_partial) {
          listeners.push_back(&batch[i].hooks);
        }
        if (batch[i].trace != nullptr) {
          traced_requesters.push_back(i);
        }
      }
      core::CompileOptions options{.search = slots[s].search};
      if (!listeners.empty()) {
        options.progress = [&](int, const search::SearchProgress& snapshot) {
          for (const SubmitHooks* hooks : listeners) {
            hooks->on_partial(snapshot);
          }
          partials_total_->inc(listeners.size());
        };
      }
      std::optional<obs::TraceContext> detail;
      if (!traced_requesters.empty()) {
        detail.emplace("search");
      }
      {
        const obs::CurrentTraceScope scope(detail ? &*detail : nullptr);
        const auto strategy =
            search::strategy_name(slots[s].search->strategy);
        obs::Stage stage(
            obs::StageId::kSearch,
            &metrics_->histogram(
                "qrc_search_duration_us",
                "Search engine wall time in microseconds, per strategy",
                obs::latency_buckets_us(),
                {{"strategy", std::string(strategy)}}));
        stage.attr("strategy", strategy);
        results[s] = lane.model
                         ->compile_all(std::span<const ir::Circuit>(
                                           &slots[s].circuit, 1),
                                       lane.pool.get(), options)
                         .front();
        if (results[s].search_stats.has_value()) {
          const auto& st = *results[s].search_stats;
          stage.attr("nodes_expanded", st.nodes_expanded);
          stage.attr("improved", st.improved);
          stage.attr("deadline_hit", st.deadline_hit);
        }
      }
      for (const std::size_t i : traced_requesters) {
        batch[i].trace->adopt(*detail, batch_span[i]);
      }
    }

    for (const auto& [key, s] : first_of_key) {
      cache_.put(std::string(key), results[s]);
    }

    // Verification units: one per distinct compiled slot whose requesters
    // asked (deduped twins share the deterministic verdict) plus one per
    // cache-hit rider; the independent checks spread over the lane's
    // worker pool like the rollout itself.
    struct VerifyUnit {
      const ir::Circuit* original = nullptr;
      const core::CompilationResult* result = nullptr;
      verify::VerifyResult verdict;
      Clock::time_point start;
      std::int64_t duration_us = 0;
    };
    std::vector<VerifyUnit> units;
    std::vector<std::size_t> unit_of_slot(slots.size(), kNoSlot);
    std::vector<std::size_t> unit_of_request(batch.size(), kNoSlot);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (!batch[i].verify) {
        continue;
      }
      if (batch[i].cached_result.has_value()) {
        unit_of_request[i] = units.size();
        units.push_back({&batch[i].circuit, &*batch[i].cached_result, {},
                         Clock::time_point{}, 0});
      } else if (unit_of_slot[slot[i]] == kNoSlot) {
        unit_of_slot[slot[i]] = units.size();
        unit_of_request[i] = units.size();
        units.push_back({&batch[i].circuit, &results[slot[i]], {},
                         Clock::time_point{}, 0});
      } else {
        unit_of_request[i] = unit_of_slot[slot[i]];
      }
    }
    lane.pool->parallel_for(static_cast<int>(units.size()), [&](int u) {
      auto& unit = units[static_cast<std::size_t>(u)];
      unit.start = Clock::now();
      unit.verdict = core::verify_compilation(*unit.original, *unit.result,
                                              verify::VerifyOptions{});
      unit.duration_us = us_between(unit.start, Clock::now());
    });
    for (const auto& unit : units) {
      metrics_
          ->histogram(
              "qrc_verify_duration_us",
              "Equivalence check wall time in microseconds, per tier",
              obs::latency_buckets_us(),
              {{"method",
                std::string(verify::method_name(unit.verdict.method))}})
          .observe(static_cast<double>(unit.duration_us));
    }

    for (std::size_t i = 0; i < batch.size(); ++i) {
      ServiceResponse response;
      response.id = std::move(batch[i].id);
      response.model = lane.name;
      response.cached = batch[i].cached_result.has_value();
      response.result = response.cached ? std::move(*batch[i].cached_result)
                                        : results[slot[i]];
      if (batch[i].verify) {
        response.result.verification = units[unit_of_request[i]].verdict;
        count_verdict(*response.result.verification);
        if (batch[i].trace != nullptr) {
          const auto& unit = units[unit_of_request[i]];
          core::trace_verification(*batch[i].trace, batch_span[i],
                                   unit.start, unit.duration_us,
                                   unit.verdict);
        }
      }
      if (!response.cached && response.result.search_stats.has_value()) {
        // Improvement/deadline counters share the per-request basis of
        // beam_requests/mcts_requests (deduped twins each count — each
        // response carries the outcome), so their ratios stay meaningful.
        const auto& stats = *response.result.search_stats;
        const obs::Labels labels = {
            {"strategy",
             std::string(search::strategy_name(batch[i].search->strategy))}};
        if (stats.improved) {
          metrics_
              ->counter("qrc_search_improved_total",
                        "Fresh searches beating greedy, per strategy",
                        labels)
              .inc();
        }
        if (stats.deadline_hit) {
          metrics_
              ->counter("qrc_search_deadline_hits_total",
                        "Fresh searches cut by their deadline, per strategy",
                        labels)
              .inc();
          obs::FlightRecorder::instance().record(
              obs::FlightEventKind::kDeadlineHit, "service",
              "search '" + batch[i].id + "' cut by its deadline after " +
                  std::to_string(stats.nodes_expanded) + " nodes");
        }
      }
      response.latency_us = elapsed_us(batch[i].submitted);
      mm.latency_us->observe(static_cast<double>(response.latency_us));
      obs::FlightRecorder::instance().record(
          obs::FlightEventKind::kRequest, "service",
          "request '" + batch[i].id + "' model '" + lane.name +
              "' answered in " + std::to_string(response.latency_us) +
              "us");
      obs::Logger::instance().log_rate_limited(
          obs::LogLevel::kDebug, "service", "answered", 8,
          "request '" + batch[i].id + "' answered in " +
              std::to_string(response.latency_us) + "us");
      if (batch[i].trace != nullptr) {
        batch[i].trace->end_span(batch_span[i]);
        response.trace = batch[i].trace;
      }
      deliver_response(batch[i], std::move(response));
    }
  } catch (...) {
    const auto error = std::current_exception();
    for (auto& pending : batch) {
      deliver_error(pending, error);
    }
  }
}

void CompileService::count_verdict(const verify::VerifyResult& verdict) {
  metrics_
      ->counter("qrc_verify_verdicts_total",
                "Verification verdicts, per verdict and deciding tier",
                {{"verdict", std::string(verify::verdict_name(
                      verdict.verdict))},
                 {"method",
                  std::string(verify::method_name(verdict.method))}})
      .inc();
  if (verdict.verdict == verify::Verdict::kNotEquivalent) {
    // A refutation means the compiler produced a wrong circuit — the
    // single most important event the system can record. Log it, note it
    // in the flight recorder, and dump the recorder immediately so the
    // surrounding traffic context survives later ring wraparound.
    obs::FlightRecorder::instance().record(
        obs::FlightEventKind::kRefutation, "service",
        std::string("verifier refuted a compiled circuit (method ") +
            std::string(verify::method_name(verdict.method)) + ")");
    obs::log_error("service",
                   "verification REFUTED a compiled circuit; dumping "
                   "flight recorder");
    obs::FlightRecorder::instance().dump(2);
  }
}

}  // namespace qrc::service

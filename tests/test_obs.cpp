// Tests for the unified observability layer: the MetricsRegistry
// (exact totals under concurrency, histogram semantics, the Prometheus
// text exposition), TraceContext span trees (nesting, attrs, the bounded
// buffer, adopt() rebasing), obs::Stage nesting at the compile seams
// (independent of pool width), trace completeness through the compile
// service for greedy/search/verify requests, the wire surfaces ("op":
// "metrics", "trace":true, HTTP GET /metrics), and the guarantee that
// tracing is observation-only — traced results are bitwise identical to
// untraced ones.

#include <gtest/gtest.h>
#include <sys/socket.h>

#include <cmath>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_suite/benchmarks.hpp"
#include "core/predictor.hpp"
#include "ir/qasm.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "net/stats.hpp"
#include "obs/metrics.hpp"
#include "obs/stage.hpp"
#include "obs/trace.hpp"
#include "rl/thread_pool.hpp"
#include "service/compile_service.hpp"
#include "service/jsonl.hpp"
#include "util/json.hpp"
#include "verify/equivalence.hpp"

namespace {

using qrc::bench::BenchmarkFamily;
using qrc::core::Predictor;
using qrc::ir::Circuit;
using qrc::obs::MetricsRegistry;
using qrc::obs::StageId;
using qrc::obs::TraceContext;
using qrc::reward::RewardKind;
using qrc::service::CompileService;
using qrc::service::ServiceConfig;
using qrc::util::JsonValue;

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

/// Every control byte, quote, backslash, DEL and multi-byte UTF-8
/// (U+00E9, U+20AC, U+1F600) in one string.
std::string awkward_text() {
  std::string s;
  for (int c = 0; c < 0x20; ++c) {
    s.push_back(static_cast<char>(c));
  }
  return s + "\"\\\x7f\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80";
}

/// Depth-first span names of a parsed trace JSON object.
void collect_span_names(const JsonValue& span, std::vector<std::string>& out) {
  const auto& obj = span.as_object();
  out.push_back(obj.at("name").as_string());
  const auto kids = obj.find("children");
  if (kids != obj.end()) {
    for (const auto& kid : kids->second.as_array()) {
      collect_span_names(kid, out);
    }
  }
}

std::vector<std::string> span_names(const TraceContext& trace) {
  std::vector<std::string> out;
  const auto parsed = JsonValue::parse(trace.to_json());
  for (const auto& root : parsed.as_object().at("spans").as_array()) {
    collect_span_names(root, out);
  }
  return out;
}

bool contains(const std::vector<std::string>& names, const std::string& want) {
  for (const auto& name : names) {
    if (name == want) {
      return true;
    }
  }
  return false;
}

/// The first span named `want` anywhere in the tree, or nullptr.
const JsonValue* find_span(const JsonValue& span, const std::string& want) {
  const auto& obj = span.as_object();
  if (obj.at("name").as_string() == want) {
    return &span;
  }
  const auto kids = obj.find("children");
  if (kids != obj.end()) {
    for (const auto& kid : kids->second.as_array()) {
      if (const JsonValue* hit = find_span(kid, want)) {
        return hit;
      }
    }
  }
  return nullptr;
}

const JsonValue* find_span(const JsonValue& trace_root,
                           const std::string& want, bool) {
  for (const auto& root : trace_root.as_object().at("spans").as_array()) {
    if (const JsonValue* hit = find_span(root, want)) {
      return hit;
    }
  }
  return nullptr;
}

// ------------------------------------------------------ metrics registry ---

TEST(MetricsRegistryTest, ConcurrentCountersStayExact) {
  MetricsRegistry registry;
  auto& plain = registry.counter("qrc_t_total", "test counter");
  auto& labeled =
      registry.counter("qrc_t_total", "test counter", {{"model", "a"}});
  auto& hist = registry.histogram("qrc_t_us", "test histogram", {10.0, 100.0});

  constexpr int kThreads = 8;
  constexpr int kIters = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        plain.inc();
        labeled.inc(2);
        hist.observe(static_cast<double>(i % 200));
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }

  EXPECT_EQ(plain.value(), static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(labeled.value(), 2u * kThreads * kIters);
  EXPECT_EQ(registry.counter_value("qrc_t_total", {{"model", "a"}}),
            2u * kThreads * kIters);
  EXPECT_EQ(registry.counter_total("qrc_t_total"),
            3u * kThreads * kIters);
  EXPECT_EQ(hist.count(), static_cast<std::uint64_t>(kThreads) * kIters);
  // Bucket totals must account for every observation exactly.
  std::uint64_t bucketed = 0;
  for (const std::uint64_t b : hist.bucket_counts()) {
    bucketed += b;
  }
  EXPECT_EQ(bucketed, hist.count());
}

TEST(MetricsRegistryTest, HandlesAreStableAndLabelOrderInsensitive) {
  MetricsRegistry registry;
  auto& ab = registry.counter("qrc_t", "t", {{"a", "1"}, {"b", "2"}});
  auto& ba = registry.counter("qrc_t", "t", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(&ab, &ba);  // {a,b} and {b,a} name the same series
  ab.inc(5);
  EXPECT_EQ(registry.counter_value("qrc_t", {{"b", "2"}, {"a", "1"}}), 5u);
}

TEST(MetricsRegistryTest, GaugeSetAddAndRaiseOnlyMax) {
  MetricsRegistry registry;
  auto& gauge = registry.gauge("qrc_t_gauge", "t");
  gauge.set(10);
  gauge.add(-3);
  EXPECT_EQ(gauge.value(), 7);
  gauge.max_of(5);
  EXPECT_EQ(gauge.value(), 7);  // raise-only
  gauge.max_of(12);
  EXPECT_EQ(gauge.value(), 12);
}

TEST(MetricsRegistryTest, TypeConflictIsALogicError) {
  MetricsRegistry registry;
  registry.counter("qrc_t_mixed", "as counter");
  EXPECT_THROW(registry.gauge("qrc_t_mixed", "as gauge"), std::logic_error);
  EXPECT_THROW(registry.histogram("qrc_t_mixed", "as histogram", {1.0}),
               std::logic_error);
}

TEST(MetricsRegistryTest, PrometheusExpositionGolden) {
  MetricsRegistry registry;
  registry.counter("qrc_t_total", "requests served", {{"model", "a"}}).inc(3);
  registry.gauge("qrc_t_depth", "queue depth").set(-2);
  auto& hist = registry.histogram("qrc_t_us", "latency", {1.0, 5.0});
  hist.observe(0.5);
  hist.observe(5.0);  // le="5" is inclusive
  hist.observe(7.0);

  const std::string expected =
      "# HELP qrc_t_depth queue depth\n"
      "# TYPE qrc_t_depth gauge\n"
      "qrc_t_depth -2\n"
      "# HELP qrc_t_total requests served\n"
      "# TYPE qrc_t_total counter\n"
      "qrc_t_total{model=\"a\"} 3\n"
      "# HELP qrc_t_us latency\n"
      "# TYPE qrc_t_us histogram\n"
      "qrc_t_us_bucket{le=\"1\"} 1\n"
      "qrc_t_us_bucket{le=\"5\"} 2\n"
      "qrc_t_us_bucket{le=\"+Inf\"} 3\n"
      "qrc_t_us_sum 12.5\n"
      "qrc_t_us_count 3\n";
  EXPECT_EQ(registry.render_prometheus(), expected);
}

TEST(MetricsRegistryTest, LabelValuesAreEscaped) {
  MetricsRegistry registry;
  registry.counter("qrc_t", "t", {{"k", "a\"b\\c\nd"}}).inc();
  const std::string text = registry.render_prometheus();
  EXPECT_NE(text.find("qrc_t{k=\"a\\\"b\\\\c\\nd\"} 1"), std::string::npos)
      << text;
}

TEST(MetricsRegistryTest, KillSwitchStopsCounting) {
  MetricsRegistry registry;
  auto& counter = registry.counter("qrc_t", "t");
  auto& hist = registry.histogram("qrc_t_us", "t", {1.0});
  qrc::obs::set_enabled(false);
  counter.inc();
  hist.observe(0.5);
  qrc::obs::set_enabled(true);
  EXPECT_EQ(counter.value(), 0u);
  EXPECT_EQ(hist.count(), 0u);
  counter.inc();
  EXPECT_EQ(counter.value(), 1u);
}

// ---------------------------------------------------------- trace context ---

TEST(TraceContextTest, SpanTreeNestsAndCarriesAttrs) {
  TraceContext trace("req-1");
  const int root = trace.begin_span("compile");
  trace.set_ambient_parent(root);
  const int child = trace.begin_span("rollout");  // under the ambient parent
  trace.attr(child, "fused_circuits", static_cast<std::int64_t>(4));
  trace.attr(child, "hit", false);
  trace.attr(child, "strategy", "beam");
  trace.end_span(child);
  // Names and attrs with every byte class the renderer must escape or
  // pass through, and a NaN, which JSON can only carry as null.
  const std::string awkward = awkward_text();
  const int odd = trace.begin_span(awkward);
  trace.attr(odd, "text", awkward);
  trace.attr(odd, "nan", std::nan(""));
  trace.end_span(odd);
  trace.end_span(root);

  const auto parsed = JsonValue::parse(trace.to_json());
  const auto& obj = parsed.as_object();
  EXPECT_EQ(obj.at("id").as_string(), "req-1");
  EXPECT_EQ(obj.at("dropped").as_number(), 0.0);
  const auto& roots = obj.at("spans").as_array();
  ASSERT_EQ(roots.size(), 1u);  // the child is nested, not a second root
  const JsonValue* rollout = find_span(parsed, "rollout", true);
  ASSERT_NE(rollout, nullptr);
  const auto& attrs = rollout->as_object().at("attrs").as_object();
  EXPECT_EQ(attrs.at("fused_circuits").as_number(), 4.0);
  EXPECT_FALSE(attrs.at("hit").as_bool());
  EXPECT_EQ(attrs.at("strategy").as_string(), "beam");
  const JsonValue* odd_span = find_span(parsed, awkward, true);
  ASSERT_NE(odd_span, nullptr);
  const auto& odd_attrs = odd_span->as_object().at("attrs").as_object();
  EXPECT_EQ(odd_attrs.at("text").as_string(), awkward);
  EXPECT_TRUE(odd_attrs.at("nan").is_null());

  const std::string text = trace.to_text();
  EXPECT_NE(text.find("compile"), std::string::npos);
  EXPECT_NE(text.find("  rollout"), std::string::npos);  // indented child
}

TEST(TraceContextTest, BoundedBufferCountsDrops) {
  TraceContext trace("req-2", /*max_spans=*/4);
  for (int i = 0; i < 10; ++i) {
    const int id = trace.begin_span("s" + std::to_string(i));
    trace.end_span(id);  // no-op for dropped ids
  }
  EXPECT_EQ(trace.span_count(), 4u);
  EXPECT_EQ(trace.dropped(), 6u);
  const auto parsed = JsonValue::parse(trace.to_json());
  EXPECT_EQ(parsed.as_object().at("dropped").as_number(), 6.0);
}

TEST(TraceContextTest, AdoptRebasesSpansUnderParent) {
  TraceContext trace("req-3");
  const int parent = trace.begin_span("search");

  TraceContext collector("collector");
  const int outer = collector.begin_span("leaf_eval");
  collector.set_ambient_parent(outer);
  const int inner = collector.begin_span("forward");
  collector.end_span(inner);
  collector.end_span(outer);

  trace.adopt(collector, parent);
  trace.end_span(parent);

  const auto parsed = JsonValue::parse(trace.to_json());
  // leaf_eval landed under search; forward stayed under leaf_eval.
  const JsonValue* search = find_span(parsed, "search", true);
  ASSERT_NE(search, nullptr);
  ASSERT_NE(find_span(*search, "leaf_eval"), nullptr);
  const JsonValue* leaf = find_span(*search, "leaf_eval");
  EXPECT_NE(find_span(*leaf, "forward"), nullptr);
}

TEST(TraceContextTest, StageIsAmbientAndGated) {
  TraceContext trace("req-4");
  qrc::obs::TraceContext::set_current(&trace);
  { qrc::obs::Stage stage(StageId::kEnvStep); }
  EXPECT_EQ(trace.span_count(), 1u);

  qrc::obs::TraceContext::set_current(nullptr);
  { qrc::obs::Stage stage(StageId::kEnvStep); }  // no ambient context: no-op
  EXPECT_EQ(trace.span_count(), 1u);
}

// ------------------------------------------------------------ stage seams ---

/// The span tree's shape: names with their children, parents implied.
std::string span_shape(const JsonValue& span) {
  const auto& obj = span.as_object();
  std::string out = obj.at("name").as_string();
  const auto kids = obj.find("children");
  if (kids != obj.end()) {
    out += '(';
    for (const auto& kid : kids->second.as_array()) {
      out += span_shape(kid) + ' ';
    }
    out += ')';
  }
  return out;
}

std::string span_shape(const TraceContext& trace) {
  std::string out;
  const auto parsed = JsonValue::parse(trace.to_json());
  for (const auto& root : parsed.as_object().at("spans").as_array()) {
    out += span_shape(root) + '\n';
  }
  return out;
}

TEST(StageTest, RolloutSeamsNestUnderGreedyRollout) {
  const Predictor& model = shared_model();  // trains outside the trace
  TraceContext trace("nest");
  {
    const qrc::obs::CurrentTraceScope scope(&trace);
    (void)model.compile(small_ghz());
  }
  const auto parsed = JsonValue::parse(trace.to_json());
  const auto& roots = parsed.as_object().at("spans").as_array();
  ASSERT_EQ(roots.size(), 1u) << trace.to_json();
  const auto& rollout = roots.front().as_object();
  EXPECT_EQ(rollout.at("name").as_string(), "greedy_rollout");
  std::vector<std::string> kids;
  for (const auto& kid : rollout.at("children").as_array()) {
    kids.push_back(kid.as_object().at("name").as_string());
  }
  EXPECT_TRUE(contains(kids, "policy_forward")) << trace.to_json();
  EXPECT_TRUE(contains(kids, "env_step")) << trace.to_json();
}

TEST(StageTest, SpanTreeDoesNotDependOnPoolWidth) {
  const std::vector<Circuit> circuits = {
      small_ghz(), qrc::bench::make_benchmark(BenchmarkFamily::kVqe, 4, 1),
      qrc::bench::make_benchmark(BenchmarkFamily::kQft, 3, 1)};
  const Predictor& model = shared_model();  // trains outside the trace
  const auto shape_on = [&](int width) {
    qrc::rl::WorkerPool pool(width);
    TraceContext trace("width");
    {
      const qrc::obs::CurrentTraceScope scope(&trace);
      (void)model.compile_all(circuits, &pool,
                              {.verify = qrc::verify::VerifyOptions{}});
    }
    return span_shape(trace);
  };
  const std::string narrow = shape_on(1);
  EXPECT_NE(narrow.find("verify_gate"), std::string::npos) << narrow;
  EXPECT_EQ(shape_on(4), narrow);
}

TEST(StageTest, VerifyGateRecordsOneVerifySpanPerCircuit) {
  // The gate's checks run in pool jobs, which are untraced; each check's
  // deciding tier still reaches the trace as a `verify` child span.
  const std::vector<Circuit> circuits = {
      small_ghz(), qrc::bench::make_benchmark(BenchmarkFamily::kVqe, 4, 1),
      qrc::bench::make_benchmark(BenchmarkFamily::kQft, 3, 1)};
  const Predictor& model = shared_model();  // trains outside the trace
  const auto trace_on = [&](int width) {
    qrc::rl::WorkerPool pool(width);
    TraceContext trace("verify-spans");
    {
      const qrc::obs::CurrentTraceScope scope(&trace);
      (void)model.compile_all(circuits, &pool,
                              {.verify = qrc::verify::VerifyOptions{}});
    }
    return std::pair(JsonValue::parse(trace.to_json()), span_shape(trace));
  };
  const auto [narrow, narrow_shape] = trace_on(1);
  const auto [wide, wide_shape] = trace_on(4);
  EXPECT_EQ(wide_shape, narrow_shape);
  for (const JsonValue* parsed : {&narrow, &wide}) {
    const JsonValue* gate = nullptr;
    for (const auto& root : parsed->as_object().at("spans").as_array()) {
      if (root.as_object().at("name").as_string() == "verify_gate") {
        gate = &root;
      }
    }
    ASSERT_NE(gate, nullptr);
    const auto kids = gate->as_object().find("children");
    ASSERT_NE(kids, gate->as_object().end());
    ASSERT_EQ(kids->second.as_array().size(), circuits.size());
    for (const auto& kid : kids->second.as_array()) {
      const auto& span = kid.as_object();
      EXPECT_EQ(span.at("name").as_string(), "verify");
      const auto& attrs = span.at("attrs").as_object();
      EXPECT_TRUE(attrs.contains("method"));
      EXPECT_EQ(attrs.at("verdict").as_string(), "equivalent");
    }
  }
}

TEST(StageTest, HandedHistogramObservesOncePerScope) {
  MetricsRegistry registry;
  auto& hist = registry.histogram("qrc_t_stage_us", "stage wall time",
                                  qrc::obs::latency_buckets_us());
  TraceContext trace("histogram");

  { qrc::obs::Stage stage(StageId::kRollout, &hist); }  // untraced
  EXPECT_EQ(hist.count(), 1u);
  EXPECT_EQ(trace.span_count(), 0u);

  EXPECT_THROW(
      {
        qrc::obs::Stage stage(StageId::kRollout, &hist);
        throw std::runtime_error("unwinds the stage");
      },
      std::runtime_error);
  EXPECT_EQ(hist.count(), 2u);

  {
    const qrc::obs::CurrentTraceScope scope(&trace);
    qrc::obs::Stage stage(StageId::kRollout, &hist);
  }
  EXPECT_EQ(hist.count(), 3u);
  EXPECT_EQ(span_names(trace), std::vector<std::string>{"rollout"});
}

TEST(StageTest, CheckMappedRecordsItsDecidingTier) {
  Circuit rotated = small_ghz();
  rotated.rz(0.3, 1);  // not Clifford: the dense tiers decide
  const qrc::verify::EquivalenceChecker checker;
  for (const Circuit& circuit : {small_ghz(), rotated}) {
    const auto compiled = shared_model().compile(circuit);
    TraceContext trace("mapped");
    qrc::verify::VerifyResult verdict;
    {
      const qrc::obs::CurrentTraceScope scope(&trace);
      verdict = checker.check_mapped(circuit, compiled.circuit,
                                     compiled.initial_layout,
                                     compiled.final_layout);
    }
    ASSERT_TRUE(verdict.equivalent()) << verdict.detail;
    const StageId tier =
        verdict.method == qrc::verify::Method::kCliffordTableau
            ? StageId::kVerifyClifford
        : verdict.method == qrc::verify::Method::kAlternatingMiter
            ? StageId::kVerifyMiter
            : StageId::kVerifyStimuli;
    EXPECT_TRUE(contains(span_names(trace),
                         std::string(qrc::obs::stage_name(tier))))
        << qrc::verify::method_name(verdict.method) << ": "
        << trace.to_json();
  }
}

// --------------------------------------------------- service trace shapes ---

TEST(ServiceTraceTest, GreedyCompileSpanTreeIsComplete) {
  CompileService svc;
  svc.registry().add("fidelity", shared_handle());
  const auto trace = std::make_shared<TraceContext>("g1");
  auto response =
      svc.submit("g1", "fidelity", small_ghz(), /*verify=*/false,
                 std::nullopt, trace)
          .get();
  ASSERT_NE(response.trace, nullptr);
  const auto names = span_names(*response.trace);
  EXPECT_TRUE(contains(names, "queue_wait")) << response.trace->to_json();
  EXPECT_TRUE(contains(names, "batch")) << response.trace->to_json();
  EXPECT_TRUE(contains(names, "rollout")) << response.trace->to_json();
  // rollout is a child of batch, not a second root.
  const auto parsed = JsonValue::parse(response.trace->to_json());
  const JsonValue* batch = find_span(parsed, "batch", true);
  ASSERT_NE(batch, nullptr);
  const JsonValue* rollout = find_span(*batch, "rollout");
  ASSERT_NE(rollout, nullptr);
  // The core's stages nest under the service's rollout stage.
  const JsonValue* greedy = find_span(*rollout, "greedy_rollout");
  ASSERT_NE(greedy, nullptr) << response.trace->to_json();
  EXPECT_NE(find_span(*greedy, "policy_forward"), nullptr);
  // One fused rollout, one observation.
  EXPECT_NE(svc.metrics().render_prometheus().find(
                "qrc_rollout_duration_us_count{model=\"fidelity\"} 1\n"),
            std::string::npos);
}

TEST(ServiceTraceTest, SearchAndVerifySpansCarryOutcomeAttrs) {
  CompileService svc;
  svc.registry().add("fidelity", shared_handle());
  qrc::search::SearchOptions options;
  options.strategy = qrc::search::Strategy::kBeam;
  options.beam_width = 2;
  const auto trace = std::make_shared<TraceContext>("s1");
  auto response = svc.submit("s1", "fidelity", small_ghz(), /*verify=*/true,
                             options, trace)
                      .get();
  ASSERT_NE(response.trace, nullptr);
  const auto parsed = JsonValue::parse(response.trace->to_json());

  const JsonValue* search = find_span(parsed, "search", true);
  ASSERT_NE(search, nullptr) << response.trace->to_json();
  const auto& search_attrs = search->as_object().at("attrs").as_object();
  EXPECT_EQ(search_attrs.at("strategy").as_string(), "beam");
  EXPECT_GE(search_attrs.at("nodes_expanded").as_number(), 0.0);

  const JsonValue* verify = find_span(parsed, "verify", true);
  ASSERT_NE(verify, nullptr) << response.trace->to_json();
  const auto& verify_attrs = verify->as_object().at("attrs").as_object();
  EXPECT_FALSE(verify_attrs.at("method").as_string().empty());
  EXPECT_FALSE(verify_attrs.at("verdict").as_string().empty());

  // The per-strategy and per-method label sets landed in the registry,
  // and the search (which fuses no greedy rollout) was timed once.
  EXPECT_EQ(svc.metrics().counter_value("qrc_search_requests_total",
                                        {{"strategy", "beam"}}),
            1u);
  const std::string exposition = svc.metrics().render_prometheus();
  EXPECT_NE(exposition.find(
                "qrc_search_duration_us_count{strategy=\"beam\"} 1\n"),
            std::string::npos)
      << exposition;
  EXPECT_NE(exposition.find(
                "qrc_rollout_duration_us_count{model=\"fidelity\"} 0\n"),
            std::string::npos);
  EXPECT_GE(svc.metrics().counter_total("qrc_verify_verdicts_total"), 1u);
}

TEST(ServiceTraceTest, CacheHitTracesTheLookup) {
  CompileService svc;
  svc.registry().add("fidelity", shared_handle());
  (void)svc.submit("warm", "fidelity", small_ghz()).get();
  const auto trace = std::make_shared<TraceContext>("hit1");
  auto response = svc.submit("hit1", "fidelity", small_ghz(),
                             /*verify=*/false, std::nullopt, trace)
                      .get();
  ASSERT_TRUE(response.cached);
  ASSERT_NE(response.trace, nullptr);
  const auto parsed = JsonValue::parse(response.trace->to_json());
  const JsonValue* lookup = find_span(parsed, "cache_lookup", true);
  ASSERT_NE(lookup, nullptr);
  EXPECT_TRUE(
      lookup->as_object().at("attrs").as_object().at("hit").as_bool());
}

TEST(ServiceTraceTest, LegacyStatsSnapshotStillAddsUp) {
  CompileService svc;
  svc.registry().add("fidelity", shared_handle());
  (void)svc.submit("a", "fidelity", small_ghz()).get();
  (void)svc.submit("b", "fidelity", small_ghz()).get();  // cache hit
  // The stats table (what op:stats, /statusz and the serve exit summary
  // render) adds up...
  std::map<std::string_view, std::uint64_t> stats;
  for (const auto& [key, value] : qrc::net::read_stats(svc.metrics())) {
    stats[key] = value;
  }
  EXPECT_EQ(stats.at("requests"), 2u);
  EXPECT_EQ(stats.at("cache_hits"), 1u);
  EXPECT_EQ(stats.at("cache_misses"), 1u);
  EXPECT_EQ(stats.at("batches"), 1u);
  EXPECT_EQ(stats.at("batched_requests"), 1u);
  EXPECT_EQ(stats.at("max_batch_size"), 1u);
  // ...and agrees with the registry field for field.
  EXPECT_EQ(svc.metrics().counter_value("qrc_requests_total",
                                        {{"model", "fidelity"}}),
            2u);
  EXPECT_EQ(svc.metrics().counter_value("qrc_cache_hits_total"), 1u);
}

// ----------------------------------------------------------- wire surface ---

struct TestServer {
  CompileService service;
  qrc::net::Server server;

  explicit TestServer(qrc::net::ServerConfig net_config = {})
      : service(ServiceConfig{}), server(service, [&net_config] {
          net_config.host = "127.0.0.1";
          net_config.port = 0;
          return net_config;
        }()) {
    service.registry().add("fidelity", shared_handle());
    server.start();
  }
};

struct Client {
  qrc::net::Socket sock;
  qrc::net::LineReader reader;

  explicit Client(int port)
      : sock(qrc::net::connect_tcp("127.0.0.1", port)), reader(sock.fd()) {}

  void send(const std::string& line) {
    qrc::net::send_all(sock.fd(), line + "\n");
  }
  std::optional<std::string> recv() { return reader.next_line(); }
};

std::string compile_request(const std::string& id, const Circuit& circuit,
                            const std::string& extra = "") {
  return "{\"v\":1,\"op\":\"compile\",\"id\":" +
         qrc::service::json_quote(id) +
         ",\"qasm\":" + qrc::service::json_quote(qrc::ir::to_qasm(circuit)) +
         extra + "}";
}

TEST(NetObsTest, TraceTrueEchoesTheSpanTreeOnTheResponse) {
  TestServer ts;
  Client client(ts.server.port());

  // Untraced request: no "trace" field on the frame.
  client.send(compile_request("plain", small_ghz()));
  auto line = client.recv();
  ASSERT_TRUE(line.has_value());
  auto frame = JsonValue::parse(*line);
  EXPECT_EQ(frame.as_object().count("trace"), 0u);

  client.send(compile_request("traced", small_ghz(), ",\"trace\":true"));
  line = client.recv();
  ASSERT_TRUE(line.has_value());
  frame = JsonValue::parse(*line);
  ASSERT_EQ(frame.as_object().count("trace"), 1u) << *line;
  const auto& trace = frame.as_object().at("trace");
  EXPECT_EQ(trace.as_object().at("id").as_string(), "traced");
  std::vector<std::string> names;
  for (const auto& root : trace.as_object().at("spans").as_array()) {
    collect_span_names(root, names);
  }
  // The server prepends the frame-decode span; the service records the
  // queue -> batch pipeline (this repeat circuit hits the cache instead
  // of re-running the rollout, so accept either shape past the decode).
  EXPECT_TRUE(contains(names, "decode")) << *line;
  EXPECT_TRUE(contains(names, "queue_wait") || contains(names, "cache_lookup"))
      << *line;
}

TEST(NetObsTest, MetricsOpReturnsTheExposition) {
  TestServer ts;
  Client client(ts.server.port());
  client.send(compile_request("c1", small_ghz()));
  ASSERT_TRUE(client.recv().has_value());

  client.send("{\"v\":1,\"op\":\"metrics\",\"id\":\"m1\"}");
  const auto line = client.recv();
  ASSERT_TRUE(line.has_value());
  const auto frame = JsonValue::parse(*line);
  const auto& obj = frame.as_object();
  EXPECT_EQ(obj.at("op").as_string(), "metrics");
  EXPECT_EQ(obj.at("type").as_string(), "result");
  const std::string& body = obj.at("body").as_string();
  EXPECT_NE(body.find("qrc_requests_total{model=\"fidelity\"} 1"),
            std::string::npos)
      << body;
  EXPECT_NE(body.find("qrc_net_frames_in_total"), std::string::npos);
}

TEST(NetObsTest, HttpMetricsListenerServesLabeledFamilies) {
  qrc::net::ServerConfig net_config;
  net_config.metrics_port = 0;  // ephemeral side listener
  TestServer ts(net_config);
  ASSERT_GE(ts.server.metrics_port(), 0);

  // Drive one verified search compile so the per-model, per-strategy and
  // per-verify-tier label sets all exist in the scrape.
  Client client(ts.server.port());
  client.send(compile_request(
      "v1", small_ghz(), ",\"verify\":true,\"search\":\"beam:2\""));
  for (;;) {
    const auto line = client.recv();
    ASSERT_TRUE(line.has_value());
    if (line->find("\"type\":\"partial\"") == std::string::npos) {
      break;
    }
  }

  const qrc::net::Socket sock =
      qrc::net::connect_tcp("127.0.0.1", ts.server.metrics_port());
  qrc::net::send_all(sock.fd(), "GET /metrics HTTP/1.0\r\n\r\n");
  std::string response;
  char buf[4096];
  for (;;) {
    const auto n = ::recv(sock.fd(), buf, sizeof(buf), 0);
    if (n <= 0) {
      break;
    }
    response.append(buf, static_cast<std::size_t>(n));
  }
  EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(response.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(response.find("qrc_requests_total{model=\"fidelity\"}"),
            std::string::npos)
      << response;
  EXPECT_NE(response.find("qrc_search_requests_total{strategy=\"beam\"}"),
            std::string::npos);
  EXPECT_NE(response.find("qrc_verify_verdicts_total{method="),
            std::string::npos);
  EXPECT_NE(response.find("qrc_net_connections_active"), std::string::npos);
  EXPECT_GE(ts.service.metrics().counter_value("qrc_net_accepted_total"),
            1u);

  // Unknown paths get a 404 without wedging the listener.
  const qrc::net::Socket sock2 =
      qrc::net::connect_tcp("127.0.0.1", ts.server.metrics_port());
  qrc::net::send_all(sock2.fd(), "GET /nope HTTP/1.0\r\n\r\n");
  std::string miss;
  for (;;) {
    const auto n = ::recv(sock2.fd(), buf, sizeof(buf), 0);
    if (n <= 0) {
      break;
    }
    miss.append(buf, static_cast<std::size_t>(n));
  }
  EXPECT_NE(miss.find("404"), std::string::npos);
}

// ----------------------------------------------------------- determinism ---

TEST(ObsDeterminismTest, TracingLeavesCompiledResultsBitwiseUnchanged) {
  const Circuit circuit =
      qrc::bench::make_benchmark(BenchmarkFamily::kVqe, 4, 1);

  const std::string baseline =
      qrc::ir::to_qasm(shared_model().compile(circuit).circuit);

  // Traced, with detail spans on: every hot-path timer fires.
  CompileService svc;
  svc.registry().add("fidelity", shared_handle());
  const auto trace = std::make_shared<TraceContext>("det");
  auto traced = svc.submit("det", "fidelity", circuit, /*verify=*/false,
                           std::nullopt, trace)
                    .get();

  EXPECT_EQ(qrc::ir::to_qasm(traced.result.circuit), baseline);
  ASSERT_NE(traced.trace, nullptr);
  // The detail collector actually recorded hot-path spans and they were
  // adopted under the request's rollout span.
  const auto names = span_names(*traced.trace);
  EXPECT_TRUE(contains(names, "policy_forward"))
      << traced.trace->to_json();
  EXPECT_TRUE(contains(names, "env_step")) << traced.trace->to_json();
}

}  // namespace

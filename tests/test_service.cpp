// Tests for the compile service subsystem: the LRU result cache, the
// multi-model registry, the JSONL protocol codecs, and the micro-batching
// scheduler — including the service-level guarantee that batching and
// caching never change results relative to a direct Predictor::compile().

#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <optional>
#include <random>
#include <thread>
#include <vector>

#include "bench_suite/benchmarks.hpp"
#include "core/predictor.hpp"
#include "ir/qasm.hpp"
#include "obs/metrics.hpp"
#include "service/compile_service.hpp"
#include "service/jsonl.hpp"
#include "service/model_registry.hpp"
#include "service/result_cache.hpp"

namespace {

using qrc::bench::BenchmarkFamily;
using qrc::core::CompilationResult;
using qrc::core::Predictor;
using qrc::ir::Circuit;
using qrc::reward::RewardKind;
using qrc::service::CompileService;
using qrc::service::ErrorCode;
using qrc::service::JsonValue;
using qrc::service::ModelRegistry;
using qrc::service::ResultCache;
using qrc::service::ServiceConfig;
using qrc::service::ServiceError;
using qrc::service::ServiceResponse;

Circuit small_ghz() {
  Circuit c(3, "ghz3");
  c.h(0);
  c.cx(0, 1);
  c.cx(1, 2);
  c.measure_all();
  return c;
}

/// One tiny trained model per reward objective, shared across tests (the
/// compile paths are const and thread-safe, training is the slow part).
const Predictor& shared_model(RewardKind kind = RewardKind::kFidelity) {
  static auto* models = new std::map<RewardKind, Predictor>();
  const auto it = models->find(kind);
  if (it != models->end()) {
    return it->second;
  }
  qrc::core::PredictorConfig config;
  config.reward = kind;
  config.seed = 11;
  config.ppo.total_timesteps = 512;
  config.ppo.steps_per_update = 256;
  config.ppo.hidden_sizes = {16};
  Predictor predictor(config);
  (void)predictor.train({small_ghz()});
  return models->emplace(kind, std::move(predictor)).first->second;
}

/// Non-owning handle to a shared static model.
std::shared_ptr<const Predictor> shared_handle(
    RewardKind kind = RewardKind::kFidelity) {
  return {&shared_model(kind), [](const Predictor*) {}};
}

std::vector<Circuit> small_suite() {
  std::vector<Circuit> suite;
  for (const int n : {2, 3, 4}) {
    suite.push_back(
        qrc::bench::make_benchmark(BenchmarkFamily::kGhz, n, 1));
    suite.push_back(
        qrc::bench::make_benchmark(BenchmarkFamily::kVqe, n, 1));
  }
  return suite;
}

CompilationResult dummy_result(double reward) {
  CompilationResult r;
  r.reward = reward;
  return r;
}

// ------------------------------------------------------------- the cache --

TEST(ResultCacheTest, HitMissAndRecencyCounters) {
  qrc::obs::MetricsRegistry registry;
  ResultCache cache(2, registry);
  EXPECT_TRUE(cache.enabled());
  EXPECT_FALSE(cache.get("a").has_value());
  cache.put("a", dummy_result(0.1));
  const auto hit = cache.get("a");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->reward, 0.1);
  EXPECT_EQ(registry.counter_value("qrc_cache_hits_total"), 1u);
  EXPECT_EQ(registry.counter_value("qrc_cache_misses_total"), 1u);
  EXPECT_EQ(registry.counter_value("qrc_cache_insertions_total"), 1u);
  EXPECT_EQ(registry.counter_value("qrc_cache_evictions_total"), 0u);
}

TEST(ResultCacheTest, EvictsLeastRecentlyUsed) {
  qrc::obs::MetricsRegistry registry;
  ResultCache cache(2, registry);
  cache.put("a", dummy_result(0.1));
  cache.put("b", dummy_result(0.2));
  ASSERT_TRUE(cache.get("a").has_value());  // refresh "a"; "b" is now LRU
  cache.put("c", dummy_result(0.3));        // evicts "b"
  EXPECT_TRUE(cache.get("a").has_value());
  EXPECT_FALSE(cache.get("b").has_value());
  EXPECT_TRUE(cache.get("c").has_value());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(registry.counter_value("qrc_cache_evictions_total"), 1u);
}

TEST(ResultCacheTest, ReinsertRefreshesInsteadOfDuplicating) {
  qrc::obs::MetricsRegistry registry;
  ResultCache cache(2, registry);
  cache.put("a", dummy_result(0.1));
  cache.put("b", dummy_result(0.2));
  cache.put("a", dummy_result(0.1));  // refresh: "b" becomes LRU
  cache.put("c", dummy_result(0.3));
  EXPECT_TRUE(cache.get("a").has_value());
  EXPECT_FALSE(cache.get("b").has_value());
  // a, b, c; the refresh is not one
  EXPECT_EQ(registry.counter_value("qrc_cache_insertions_total"), 3u);
}

TEST(ResultCacheTest, ZeroCapacityDisables) {
  qrc::obs::MetricsRegistry registry;
  ResultCache cache(0, registry);
  EXPECT_FALSE(cache.enabled());
  cache.put("a", dummy_result(0.1));
  EXPECT_FALSE(cache.get("a").has_value());
  EXPECT_EQ(cache.size(), 0u);
}

// ---------------------------------------------------------- the registry --

TEST(ModelRegistryTest, AddFindNames) {
  ModelRegistry registry;
  EXPECT_EQ(registry.size(), 0u);
  EXPECT_EQ(registry.find("fidelity"), nullptr);
  registry.add("fidelity", shared_handle());
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_NE(registry.find("fidelity"), nullptr);
  EXPECT_EQ(registry.names(), std::vector<std::string>{"fidelity"});
  EXPECT_NO_THROW((void)registry.at("fidelity"));
  EXPECT_THROW((void)registry.at("nope"), std::runtime_error);
}

TEST(ModelRegistryTest, RejectsDuplicatesEmptyNamesAndUntrainedModels) {
  ModelRegistry registry;
  registry.add("m", shared_handle());
  EXPECT_THROW(registry.add("m", shared_handle()), std::invalid_argument);
  EXPECT_THROW(registry.add("", shared_handle()), std::invalid_argument);
  EXPECT_THROW(registry.add("untrained", Predictor({})), std::logic_error);
}

// ------------------------------------------------------------ the jsonl ---

TEST(JsonlTest, ParsesRequestLines) {
  const auto r = qrc::service::parse_serve_request(
      R"({"v": 1, "id": "r1", "model": "fid", "qasm": "qreg q[1];\nh q[0];"})");
  EXPECT_EQ(r.id, "r1");
  EXPECT_EQ(r.model, "fid");
  EXPECT_EQ(r.qasm, "qreg q[1];\nh q[0];");
}

TEST(JsonlTest, NumericIdsAndOmittedFieldsAreTolerated) {
  const auto r =
      qrc::service::parse_serve_request(R"({"v": 1, "id": 7, "qasm": "x"})");
  EXPECT_EQ(r.id, "7");
  EXPECT_EQ(r.model, "");  // -> service default model
}

TEST(JsonlTest, RejectsMalformedRequests) {
  EXPECT_THROW((void)qrc::service::parse_serve_request("not json"),
               std::runtime_error);
  EXPECT_THROW((void)qrc::service::parse_serve_request(R"(["array"])"),
               std::runtime_error);
  EXPECT_THROW(
      (void)qrc::service::parse_serve_request(R"({"v":1,"id":"x"})"),
      std::runtime_error);  // missing qasm
  EXPECT_THROW(
      (void)qrc::service::parse_serve_request(R"({"v": 1, "qasm": 42})"),
      std::runtime_error);  // mistyped qasm
  EXPECT_THROW((void)qrc::service::parse_serve_request(
                   R"({"v":1,"qasm":"x"} trailing)"),
               std::runtime_error);

  // Raw UTF-8 in strings: well-formed sequences pass through...
  const std::string utf8 = "\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80";  // é € 😀
  EXPECT_EQ(qrc::service::parse_serve_request(
                "{\"v\":1,\"id\":\"" + utf8 + "\",\"qasm\":\"x\"}")
                .id,
            utf8);
  // ...and every ill-formed one is a typed bad_request naming the offset.
  for (const std::string& bad : {
           std::string("\x80"),              // stray continuation byte
           std::string("a\xbf"),             // stray continuation byte
           std::string("\xc0\xaf"),          // overlong '/'
           std::string("\xe0\x80\xaf"),      // overlong '/'
           std::string("\xf0\x80\x80\xaf"),  // overlong '/'
           std::string("\xed\xa0\x80"),      // surrogate U+D800
           std::string("\xed\xbf\xbf"),      // surrogate U+DFFF
           std::string("\xf4\x90\x80\x80"),  // U+110000
           std::string("\xf5\x80\x80\x80"),  // lead byte past U+10FFFF
           std::string("\xff\xfe"),          // never valid
           std::string("\xe2\x82"),          // truncated €
           std::string("\xf0\x9f\x98"),      // truncated 😀
       }) {
    const std::string line =
        "{\"v\":1,\"id\":\"" + bad + "\",\"qasm\":\"x\"}";
    try {
      (void)qrc::service::parse_serve_request(line);
      ADD_FAILURE() << "accepted invalid UTF-8 in " << line;
    } catch (const ServiceError& e) {
      EXPECT_EQ(e.code(), ErrorCode::kBadRequest);
      EXPECT_NE(std::string(e.what()).find("json: invalid UTF-8 at offset "),
                std::string::npos)
          << e.what();
    }
  }
  // A truncated sequence at the very end of the text, too.
  EXPECT_THROW((void)JsonValue::parse("\"\xc3"), std::runtime_error);

  // On the wire such a line is answered with a bad_request error frame
  // whose own bytes are valid UTF-8 (the id cannot be recovered).
  const std::string line = "{\"v\":1,\"id\":\"\xed\xa0\x80\",\"qasm\":\"x\"}";
  try {
    (void)qrc::service::parse_serve_request(line);
    ADD_FAILURE() << "accepted an invalid id";
  } catch (const std::exception& e) {
    const auto frame = JsonValue::parse(qrc::service::serve_error_line(
        qrc::service::extract_request_id(line),
        qrc::service::error_code_of(e), e.what()));
    const auto& obj = frame.as_object();
    EXPECT_EQ(obj.at("id").as_string(), "");
    EXPECT_EQ(obj.at("type").as_string(), "error");
    EXPECT_EQ(obj.at("error").as_object().at("code").as_string(),
              "bad_request");
  }
}

TEST(JsonlTest, ValueParserHandlesEscapesNestingAndCanonicalDump) {
  const auto v = JsonValue::parse(
      " {\"b\": 1, \"a\": [true, null, \"x\\n\\u00e9\"], \"c\": -2.5e-1} ");
  EXPECT_EQ(v.dump(), "{\"a\":[true,null,\"x\\n\u00e9\"],\"b\":1,\"c\":-0.25}");
  EXPECT_THROW((void)JsonValue::parse("{\"a\":}"), std::runtime_error);
  EXPECT_THROW((void)JsonValue::parse("\"unterminated"), std::runtime_error);
  EXPECT_THROW((void)JsonValue::parse("{\"a\":1,}"), std::runtime_error);
}

TEST(JsonlTest, RecoversTheIdFromInvalidRequests) {
  // Validation failures must still echo the id so pipelined clients can
  // correlate the error line.
  EXPECT_EQ(qrc::service::extract_request_id(R"({"id":"r7","qasm":42})"),
            "r7");
  EXPECT_EQ(qrc::service::extract_request_id(R"({"id":7})"), "7");
  EXPECT_EQ(qrc::service::extract_request_id(R"({"qasm":"x"})"), "");
  EXPECT_EQ(qrc::service::extract_request_id("not json"), "");
  EXPECT_EQ(qrc::service::extract_request_id(R"({"id":[1]})"), "");
}

TEST(JsonlTest, RejectsUnknownRequestFields) {
  // A typoed "verifi" must produce an error line, not a silently
  // unverified compilation.
  try {
    (void)qrc::service::parse_serve_request(
        R"({"v": 1, "qasm": "x", "verifi": true})");
    FAIL() << "unknown field accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("verifi"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW((void)qrc::service::parse_serve_request(
                   R"({"v": 1, "qasm": "x", "Model": "m"})"),
               std::runtime_error);  // wrong case is unknown too
}

TEST(JsonlTest, ParsesTheVerifyFlag) {
  EXPECT_FALSE(
      qrc::service::parse_serve_request(R"({"v": 1, "qasm": "x"})").verify);
  EXPECT_TRUE(qrc::service::parse_serve_request(
                  R"({"v": 1, "qasm": "x", "verify": true})")
                  .verify);
  EXPECT_FALSE(qrc::service::parse_serve_request(
                   R"({"v": 1, "qasm": "x", "verify": false})")
                   .verify);
  EXPECT_THROW((void)qrc::service::parse_serve_request(
                   R"({"v": 1, "qasm": "x", "verify": "yes"})"),
               std::runtime_error);
}

TEST(JsonlTest, ResponseCarriesVerdictFieldsOnlyWhenVerified) {
  ServiceResponse response;
  response.id = "v1";
  response.model = "fid";
  response.result.circuit = small_ghz();
  const auto plain =
      JsonValue::parse(qrc::service::serve_response_line(response));
  EXPECT_EQ(plain.as_object().count("verdict"), 0U);

  qrc::verify::VerifyResult verification;
  verification.verdict = qrc::verify::Verdict::kEquivalent;
  verification.method = qrc::verify::Method::kCliffordTableau;
  verification.confidence = 1.0;
  response.result.verification = verification;
  const auto verified =
      JsonValue::parse(qrc::service::serve_response_line(response));
  const auto& obj = verified.as_object();
  EXPECT_EQ(obj.at("verdict").as_string(), "equivalent");
  EXPECT_EQ(obj.at("verify_method").as_string(), "clifford_tableau");
  EXPECT_EQ(obj.at("verify_confidence").as_number(), 1.0);
}

TEST(JsonlTest, QuoteRoundTripsThroughTheParser) {
  const std::string nasty = "line1\nline2\t\"quoted\" \\slash\x01";
  const auto parsed = JsonValue::parse(qrc::service::json_quote(nasty));
  EXPECT_EQ(parsed.as_string(), nasty);
}

TEST(JsonlTest, QuoteEmitsTheWireTextExactly) {
  using qrc::service::json_quote;
  EXPECT_EQ(json_quote(""), "\"\"");
  EXPECT_EQ(json_quote("plain text"), "\"plain text\"");
  EXPECT_EQ(json_quote("a\"b"), R"("a\"b")");
  EXPECT_EQ(json_quote("a\\b"), R"("a\\b")");
  EXPECT_EQ(json_quote("\b\f\n\r\t"), R"("\b\f\n\r\t")");
  EXPECT_EQ(json_quote(std::string("\0", 1)), R"("\u0000")");
  EXPECT_EQ(json_quote("\x01"), R"("\u0001")");
  EXPECT_EQ(json_quote("\x1f"), R"("\u001f")");
  // DEL and multi-byte UTF-8 (U+00E9, U+20AC, U+1F600) pass through raw.
  EXPECT_EQ(json_quote("\x7f"), "\"\x7f\"");
  EXPECT_EQ(json_quote("\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80"),
            "\"\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80\"");
  EXPECT_EQ(json_quote("x\ny\"z\x01tail"), R"("x\ny\"z\u0001tail")");
}

TEST(JsonlTest, ResponseAndErrorLinesAreValidJson) {
  ServiceResponse response;
  response.id = "r\"1";
  response.model = "fid";
  response.result.circuit = small_ghz();
  response.result.reward = 0.75;
  response.cached = true;
  response.latency_us = 42;
  const auto line = qrc::service::serve_response_line(response);
  const auto v = JsonValue::parse(line);
  const auto& obj = v.as_object();
  EXPECT_EQ(obj.at("id").as_string(), "r\"1");
  EXPECT_EQ(obj.at("reward").as_number(), 0.75);
  EXPECT_TRUE(obj.at("device").is_null());  // no device chosen
  EXPECT_TRUE(obj.at("cached").as_bool());
  EXPECT_FALSE(obj.at("used_fallback").as_bool());
  EXPECT_EQ(obj.at("latency_us").as_number(), 42.0);
  // The embedded qasm parses back to the same circuit.
  EXPECT_TRUE(qrc::ir::from_qasm(obj.at("qasm").as_string()) ==
              response.result.circuit);

  const auto err = JsonValue::parse(qrc::service::serve_error_line(
      "r2", ErrorCode::kBadRequest, "bad\nthing"));
  EXPECT_EQ(
      err.as_object().at("error").as_object().at("message").as_string(),
      "bad\nthing");
}

// ---------------------------------------------------------- the service ---

void expect_same_result(const CompilationResult& got,
                        const CompilationResult& want,
                        const std::string& context) {
  EXPECT_EQ(got.action_trace, want.action_trace) << context;
  EXPECT_EQ(got.reward, want.reward) << context;
  EXPECT_EQ(got.used_fallback, want.used_fallback) << context;
  EXPECT_EQ(got.device, want.device) << context;
  EXPECT_TRUE(got.circuit == want.circuit) << context;
  EXPECT_EQ(got.initial_layout, want.initial_layout) << context;
  EXPECT_EQ(got.final_layout, want.final_layout) << context;
}

TEST(CompileServiceTest, ConcurrentSubmissionsMatchDirectCompileExactly) {
  // The acceptance bar: for any interleaving of concurrent submissions,
  // micro-batching and caching must not change any request's result.
  const auto suite = small_suite();
  std::vector<CompilationResult> direct;
  direct.reserve(suite.size());
  for (const auto& circuit : suite) {
    direct.push_back(shared_model().compile(circuit));
  }

  ServiceConfig config;
  config.max_batch = 4;
  config.max_wait_us = 500;
  config.cache_entries = 64;
  CompileService service(config);
  service.registry().add("fidelity", shared_handle());

  // Every circuit requested twice, submissions shuffled across 3 threads.
  std::vector<int> order;
  for (int copy = 0; copy < 2; ++copy) {
    for (std::size_t i = 0; i < suite.size(); ++i) {
      order.push_back(static_cast<int>(i));
    }
  }
  std::shuffle(order.begin(), order.end(), std::mt19937_64(42));

  std::vector<std::future<ServiceResponse>> futures(order.size());
  {
    std::vector<std::thread> clients;
    const std::size_t shard = order.size() / 3;
    for (int t = 0; t < 3; ++t) {
      clients.emplace_back([&, t] {
        const std::size_t lo = static_cast<std::size_t>(t) * shard;
        const std::size_t hi =
            t == 2 ? order.size() : lo + shard;
        for (std::size_t i = lo; i < hi; ++i) {
          futures[i] = service.submit("req" + std::to_string(i), "",
                                      suite[static_cast<std::size_t>(
                                          order[i])]);
        }
      });
    }
    for (auto& c : clients) {
      c.join();
    }
  }

  for (std::size_t i = 0; i < order.size(); ++i) {
    const ServiceResponse response = futures[i].get();
    EXPECT_EQ(response.id, "req" + std::to_string(i));
    EXPECT_EQ(response.model, "fidelity");
    EXPECT_GE(response.latency_us, 0);
    expect_same_result(
        response.result,
        direct[static_cast<std::size_t>(order[i])],
        suite[static_cast<std::size_t>(order[i])].name());
  }

  const auto& metrics = service.metrics();
  const auto requests = metrics.counter_total("qrc_requests_total");
  const auto misses = metrics.counter_value("qrc_cache_misses_total");
  const auto batched = metrics.counter_value("qrc_batched_requests_total");
  EXPECT_EQ(requests, order.size());
  // Every miss is queued exactly once; batches partition the misses.
  EXPECT_EQ(metrics.counter_value("qrc_cache_hits_total") + misses,
            requests);
  EXPECT_EQ(batched, misses);
  std::uint64_t histogram_total = 0;
  for (const auto& [labels, count] :
       metrics.counter_series("qrc_batches_by_size_total")) {
    ASSERT_EQ(labels.size(), 1u);
    const int size = std::stoi(labels.front().second);
    EXPECT_GE(size, 1);
    EXPECT_LE(size, config.max_batch);
    histogram_total += static_cast<std::uint64_t>(size) * count;
  }
  EXPECT_EQ(histogram_total, batched);
}

TEST(CompileServiceTest, RepeatRequestIsServedFromTheCache) {
  CompileService service{ServiceConfig{}};
  service.registry().add("fidelity", shared_handle());
  const Circuit circuit = small_ghz();

  const auto first = service.compile("fidelity", circuit);
  EXPECT_FALSE(first.cached);
  const auto second = service.compile("fidelity", circuit);
  EXPECT_TRUE(second.cached);
  expect_same_result(second.result, first.result, "cached replay");

  // Same content under a different name still hits (keys ignore names).
  Circuit renamed = small_ghz();
  renamed.set_name("anonymous");
  EXPECT_TRUE(service.compile("fidelity", renamed).cached);

  EXPECT_EQ(service.metrics().counter_total("qrc_requests_total"), 3u);
  EXPECT_EQ(service.metrics().counter_value("qrc_cache_hits_total"), 2u);
}

TEST(CompileServiceTest, VerifyFlagGatesAndMatchesDirectPredictor) {
  CompileService service{ServiceConfig{}};
  service.registry().add("fidelity", shared_handle());
  const Circuit circuit = small_ghz();

  // verify=false: no verification payload.
  const auto plain = service.submit("p", "fidelity", circuit).get();
  EXPECT_FALSE(plain.result.verification.has_value());

  // verify=true on a cache hit: the hit rides the lane and is re-verified
  // there (deterministic, so the verdict matches a fresh compilation).
  const auto cached = service.submit("c", "fidelity", circuit, true).get();
  EXPECT_TRUE(cached.cached);
  ASSERT_TRUE(cached.result.verification.has_value());
  EXPECT_EQ(cached.result.verification->verdict,
            qrc::verify::Verdict::kEquivalent)
      << cached.result.verification->detail;

  CompileService fresh{ServiceConfig{}};
  fresh.registry().add("fidelity", shared_handle());
  const auto verified = fresh.submit("v", "fidelity", circuit, true).get();
  EXPECT_FALSE(verified.cached);
  ASSERT_TRUE(verified.result.verification.has_value());
  EXPECT_EQ(verified.result.verification->verdict,
            qrc::verify::Verdict::kEquivalent);

  // The compiled artifact is identical to a direct unverified
  // Predictor::compile, and to the cached replay.
  const auto direct = shared_model().compile(circuit);
  expect_same_result(verified.result, direct, "verified vs direct");
  expect_same_result(cached.result, direct, "cached verified vs direct");
  // And the verdict matches what the Predictor gate computes directly.
  const auto direct_verdict = qrc::core::verify_compilation(
      circuit, direct, qrc::verify::VerifyOptions{});
  EXPECT_EQ(verified.result.verification->verdict, direct_verdict.verdict);
  EXPECT_EQ(verified.result.verification->method, direct_verdict.method);
  EXPECT_EQ(verified.result.verification->confidence,
            direct_verdict.confidence);

  // Counters: both verifying services saw only equivalent verdicts.
  const auto verdicts = [](const CompileService& svc,
                           const std::string& verdict) {
    std::uint64_t total = 0;
    for (const auto& [labels, count] :
         svc.metrics().counter_series("qrc_verify_verdicts_total")) {
      for (const auto& [key, value] : labels) {
        total += key == "verdict" && value == verdict ? count : 0;
      }
    }
    return total;
  };
  EXPECT_EQ(verdicts(service, "equivalent"), 1u);
  EXPECT_EQ(verdicts(service, "not_equivalent"), 0u);
  EXPECT_EQ(verdicts(fresh, "equivalent"), 1u);
  EXPECT_EQ(verdicts(fresh, "unknown"), 0u);
}

TEST(CompileServiceTest, CacheIsKeyedPerModel) {
  ServiceConfig config;
  CompileService service(config);
  service.registry().add("fidelity", shared_handle(RewardKind::kFidelity));
  service.registry().add("depth", shared_handle(RewardKind::kDepth));
  const Circuit circuit = small_ghz();

  EXPECT_FALSE(service.compile("fidelity", circuit).cached);
  // Other model: same circuit, distinct cache entry and its own batch lane.
  EXPECT_FALSE(service.compile("depth", circuit).cached);
  EXPECT_TRUE(service.compile("fidelity", circuit).cached);
  EXPECT_TRUE(service.compile("depth", circuit).cached);
}

TEST(CompileServiceTest, FusesConcurrentRequestsIntoOneBatch) {
  ServiceConfig config;
  config.max_batch = 4;
  config.max_wait_us = 2'000'000;  // plenty: the batch closes on count
  config.cache_entries = 0;        // no dedupe, count raw batch size
  CompileService service(config);
  service.registry().add("fidelity", shared_handle());

  const auto suite = small_suite();
  std::vector<std::future<ServiceResponse>> futures;
  futures.reserve(4);
  for (int i = 0; i < 4; ++i) {
    futures.push_back(service.submit(std::to_string(i), "fidelity",
                                     suite[static_cast<std::size_t>(i)]));
  }
  for (auto& f : futures) {
    (void)f.get();
  }
  const auto& metrics = service.metrics();
  EXPECT_EQ(metrics.counter_total("qrc_requests_total"), 4u);
  EXPECT_EQ(metrics.counter_value("qrc_batches_total"), 1u);
  EXPECT_EQ(metrics.gauge_value("qrc_batch_size_max"), 4);
  EXPECT_EQ(metrics.counter_value("qrc_batches_by_size_total",
                                  {{"size", "4"}}),
            1u);
}

TEST(CompileServiceTest, OverWideCircuitIsRefusedWithoutFailingItsBatch) {
  // A circuit wider than every library device can never compile. It must
  // be refused on its own, before it joins a batch: a failed rollout
  // fails every request it was fused with.
  ServiceConfig config;
  config.max_batch = 3;
  config.max_wait_us = 200'000;  // the three submits share one window
  config.cache_entries = 0;
  CompileService service(config);
  service.registry().add("fidelity", shared_handle());

  const auto suite = small_suite();
  Circuit wide(128, "wide128");
  wide.h(0);
  wide.cx(0, 127);

  auto first = service.submit("a", "fidelity", suite[1]);
  std::optional<ErrorCode> wide_code;
  std::future<ServiceResponse> wide_future;
  try {
    wide_future = service.submit("wide", "fidelity", wide);
  } catch (const ServiceError& e) {
    wide_code = e.code();
    EXPECT_NE(std::string(e.what()).find("128"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("127"), std::string::npos)
        << e.what();
  }
  auto second = service.submit("b", "fidelity", suite[3]);
  EXPECT_EQ(wide_code, ErrorCode::kBadRequest);

  for (auto* future : {&first, &second}) {
    try {
      const ServiceResponse response = future->get();
      expect_same_result(response.result,
                         shared_model().compile(
                             suite[response.id == "a" ? 1u : 3u]),
                         response.id);
    } catch (const std::exception& e) {
      ADD_FAILURE() << "valid request failed: " << e.what();
    }
  }
  if (wide_future.valid()) {
    EXPECT_THROW((void)wide_future.get(), std::exception);
  }
}

TEST(CompileServiceTest, ModelsAreHotAddableAndUnknownModelsAreRejected) {
  CompileService service{ServiceConfig{}};
  EXPECT_THROW((void)service.submit("1", "", small_ghz()),
               std::runtime_error);  // nothing registered yet
  service.registry().add("fidelity", shared_handle());
  EXPECT_NO_THROW((void)service.compile("", small_ghz()));
  EXPECT_THROW((void)service.submit("2", "nope", small_ghz()),
               std::runtime_error);

  // With two models and no default, requests must name one.
  service.registry().add("depth", shared_handle(RewardKind::kDepth));
  EXPECT_THROW((void)service.submit("3", "", small_ghz()),
               std::runtime_error);
}

TEST(CompileServiceTest, DefaultModelConfigRoutesAnonymousRequests) {
  ServiceConfig config;
  config.default_model = "depth";
  CompileService service(config);
  service.registry().add("fidelity", shared_handle(RewardKind::kFidelity));
  service.registry().add("depth", shared_handle(RewardKind::kDepth));
  EXPECT_EQ(service.compile("", small_ghz()).model, "depth");
}

TEST(CompileServiceTest, ShutdownDrainsAllPendingRequests) {
  const auto suite = small_suite();
  std::vector<std::future<ServiceResponse>> futures;
  {
    ServiceConfig config;
    config.max_batch = 100;          // never closes on count...
    config.max_wait_us = 10'000'000; // ...nor (practically) on the window
    CompileService service(config);
    service.registry().add("fidelity", shared_handle());
    for (std::size_t i = 0; i < suite.size(); ++i) {
      futures.push_back(
          service.submit(std::to_string(i), "fidelity", suite[i]));
    }
    // Destructor must flush the lane instead of abandoning the futures.
  }
  for (auto& f : futures) {
    const auto response = f.get();
    EXPECT_NE(response.result.device, nullptr);
  }
}

TEST(CompileServiceTest, RejectsNonsenseConfigs) {
  ServiceConfig bad_batch;
  bad_batch.max_batch = 0;
  EXPECT_THROW(CompileService{bad_batch}, std::invalid_argument);
  ServiceConfig bad_wait;
  bad_wait.max_wait_us = -1;
  EXPECT_THROW(CompileService{bad_wait}, std::invalid_argument);
}

}  // namespace

// Self-test of the harness helpers: percentiles and their sample rule,
// metric-name sanitizing, the JSON result line, and the scaling to the
// reference host speed. Exits non-zero after the checks if any failed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "harness.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest: FAILED %s\n", what);
    ++failures;
  }
}

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) {
    v.push_back(i);  // descending: the helpers must sort
  }
  return v;
}

}  // namespace

int main() {
  using namespace perfbench;

  expect(median({}) == 0.0, "median of nothing is 0");
  expect(median({3, 1, 2}) == 2.0, "odd median");
  expect(median({4, 1, 3, 2}) == 2.5, "even median");

  // Nearest rank: p99 of 1..1000 is 990, with exactly 10 samples beyond.
  const auto p99 = percentile(one_to(1000), 99.0);
  expect(p99.has_value() && *p99 == 990.0, "p99 of 1..1000 is 990");
  expect(!percentile(one_to(999), 99.0).has_value(),
         "p99 needs ten samples beyond it");
  expect(!percentile(one_to(100), 99.0).has_value(),
         "p99 of 100 samples is refused");
  const auto p90 = percentile(one_to(100), 90.0);
  expect(p90.has_value() && *p90 == 90.0, "p90 of 1..100 is 90");
  expect(percentile(one_to(1), 50.0, 0) == 1.0, "p50 of one sample");
  expect(!percentile({}, 50.0).has_value(), "percentile of nothing");
  expect(!percentile(one_to(10), 100.0, 0).has_value(), "p100 is refused");

  expect(sanitize_name("passes.PeepholeOptimise2Q.calls") ==
             "passes.PeepholeOptimise2Q.calls",
         "valid names pass through");
  expect(sanitize_name("passes.A+B.busy_ms") == "passes.A-B.busy_ms",
         "'+' becomes '-'");
  expect(sanitize_name("a b/c(d)") == "a-b-c-d-", "other bytes become '-'");
  expect(sanitize_name(".hidden") == "x.hidden", "leading punctuation");
  expect(sanitize_name("") == "x", "empty name");
  expect(sanitize_name(std::string(100, 'a')).size() == 64, "length cap");

  expect(json_string("a\"b\\c\nd\x01") == "\"a\\\"b\\\\c\\nd\\u0001\"",
         "json string escapes");
  expect(json_number(0.1) == "0.10000000000000001", "all 17 digits");
  expect(json_number(NAN) == "0", "non-finite becomes 0");

  MetricSet metrics;
  metrics.set("b.x", 2.5, "ms");
  metrics.set("a+y", 1, "count");
  expect(metrics.has("a-y") && metrics.value("b.x") == 2.5, "metric lookup");
  expect(result_line(true, 3, 0, metrics) ==
             "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
             "\"metrics\": {\"a-y\": {\"value\": 1, \"unit\": \"count\"}, "
             "\"b.x\": {\"value\": 2.5, \"unit\": \"ms\"}}}",
         "result line");

  expect(at_reference_speed(10.0, 2.0 * kReferenceMs) == 5.0,
         "a host at half the reference speed halves a time");
  expect(reference_ms() > 0.0, "the reference computation takes time");
  HostSpeed host;
  const double scaled = host.scale(1.0);
  expect(std::isfinite(scaled) && scaled > 0.0, "scaled time is positive");

  Checks checks;
  checks.outputs(3);
  checks.expect(0, true, "fine");
  checks.expect(1, false, "broken");
  checks.expect(1, false, "broken twice");
  expect(checks.attempted() == 3 && checks.failed() == 1 &&
             checks.reasons().size() == 2 && checks.reasons()[0] == "broken",
         "an output fails once, whatever number of its checks fail");

  if (failures == 0) {
    std::printf("selftest: all harness checks passed\n");
  }
  return failures == 0 ? 0 : 1;
}

#include "obs/bench_diff.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "util/json.hpp"

namespace qrc::obs {
namespace {

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n == 0) {
    return 0.0;
  }
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace

const char* diff_status_name(DiffStatus status) {
  switch (status) {
    case DiffStatus::kOk:
      return "ok";
    case DiffStatus::kImproved:
      return "improved";
    case DiffStatus::kRegressed:
      return "REGRESSED";
    case DiffStatus::kAdvisory:
      return "advisory";
    case DiffStatus::kNoBaseline:
      return "no-baseline";
  }
  return "?";
}

const std::vector<DiffRule>& default_diff_rules() {
  // rel_tol absorbs shared-runner noise (throughput benches swing ~15%
  // run to run on hosted CI); abs_tol keeps near-zero baselines from
  // turning noise into infinite relative changes.
  static const std::vector<DiffRule> kRules = {
      {"service_throughput", "requests_per_sec", true, 0.25, 5.0},
      {"service_throughput", "p50_latency_us", false, 0.30, 200.0},
      {"service_throughput", "p99_latency_us", false, 0.40, 500.0},
      {"service_throughput", "cache_hit_rate", true, 0.10, 0.05},
      {"rollout_throughput", "forward_batch_obs_per_sec", true, 0.25, 100.0},
      {"rollout_throughput", "forward_batch_speedup", true, 0.20, 0.15},
      {"verify_throughput", "clifford_checks_per_sec", true, 0.25, 5.0},
      {"verify_throughput", "miter_checks_per_sec", true, 0.25, 1.0},
      {"verify_throughput", "stimuli_checks_per_sec", true, 0.25, 1.0},
      {"search_quality", "reward_delta_vs_greedy", true, 0.50, 0.02},
      {"search_quality", "nodes_per_sec", true, 0.25, 50.0},
      {"kernels", "mlp_simd_speedup", true, 0.20, 0.15},
      {"kernels", "tableau_bitplane_speedup", true, 0.20, 0.15},
      {"kernels", "expansion_cow_speedup", true, 0.20, 0.15},
      {"obs_overhead", "overhead_on_pct", false, 0.50, 2.0},
      {"obs_overhead", "overhead_log_pct", false, 0.50, 2.0},
      {"obs_overhead", "overhead_detail_pct", false, 0.50, 2.0},
      {"obs_overhead", "overhead_profile_pct", false, 0.50, 2.5},
      {"serve_scale", "peak_requests_per_sec", true, 0.25, 5.0},
  };
  return kRules;
}

BenchMetrics extract_bench_metrics(const std::string& json_text,
                                   std::string& bench_name) {
  BenchMetrics metrics;
  bench_name.clear();
  const util::JsonValue doc = util::JsonValue::parse(json_text);
  if (!doc.is_object()) {
    return metrics;
  }
  const auto& obj = doc.as_object();
  const auto bench_it = obj.find("bench");
  if (bench_it != obj.end() && bench_it->second.is_string()) {
    bench_name = bench_it->second.as_string();
  }
  for (const auto& [key, value] : obj) {
    if (value.is_number()) {
      metrics[key] = value.as_number();
    }
  }
  // serve_scale publishes a sweep array; history records its peak row.
  const auto sweep_it = obj.find("sweep");
  if (bench_name == "serve_scale" && sweep_it != obj.end() &&
      sweep_it->second.is_array()) {
    double peak_rps = -1.0;
    double peak_conns = 0.0;
    for (const auto& point : sweep_it->second.as_array()) {
      if (!point.is_object()) {
        continue;
      }
      const auto& p = point.as_object();
      const auto rps = p.find("requests_per_sec");
      if (rps == p.end() || !rps->second.is_number()) {
        continue;
      }
      if (rps->second.as_number() > peak_rps) {
        peak_rps = rps->second.as_number();
        const auto conns = p.find("connections");
        peak_conns = conns != p.end() && conns->second.is_number()
                         ? conns->second.as_number()
                         : 0.0;
      }
    }
    if (peak_rps >= 0.0) {
      metrics["peak_requests_per_sec"] = peak_rps;
      metrics["peak_connections"] = peak_conns;
    }
  }
  return metrics;
}

DiffReport diff_benches(const std::string& history_jsonl,
                        const std::map<std::string, BenchMetrics>& current,
                        int min_history, int window) {
  DiffReport report;
  report.min_history = min_history;

  // bench -> key -> values, oldest first (file order == append order).
  std::map<std::string, std::map<std::string, std::vector<double>>> history;
  std::size_t pos = 0;
  while (pos < history_jsonl.size()) {
    std::size_t end = history_jsonl.find('\n', pos);
    if (end == std::string::npos) {
      end = history_jsonl.size();
    }
    const std::string line = history_jsonl.substr(pos, end - pos);
    pos = end + 1;
    if (line.find_first_not_of(" \t\r") == std::string::npos) {
      continue;
    }
    try {
      const util::JsonValue row = util::JsonValue::parse(line);
      if (!row.is_object()) {
        continue;
      }
      const auto& obj = row.as_object();
      const auto bench_it = obj.find("bench");
      if (bench_it == obj.end() || !bench_it->second.is_string()) {
        continue;
      }
      ++report.history_rows;
      auto& per_key = history[bench_it->second.as_string()];
      for (const auto& [key, value] : obj) {
        if (value.is_number()) {
          per_key[key].push_back(value.as_number());
        }
      }
    } catch (const std::exception&) {
      continue;  // a corrupt line must not brick the gate
    }
  }

  for (const DiffRule& rule : default_diff_rules()) {
    const auto bench_it = current.find(rule.bench);
    if (bench_it == current.end()) {
      continue;  // this bench didn't run — nothing to judge
    }
    const auto metric_it = bench_it->second.find(rule.key);
    if (metric_it == bench_it->second.end()) {
      continue;
    }
    DiffResult r;
    r.bench = rule.bench;
    r.key = rule.key;
    r.current = metric_it->second;

    const auto hist_bench = history.find(rule.bench);
    std::vector<double> values;
    if (hist_bench != history.end()) {
      const auto hist_key = hist_bench->second.find(rule.key);
      if (hist_key != hist_bench->second.end()) {
        values = hist_key->second;
      }
    }
    r.history_n = static_cast<int>(values.size());
    if (values.empty()) {
      r.status = DiffStatus::kNoBaseline;
      report.results.push_back(std::move(r));
      continue;
    }
    if (static_cast<int>(values.size()) > window) {
      values.erase(values.begin(),
                   values.end() - static_cast<std::ptrdiff_t>(window));
    }
    r.baseline = median(std::move(values));
    r.change_pct = r.baseline != 0.0
                       ? 100.0 * (r.current - r.baseline) / std::abs(r.baseline)
                       : 0.0;

    const double slack =
        std::max(rule.rel_tol * std::abs(r.baseline), rule.abs_tol);
    const double signed_delta = rule.higher_is_better
                                    ? r.current - r.baseline
                                    : r.baseline - r.current;
    if (signed_delta < -slack) {
      if (r.history_n >= min_history) {
        r.status = DiffStatus::kRegressed;
        report.regressed = true;
      } else {
        r.status = DiffStatus::kAdvisory;
        report.advisory = true;
      }
    } else if (signed_delta > slack) {
      r.status = DiffStatus::kImproved;
    } else {
      r.status = DiffStatus::kOk;
    }
    report.results.push_back(std::move(r));
  }
  return report;
}

std::string DiffReport::render() const {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%-20s %-28s %12s %12s %8s %4s  %s\n",
                "bench", "metric", "current", "baseline", "change", "n",
                "status");
  out += buf;
  for (const DiffResult& r : results) {
    if (r.status == DiffStatus::kNoBaseline) {
      std::snprintf(buf, sizeof(buf), "%-20s %-28s %12.4g %12s %8s %4d  %s\n",
                    r.bench.c_str(), r.key.c_str(), r.current, "-", "-",
                    r.history_n, diff_status_name(r.status));
    } else {
      std::snprintf(buf, sizeof(buf),
                    "%-20s %-28s %12.4g %12.4g %+7.1f%% %4d  %s\n",
                    r.bench.c_str(), r.key.c_str(), r.current, r.baseline,
                    r.change_pct, r.history_n, diff_status_name(r.status));
    }
    out += buf;
  }
  std::snprintf(buf, sizeof(buf),
                "history rows: %d (gate at >=%d per metric) -> %s\n",
                history_rows, min_history,
                regressed ? "REGRESSION: fail"
                          : (advisory ? "advisory regressions only: pass"
                                      : "pass"));
  out += buf;
  return out;
}

}  // namespace qrc::obs

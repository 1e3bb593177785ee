#include "net/stats.hpp"

#include <algorithm>

namespace qrc::net {

namespace {

/// One stats key and the registry series it reads: every counter series
/// of `family` carrying the label `label_name`=`label_value` (all of them
/// when `label_name` is empty), plus the family's unlabelled gauge.
struct StatRow {
  std::string_view key;
  std::string_view family;
  std::string_view label_name = {};
  std::string_view label_value = {};
};

constexpr StatRow kStatsTable[] = {
    {"requests", "qrc_requests_total"},
    {"cache_hits", "qrc_cache_hits_total"},
    {"cache_misses", "qrc_cache_misses_total"},
    {"batches", "qrc_batches_total"},
    {"batched_requests", "qrc_batched_requests_total"},
    {"verified", "qrc_verify_verdicts_total", "verdict", "equivalent"},
    {"refuted", "qrc_verify_verdicts_total", "verdict", "not_equivalent"},
    {"verify_unknown", "qrc_verify_verdicts_total", "verdict", "unknown"},
    {"beam_requests", "qrc_search_requests_total", "strategy", "beam"},
    {"mcts_requests", "qrc_search_requests_total", "strategy", "mcts"},
    {"search_improved", "qrc_search_improved_total"},
    {"search_deadline_hits", "qrc_search_deadline_hits_total"},
    {"shed", "qrc_shed_total", "reason", "lane_queue"},
    {"partials", "qrc_partials_total"},
    {"max_batch_size", "qrc_batch_size_max"},  // the one gauge row
    {"cache_evictions", "qrc_cache_evictions_total"},
    {"connections_accepted", "qrc_net_accepted_total"},
    {"connections_rejected", "qrc_net_rejected_total"},
    {"frames_in", "qrc_net_frames_in_total"},
    {"frames_out", "qrc_net_frames_out_total"},
    {"partial_frames", "qrc_net_partial_frames_total"},
    {"error_frames", "qrc_net_error_frames_total"},
    {"oversized_frames", "qrc_net_oversized_frames_total"},
    {"shed_inflight", "qrc_shed_total", "reason", "conn_inflight"},
};

std::uint64_t row_value(const obs::MetricsRegistry& registry,
                        const StatRow& row) {
  std::uint64_t total = 0;
  for (const auto& [labels, value] : registry.counter_series(row.family)) {
    const bool match =
        row.label_name.empty() ||
        std::any_of(labels.begin(), labels.end(), [&row](const auto& label) {
          return label.first == row.label_name &&
                 label.second == row.label_value;
        });
    if (match) {
      total += value;
    }
  }
  return total + static_cast<std::uint64_t>(std::max<std::int64_t>(
                     0, registry.gauge_value(row.family)));
}

}  // namespace

std::vector<std::pair<std::string_view, std::uint64_t>> read_stats(
    const obs::MetricsRegistry& registry) {
  std::vector<std::pair<std::string_view, std::uint64_t>> out;
  out.reserve(std::size(kStatsTable));
  for (const StatRow& row : kStatsTable) {
    out.emplace_back(row.key, row_value(registry, row));
  }
  return out;
}

}  // namespace qrc::net

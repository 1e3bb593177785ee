/// \file stats.hpp
/// \brief The serve stats table: each stats key names the registry series
///        it reads. The "stats" op, the counter rows of /statusz and the
///        `qrc serve` exit summary all render it, so the metrics registry
///        is the only stats source.
#pragma once

#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace qrc::net {

/// Every stats key with its current value, in table order: the 14 service
/// keys of the "stats" op first (requests ... partials), then
/// max_batch_size, cache_evictions and the connection and frame counters.
[[nodiscard]] std::vector<std::pair<std::string_view, std::uint64_t>>
read_stats(const obs::MetricsRegistry& registry);

}  // namespace qrc::net

#include "search/search.hpp"

#include <charconv>
#include <cstdio>
#include <stdexcept>

namespace qrc::search {

namespace {

// Largest budgets a spec may ask for. A spec arrives from outside (the CLI
// flag, a wire frame), and search time and memory grow with the budget.
constexpr int kMaxBeamWidth = 64;
constexpr int kMaxSimulations = 20000;

/// Strict integer parse of a spec budget ("8" in "beam:8") in [1, max].
int parse_budget(std::string_view text, std::string_view spec, int max) {
  int value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || ptr != text.data() + text.size() || value < 1 ||
      value > max) {
    throw std::runtime_error("bad search spec '" + std::string(spec) +
                             "': budget must be an integer in [1, " +
                             std::to_string(max) + "]");
  }
  return value;
}

}  // namespace

std::string_view strategy_name(Strategy strategy) {
  switch (strategy) {
    case Strategy::kBeam:
      return "beam";
    case Strategy::kMcts:
      return "mcts";
  }
  return "?";
}

SearchOptions parse_spec(std::string_view spec) {
  const auto colon = spec.find(':');
  const std::string_view name = spec.substr(0, colon);
  const std::string_view budget =
      colon == std::string_view::npos ? std::string_view{}
                                      : spec.substr(colon + 1);
  SearchOptions options;
  if (name == "beam") {
    options.strategy = Strategy::kBeam;
    if (colon != std::string_view::npos) {
      options.beam_width = parse_budget(budget, spec, kMaxBeamWidth);
    }
  } else if (name == "mcts") {
    options.strategy = Strategy::kMcts;
    if (colon != std::string_view::npos) {
      options.simulations = parse_budget(budget, spec, kMaxSimulations);
    }
  } else {
    throw std::runtime_error("bad search spec '" + std::string(spec) +
                             "': expected beam[:width] or mcts[:sims]");
  }
  return options;
}

std::string spec_string(const SearchOptions& options) {
  const int budget = options.strategy == Strategy::kBeam
                         ? options.beam_width
                         : options.simulations;
  return std::string(strategy_name(options.strategy)) + ":" +
         std::to_string(budget);
}

std::string cache_token(const SearchOptions& options) {
  // Every knob that can change the searched result is spelled out, so two
  // requests differing in any of them occupy distinct cache entries.
  char buffer[96];
  std::snprintf(buffer, sizeof(buffer), "%s;w=%d;sims=%d;dl=%lld",
                strategy_name(options.strategy).data(), options.beam_width,
                options.simulations,
                static_cast<long long>(options.deadline_ms));
  return buffer;
}

}  // namespace qrc::search

#include "ledger.hpp"

#include <algorithm>
#include <fstream>

#include "core/actions.hpp"
#include "core/compilation_env.hpp"
#include "verify/equivalence.hpp"

namespace perfbench {

namespace core = qrc::core;

namespace {

constexpr std::string_view kFallbackSuffix = "(fallback)";

bool is_selection(core::ActionType type) {
  return type == core::ActionType::kPlatformSelection ||
         type == core::ActionType::kDeviceSelection;
}

/// Ledger row of an action: platform and device picks share "select".
std::string pass_row(const core::Action& action) {
  return is_selection(action.type()) ? "select" : action.name();
}

}  // namespace

void Ledger::record(std::uint32_t request, const char* layer,
                    const std::string& name, Clock::time_point start,
                    Clock::time_point end) {
  const double dur_ms = ms_between(start, end);
  spans_.push_back(Span{request, layer, name,
                        1000.0 * ms_between(origin_, start), 1000.0 * dur_ms});
  Tally& row = rows_[std::string(layer) + "." + name];
  ++row.calls;
  row.busy_ms += dur_ms;
  Tally& whole = layers_[layer];
  ++whole.calls;
  whole.busy_ms += dur_ms;
}

Tally Ledger::tally(const std::string& layer, const std::string& name) const {
  const auto& map = name.empty() ? layers_ : rows_;
  const auto it = map.find(name.empty() ? layer : layer + "." + name);
  return it == map.end() ? Tally{} : it->second;
}

double Ledger::count(const std::string& key) const {
  const auto it = counts_.find(key);
  return it == counts_.end() ? 0.0 : it->second;
}

bool Ledger::write_jsonl(const std::string& path) const {
  std::ofstream os(path);
  for (const Span& s : spans_) {
    os << "{\"request\": " << s.request << ", \"layer\": "
       << json_string(s.layer) << ", \"name\": " << json_string(s.name)
       << ", \"start_us\": " << json_number(s.start_us)
       << ", \"dur_us\": " << json_number(s.dur_us) << "}\n";
  }
  return static_cast<bool>(os);
}

int greedy_steps(const core::CompilationResult& result) {
  return static_cast<int>(std::count_if(
      result.action_trace.begin(), result.action_trace.end(),
      [](const std::string& a) { return !a.ends_with(kFallbackSuffix); }));
}

bool replay_greedy(const qrc::ir::Circuit& input,
                   const core::CompilationResult& result,
                   const ReplayModel& model, Ledger& ledger,
                   std::uint32_t request, bool forward) {
  const auto& registry = core::ActionRegistry::instance();
  core::CompilationState state;
  state.circuit = input;
  std::vector<double> obs = ledger.time(request, "features", "observe", [&] {
    return core::CompilationEnv::observe_state(state);
  });
  std::vector<double> logits;
  int step = 0;
  std::optional<Clock::time_point> fallback_start;
  const auto score = [&] {
    ledger.time(request, "reward", "compute", [&] {
      return qrc::reward::compute_reward(model.reward, state.circuit,
                                         *state.device);
    });
  };
  for (const std::string& entry : result.action_trace) {
    const bool fallback = entry.ends_with(kFallbackSuffix);
    const std::string name =
        fallback ? entry.substr(0, entry.size() - kFallbackSuffix.size())
                 : entry;
    const int id = registry.index_of(name);
    const core::Action& action = registry.at(id);
    if (fallback) {
      if (!fallback_start.has_value()) {
        fallback_start = Clock::now();
      }
      // The fallback restarts the flow on IBM when the policy locked in a
      // platform with no device wide enough: a forced platform pick is
      // only recorded after that restart.
      if (action.type() == core::ActionType::kPlatformSelection &&
          state.platform.has_value()) {
        state = core::CompilationState{};
        state.circuit = input;
      }
      ledger.time(request, "passes", pass_row(action),
                  [&] { action.apply(state, model.seed); });
      continue;
    }
    ledger.time(request, "core", "mask", [&] { return registry.mask(state); });
    if (forward && model.policy != nullptr) {
      ledger.time(request, "rl", "forward",
                  [&] { model.policy->forward_batch(obs, 1, logits); });
      ledger.add_count("rl.forward.rows", 1);
    }
    const std::uint64_t seed =
        core::CompilationEnv::step_seed(model.seed, 1, step);
    ledger.time(request, "passes", pass_row(action), [&] {
      core::CompilationEnv::apply_action(state, id, seed);
    });
    ++step;
    ledger.add_count("core.steps", 1);
    if (state.state() == core::MdpState::kDone) {
      score();
    } else {
      obs = ledger.time(request, "features", "observe", [&] {
        return core::CompilationEnv::observe_state(state);
      });
    }
  }
  ledger.add_count("core.results", 1);
  if (fallback_start.has_value()) {
    score();
    ledger.record(request, "core", "fallback", *fallback_start, Clock::now());
  }
  const std::vector<int> initial =
      state.initial_layout.has_value() ? *state.initial_layout
                                       : std::vector<int>{};
  return state.state() == core::MdpState::kDone &&
         state.circuit == result.circuit && state.device == result.device &&
         initial == result.initial_layout &&
         state.final_layout == result.final_layout;
}

void time_batched_forwards(const std::vector<int>& steps,
                           const qrc::rl::Mlp& policy, Ledger& ledger,
                           std::uint32_t request) {
  const int longest =
      steps.empty() ? 0 : *std::max_element(steps.begin(), steps.end());
  std::vector<double> inputs;
  std::vector<double> logits;
  for (int s = 0; s < longest; ++s) {
    const auto rows = static_cast<int>(
        std::count_if(steps.begin(), steps.end(), [s](int n) { return n > s; }));
    inputs.assign(static_cast<std::size_t>(rows * policy.input_size()), 0.5);
    ledger.time(request, "rl", "forward",
                [&] { policy.forward_batch(inputs, rows, logits); });
    ledger.add_count("rl.forward.rows", rows);
  }
}

void ledger_metrics(const Ledger& ledger, MetricSet& metrics) {
  const auto& registry = core::ActionRegistry::instance();
  double pass_busy = 0.0;
  for (int id = 0; id < registry.size(); ++id) {
    const core::Action& action = registry.at(id);
    if (is_selection(action.type())) {
      continue;
    }
    const Tally t = ledger.tally("passes", action.name());
    metrics.set("passes." + action.name() + ".calls",
                static_cast<double>(t.calls), "count");
    metrics.set("passes." + action.name() + ".busy_ms", t.busy_ms, "ms");
    pass_busy += t.busy_ms;
  }
  const Tally select = ledger.tally("passes", "select");
  metrics.set("passes.select.calls", static_cast<double>(select.calls),
              "count");
  pass_busy += select.busy_ms;

  const Tally mask = ledger.tally("core", "mask");
  const Tally fallback = ledger.tally("core", "fallback");
  const double results = ledger.count("core.results");
  metrics.set("core.steps", ledger.count("core.steps"), "count");
  metrics.set("core.mask.busy_ms", mask.busy_ms, "ms");
  metrics.set("core.fallback.calls", static_cast<double>(fallback.calls),
              "count");
  metrics.set("core.fallback.busy_ms", fallback.busy_ms, "ms");
  metrics.set("core.fallback_frac",
              results > 0 ? static_cast<double>(fallback.calls) / results : 0.0,
              "ratio");

  const Tally observe = ledger.tally("features", "observe");
  metrics.set("features.observe.calls", static_cast<double>(observe.calls),
              "count");
  metrics.set("features.observe.busy_ms", observe.busy_ms, "ms");
  const Tally reward = ledger.tally("reward");
  metrics.set("reward.calls", static_cast<double>(reward.calls), "count");
  metrics.set("reward.busy_ms", reward.busy_ms, "ms");
  const Tally forward = ledger.tally("rl", "forward");
  metrics.set("rl.forward.calls", static_cast<double>(forward.calls), "count");
  metrics.set("rl.forward.rows", ledger.count("rl.forward.rows"), "count");
  metrics.set("rl.forward.busy_ms", forward.busy_ms, "ms");

  for (const auto method :
       {qrc::verify::Method::kCliffordTableau,
        qrc::verify::Method::kAlternatingMiter,
        qrc::verify::Method::kRandomStimuli}) {
    const std::string tier(qrc::verify::method_name(method));
    const Tally t = ledger.tally("verify", tier);
    metrics.set("verify." + tier + ".calls", static_cast<double>(t.calls),
                "count");
    metrics.set("verify." + tier + ".busy_ms", t.busy_ms, "ms");
  }
  metrics.set("verify.refuted", ledger.count("verify.refuted"), "count");
  metrics.set("verify.unknown", ledger.count("verify.unknown"), "count");

  const Tally parse = ledger.tally("ir", "parse");
  metrics.set("ir.parse.calls", static_cast<double>(parse.calls), "count");
  metrics.set("ir.parse.busy_ms", parse.busy_ms, "ms");
  metrics.set("ir.parse.mb_per_s",
              parse.busy_ms > 0
                  ? ledger.count("ir.parse.bytes") / 1e6 / (parse.busy_ms / 1e3)
                  : 0.0,
              "MB/s");
  metrics.set("ir.emit.busy_ms", ledger.tally("ir", "emit").busy_ms, "ms");

  // Coverage: the share of the compile calls' wall time that the replayed
  // layer calls account for; overhead: replay wall over compile wall - 1.
  const double compile_wall = ledger.count("core.compile_wall_ms");
  const double covered = pass_busy + mask.busy_ms + observe.busy_ms +
                         reward.busy_ms + forward.busy_ms;
  metrics.set("core.ledger_coverage_frac",
              compile_wall > 0 ? covered / compile_wall : 0.0, "ratio");
  metrics.set("trace.overhead_frac",
              compile_wall > 0
                  ? ledger.count("core.replay_wall_ms") / compile_wall - 1.0
                  : 0.0,
              "ratio");
}

}  // namespace perfbench

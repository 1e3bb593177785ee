// The outside-in per-layer ledger of a traced run. The benchmark never
// reaches inside the program: it times its own calls into each layer's
// public functions (features, core masks, rl forwards, passes, reward,
// verify, search, ir), keeps the spans in memory and writes them out at
// the end. A compiled result is replayed action by action through
// CompilationEnv::apply_action with the rollout's step seeds, and through
// ActionRegistry::at(id).apply for fallback entries, so the replay both
// attributes the compile's time to passes and checks the result bitwise.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/predictor.hpp"
#include "harness.hpp"
#include "rl/mlp.hpp"

namespace perfbench {

/// Calls and busy time of one ledger row ("passes.SabreSwap", ...).
struct Tally {
  std::uint64_t calls = 0;
  double busy_ms = 0.0;
};

class Ledger {
 public:
  Ledger() : origin_(Clock::now()) {}

  /// Runs `fn`, records its span under (`layer`, `name`) for `request`, and
  /// returns what `fn` returns.
  template <class Fn>
  decltype(auto) time(std::uint32_t request, const char* layer,
                      const std::string& name, Fn&& fn) {
    const auto start = Clock::now();
    struct Record {
      Ledger* self;
      std::uint32_t request;
      const char* layer;
      const std::string& name;
      Clock::time_point start;
      ~Record() { self->record(request, layer, name, start, Clock::now()); }
    } record{this, request, layer, name, start};
    return fn();
  }

  /// Adds a span measured elsewhere.
  void record(std::uint32_t request, const char* layer, const std::string& name,
              Clock::time_point start, Clock::time_point end);

  /// Tally of "<layer>.<name>" (or of the whole layer when `name` is
  /// empty).
  [[nodiscard]] Tally tally(const std::string& layer,
                            const std::string& name = "") const;

  /// Free-form counters kept next to the spans (rows, bytes, results).
  void add_count(const std::string& key, double n) { counts_[key] += n; }
  [[nodiscard]] double count(const std::string& key) const;

  /// Writes every span as one JSON line: request, layer, name, start and
  /// duration in microseconds from the ledger's origin.
  bool write_jsonl(const std::string& path) const;

 private:
  struct Span {
    std::uint32_t request = 0;
    const char* layer = "";
    std::string name;
    double start_us = 0.0;
    double dur_us = 0.0;
  };
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::map<std::string, Tally, std::less<>> rows_;
  std::map<std::string, Tally, std::less<>> layers_;
  std::map<std::string, double, std::less<>> counts_;
};

/// What a replay needs from the model: its step seed, objective and
/// policy network.
struct ReplayModel {
  std::uint64_t seed = 1;
  qrc::reward::RewardKind reward = qrc::reward::RewardKind::kFidelity;
  const qrc::rl::Mlp* policy = nullptr;
};

/// Replays one greedy compilation of `input` through the ledger: per step
/// the observation, the action mask, a batch-1 policy forward and the
/// pass, then the reward or the fallback entries. `forward` false skips the
/// policy forward (the caller times batched forwards itself). Returns true
/// when the replayed output equals `result` bitwise.
bool replay_greedy(const qrc::ir::Circuit& input,
                   const qrc::core::CompilationResult& result,
                   const ReplayModel& model, Ledger& ledger,
                   std::uint32_t request, bool forward = true);

/// Greedy steps (non-fallback actions) of a compiled result.
[[nodiscard]] int greedy_steps(const qrc::core::CompilationResult& result);

/// Times the policy forwards a fused rollout over `steps` (the greedy
/// step count of each request in one service batch) would issue: one
/// forward per step over the requests still running at that step.
void time_batched_forwards(const std::vector<int>& steps,
                           const qrc::rl::Mlp& policy, Ledger& ledger,
                           std::uint32_t request);

/// Adds the metrics every workload reports from its ledger: passes.*,
/// core.*, features.*, reward.*, rl.*, verify.*, ir.*.
void ledger_metrics(const Ledger& ledger, MetricSet& metrics);

}  // namespace perfbench

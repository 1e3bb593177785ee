/// \file actions.hpp
/// \brief The 29-action registry of the framework instantiation
///        (Section IV-A): 4 platform selections, 5 device selections,
///        1 synthesis, 3 layouts, 4 routings and 12 optimizations, each
///        with a uniform circuit-in/circuit-out interface and per-state
///        validity rules. A step's MdpState costs a scan of the circuit
///        once a device is chosen, so the mask computes it once and hands
///        it to every action's rule.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/compilation_state.hpp"
#include "device/library.hpp"
#include "passes/layout/layout.hpp"
#include "passes/pass.hpp"
#include "passes/routing/routing.hpp"

namespace qrc::core {

enum class ActionType : std::uint8_t {
  kPlatformSelection,
  kDeviceSelection,
  kSynthesis,
  kLayout,
  kRouting,
  kOptimization,
};

[[nodiscard]] std::string_view action_type_name(ActionType type);

/// One action of the MDP.
class Action {
 public:
  virtual ~Action() = default;
  Action(std::string name, ActionType type)
      : name_(std::move(name)), type_(type) {}
  Action(const Action&) = delete;
  Action& operator=(const Action&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] ActionType type() const { return type_; }

  /// True if this action may be applied in the given state (the masking
  /// rules of Section III-A).
  [[nodiscard]] bool valid(const CompilationState& state) const {
    return valid(state, state.state());
  }

  /// valid() for a caller that already holds `mdp == state.state()`.
  [[nodiscard]] virtual bool valid(const CompilationState& state,
                                   MdpState mdp) const = 0;

  /// Applies the action in place. `seed` drives stochastic passes.
  virtual void apply(CompilationState& state, std::uint64_t seed) const = 0;

 private:
  std::string name_;
  ActionType type_;
};

/// The fixed registry instantiated per the paper. Thread-compatible
/// (immutable after construction).
class ActionRegistry {
 public:
  ActionRegistry();

  [[nodiscard]] int size() const { return static_cast<int>(actions_.size()); }
  [[nodiscard]] const Action& at(int id) const { return *actions_[static_cast<std::size_t>(id)]; }

  /// Validity mask over all actions for a state; computes state() once.
  [[nodiscard]] std::vector<bool> mask(const CompilationState& state) const;

  /// mask() for a caller that already holds `mdp == state.state()`.
  [[nodiscard]] std::vector<bool> mask(const CompilationState& state,
                                       MdpState mdp) const;

  /// Index lookup by action name; throws on unknown name.
  [[nodiscard]] int index_of(std::string_view name) const;

  /// Shared immutable instance.
  [[nodiscard]] static const ActionRegistry& instance();

 private:
  std::vector<std::unique_ptr<Action>> actions_;
};

}  // namespace qrc::core

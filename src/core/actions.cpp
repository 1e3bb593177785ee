#include "core/actions.hpp"

#include <stdexcept>

#include "passes/opt/cancellation.hpp"
#include "passes/opt/clifford_opt.hpp"
#include "passes/opt/composite.hpp"
#include "passes/opt/consolidate.hpp"
#include "passes/opt/one_qubit_opt.hpp"
#include "passes/synthesis/basis_translator.hpp"

namespace qrc::core {

namespace {

class PlatformAction final : public Action {
 public:
  explicit PlatformAction(device::Platform platform)
      : Action("platform_" + std::string(device::platform_name(platform)),
               ActionType::kPlatformSelection),
        platform_(platform) {}

  bool valid(const CompilationState&, MdpState mdp) const override {
    return mdp == MdpState::kStart;
  }

  void apply(CompilationState& state, std::uint64_t) const override {
    state.platform = platform_;
  }

 private:
  device::Platform platform_;
};

class DeviceAction final : public Action {
 public:
  explicit DeviceAction(device::DeviceId id)
      : Action("device_" + device::get_device(id).name(),
               ActionType::kDeviceSelection),
        device_(&device::get_device(id)) {}

  bool valid(const CompilationState& state, MdpState mdp) const override {
    return mdp == MdpState::kPlatformChosen &&
           state.platform == device_->platform() &&
           state.circuit.num_qubits() <= device_->num_qubits();
  }

  void apply(CompilationState& state, std::uint64_t) const override {
    state.device = device_;
  }

 private:
  const device::Device* device_;
};

class SynthesisAction final : public Action {
 public:
  SynthesisAction() : Action("BasisTranslator", ActionType::kSynthesis) {}

  bool valid(const CompilationState&, MdpState mdp) const override {
    // DeviceChosen is the state of a device pick whose circuit is not yet
    // native (an all-native circuit is OnlyNativeGates or Done).
    return mdp == MdpState::kDeviceChosen;
  }

  void apply(CompilationState& state, std::uint64_t seed) const override {
    passes::PassContext ctx;
    ctx.device = state.device;
    ctx.is_mapped = state.is_mapped();
    ctx.seed = seed;
    const passes::BasisTranslator translator;
    (void)translator.run(state.circuit, ctx);
  }
};

class LayoutAction final : public Action {
 public:
  explicit LayoutAction(passes::LayoutKind kind)
      : Action(std::string(passes::layout_name(kind)), ActionType::kLayout),
        kind_(kind) {}

  bool valid(const CompilationState& state, MdpState) const override {
    return state.device != nullptr && !state.layout_applied;
  }

  void apply(CompilationState& state, std::uint64_t seed) const override {
    const auto layout =
        passes::compute_layout(kind_, state.circuit, *state.device, seed);
    state.circuit = passes::apply_layout(state.circuit, layout, *state.device);
    state.initial_layout = layout;
    state.final_layout = layout;
    state.layout_applied = true;
  }

 private:
  passes::LayoutKind kind_;
};

class RoutingAction final : public Action {
 public:
  explicit RoutingAction(passes::RoutingKind kind)
      : Action(std::string(passes::routing_name(kind)), ActionType::kRouting),
        kind_(kind) {}

  bool valid(const CompilationState& state, MdpState mdp) const override {
    // Routing needs a placement, a 2q-only circuit, and unresolved
    // connectivity. Done means mapped and OnlyNativeGates means unmapped;
    // only DeviceChosen leaves the topology to check.
    return state.device != nullptr && state.layout_applied &&
           mdp != MdpState::kDone &&
           state.circuit.max_gate_arity_at_most(2) &&
           (mdp == MdpState::kOnlyNativeGates || !state.is_mapped());
  }

  void apply(CompilationState& state, std::uint64_t seed) const override {
    const auto outcome =
        passes::route(kind_, state.circuit, *state.device, seed);
    state.circuit = outcome.routed;
    // Compose the routing permutation onto the tracked final layout.
    for (int l = 0; l < static_cast<int>(state.final_layout.size()); ++l) {
      state.final_layout[static_cast<std::size_t>(l)] =
          outcome.permutation[static_cast<std::size_t>(
              state.final_layout[static_cast<std::size_t>(l)])];
    }
  }

 private:
  passes::RoutingKind kind_;
};

class OptimizationAction final : public Action {
 public:
  explicit OptimizationAction(std::unique_ptr<passes::Pass> pass)
      : Action(std::string(pass->name()), ActionType::kOptimization),
        pass_(std::move(pass)) {}

  bool valid(const CompilationState&, MdpState mdp) const override {
    // Optimizations are valid in every non-terminal state (the blue arrows
    // of Fig. 2).
    return mdp != MdpState::kDone;
  }

  void apply(CompilationState& state, std::uint64_t seed) const override {
    passes::PassContext ctx;
    ctx.device = state.device;
    ctx.is_mapped = state.is_mapped();
    ctx.seed = seed;
    (void)pass_->run(state.circuit, ctx);
  }

 private:
  std::unique_ptr<passes::Pass> pass_;
};

}  // namespace

std::string_view action_type_name(ActionType type) {
  switch (type) {
    case ActionType::kPlatformSelection:
      return "platform";
    case ActionType::kDeviceSelection:
      return "device";
    case ActionType::kSynthesis:
      return "synthesis";
    case ActionType::kLayout:
      return "layout";
    case ActionType::kRouting:
      return "routing";
    case ActionType::kOptimization:
      return "optimization";
  }
  return "unknown";
}

ActionRegistry::ActionRegistry() {
  using device::DeviceId;
  using device::Platform;
  // Platforms (4).
  for (const Platform p : {Platform::kIBM, Platform::kRigetti,
                           Platform::kIonQ, Platform::kOQC}) {
    actions_.push_back(std::make_unique<PlatformAction>(p));
  }
  // Devices (5).
  for (const DeviceId id :
       {DeviceId::kIbmqMontreal, DeviceId::kIbmqWashington,
        DeviceId::kRigettiAspenM2, DeviceId::kIonqHarmony,
        DeviceId::kOqcLucy}) {
    actions_.push_back(std::make_unique<DeviceAction>(id));
  }
  // Synthesis (1).
  actions_.push_back(std::make_unique<SynthesisAction>());
  // Layouts (3).
  for (const auto kind :
       {passes::LayoutKind::kTrivial, passes::LayoutKind::kDense,
        passes::LayoutKind::kSabre}) {
    actions_.push_back(std::make_unique<LayoutAction>(kind));
  }
  // Routings (4).
  for (const auto kind :
       {passes::RoutingKind::kBasicSwap, passes::RoutingKind::kStochasticSwap,
        passes::RoutingKind::kSabreSwap, passes::RoutingKind::kTketRouting}) {
    actions_.push_back(std::make_unique<RoutingAction>(kind));
  }
  // Optimizations (12) — Qiskit's eight, then TKET's four.
  actions_.push_back(std::make_unique<OptimizationAction>(
      std::make_unique<passes::Optimize1qGatesDecomposition>()));
  actions_.push_back(std::make_unique<OptimizationAction>(
      std::make_unique<passes::CXCancellation>()));
  actions_.push_back(std::make_unique<OptimizationAction>(
      std::make_unique<passes::CommutativeCancellation>()));
  actions_.push_back(std::make_unique<OptimizationAction>(
      std::make_unique<passes::CommutativeInverseCancellation>()));
  actions_.push_back(std::make_unique<OptimizationAction>(
      std::make_unique<passes::RemoveDiagonalGatesBeforeMeasure>()));
  actions_.push_back(std::make_unique<OptimizationAction>(
      std::make_unique<passes::InverseCancellation>()));
  actions_.push_back(std::make_unique<OptimizationAction>(
      std::make_unique<passes::OptimizeCliffords>()));
  actions_.push_back(std::make_unique<OptimizationAction>(
      std::make_unique<passes::ConsolidateBlocks>()));
  actions_.push_back(std::make_unique<OptimizationAction>(
      std::make_unique<passes::PeepholeOptimise2Q>()));
  actions_.push_back(std::make_unique<OptimizationAction>(
      std::make_unique<passes::CliffordSimp>()));
  actions_.push_back(std::make_unique<OptimizationAction>(
      std::make_unique<passes::FullPeepholeOptimise>()));
  actions_.push_back(std::make_unique<OptimizationAction>(
      std::make_unique<passes::RemoveRedundancies>()));
}

std::vector<bool> ActionRegistry::mask(const CompilationState& state) const {
  return mask(state, state.state());
}

std::vector<bool> ActionRegistry::mask(const CompilationState& state,
                                       MdpState mdp) const {
  std::vector<bool> out(actions_.size());
  for (std::size_t i = 0; i < actions_.size(); ++i) {
    out[i] = actions_[i]->valid(state, mdp);
  }
  return out;
}

int ActionRegistry::index_of(std::string_view name) const {
  for (std::size_t i = 0; i < actions_.size(); ++i) {
    if (actions_[i]->name() == name) {
      return static_cast<int>(i);
    }
  }
  throw std::invalid_argument("ActionRegistry: unknown action '" +
                              std::string(name) + "'");
}

const ActionRegistry& ActionRegistry::instance() {
  static const ActionRegistry kRegistry;
  return kRegistry;
}

}  // namespace qrc::core

#include "core/compilation_state.hpp"

namespace qrc::core {

std::string_view mdp_state_name(MdpState state) {
  switch (state) {
    case MdpState::kStart:
      return "Start";
    case MdpState::kPlatformChosen:
      return "PlatformChosen";
    case MdpState::kDeviceChosen:
      return "DeviceChosen";
    case MdpState::kOnlyNativeGates:
      return "OnlyNativeGates";
    case MdpState::kDone:
      return "Done";
  }
  return "unknown";
}

bool CompilationState::is_native() const {
  return platform.has_value() && device::circuit_is_native(*platform, circuit);
}

bool CompilationState::is_mapped() const {
  if (device == nullptr || !layout_applied) {
    return false;
  }
  return device->circuit_respects_topology(circuit);
}

MdpState CompilationState::state() const {
  if (!platform.has_value()) {
    return MdpState::kStart;
  }
  if (device == nullptr) {
    return MdpState::kPlatformChosen;
  }
  const bool native = is_native();
  const bool mapped = is_mapped();
  if (native && mapped) {
    return MdpState::kDone;
  }
  if (native) {
    return MdpState::kOnlyNativeGates;
  }
  return MdpState::kDeviceChosen;
}

}  // namespace qrc::core

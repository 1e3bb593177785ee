/// \file library.hpp
/// \brief The device zoo evaluated in the paper: two IBM machines, one
///        Rigetti, one IonQ and one OQC machine.
#pragma once

#include <memory>
#include <string_view>
#include <vector>

#include "device/device.hpp"

namespace qrc::device {

/// Identifiers of the five devices from the paper's Section IV-A.
enum class DeviceId : std::uint8_t {
  kIbmqMontreal,    ///< IBM, 27 qubits, heavy hex
  kIbmqWashington,  ///< IBM, 127 qubits, heavy hex (Eagle)
  kRigettiAspenM2,  ///< Rigetti, 80 qubits, octagonal lattice
  kIonqHarmony,     ///< IonQ, 11 qubits, all-to-all
  kOqcLucy,         ///< OQC, 8 qubits, ring
};

inline constexpr int kNumDevices = 5;

/// Shared immutable instance for `id` (devices are expensive to build —
/// the 127-qubit distance matrix — so they are constructed once).
[[nodiscard]] const Device& get_device(DeviceId id);

/// All five devices in declaration order.
[[nodiscard]] const std::vector<const Device*>& all_devices();

/// Lookup by name ("ibmq_montreal", ...); throws on unknown name.
[[nodiscard]] const Device& device_by_name(std::string_view name);

}  // namespace qrc::device

#include "device/library.hpp"

#include <array>
#include <stdexcept>
#include <string>

namespace qrc::device {

namespace {

/// The 27-qubit IBM Falcon heavy-hex coupling list (ibmq_montreal family).
CouplingMap montreal_coupling() {
  return CouplingMap(
      27, {{0, 1},   {1, 2},   {1, 4},   {2, 3},   {3, 5},   {4, 7},
           {5, 8},   {6, 7},   {7, 10},  {8, 9},   {8, 11},  {10, 12},
           {11, 14}, {12, 13}, {12, 15}, {13, 14}, {14, 16}, {15, 18},
           {16, 19}, {17, 18}, {18, 21}, {19, 20}, {19, 22}, {21, 23},
           {22, 25}, {23, 24}, {24, 25}, {25, 26}});
}

Device make_device(DeviceId id) {
  switch (id) {
    case DeviceId::kIbmqMontreal:
      return Device("ibmq_montreal", Platform::kIBM, montreal_coupling(),
                    0xA0D1u);
    case DeviceId::kIbmqWashington:
      // Eagle-style heavy hex: 7 rows of 15 with 24 bridges = 127 qubits.
      return Device("ibmq_washington", Platform::kIBM,
                    CouplingMap::heavy_hex(7, 15), 0xA0D2u);
    case DeviceId::kRigettiAspenM2:
      // Two rows of five octagons = 80 qubits.
      return Device("rigetti_aspen_m2", Platform::kRigetti,
                    CouplingMap::octagonal(2, 5), 0xA0D3u);
    case DeviceId::kIonqHarmony:
      return Device("ionq_harmony", Platform::kIonQ,
                    CouplingMap::fully_connected(11), 0xA0D4u);
    case DeviceId::kOqcLucy:
      return Device("oqc_lucy", Platform::kOQC, CouplingMap::ring(8),
                    0xA0D5u);
  }
  throw std::invalid_argument("make_device: unknown id");
}

}  // namespace

const Device& get_device(DeviceId id) {
  static const std::array<Device, kNumDevices> kDevices = {
      make_device(DeviceId::kIbmqMontreal),
      make_device(DeviceId::kIbmqWashington),
      make_device(DeviceId::kRigettiAspenM2),
      make_device(DeviceId::kIonqHarmony),
      make_device(DeviceId::kOqcLucy)};
  return kDevices[static_cast<std::size_t>(id)];
}

const std::vector<const Device*>& all_devices() {
  static const std::vector<const Device*> kAll = {
      &get_device(DeviceId::kIbmqMontreal),
      &get_device(DeviceId::kIbmqWashington),
      &get_device(DeviceId::kRigettiAspenM2),
      &get_device(DeviceId::kIonqHarmony),
      &get_device(DeviceId::kOqcLucy)};
  return kAll;
}

const Device& device_by_name(std::string_view name) {
  for (const Device* d : all_devices()) {
    if (d->name() == name) {
      return *d;
    }
  }
  throw std::invalid_argument("device_by_name: unknown device '" +
                              std::string(name) + "'");
}

}  // namespace qrc::device

// MMIO device plumbing: the device interface, the bus that dispatches CPU
// accesses to devices, and the guest-physical layout of device windows.

#ifndef SRC_DEVICES_MMIO_H_
#define SRC_DEVICES_MMIO_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "src/cpu/context.h"
#include "src/util/byte_stream.h"
#include "src/util/status.h"

namespace hyperion::devices {

// Guest-physical layout of the MMIO window.
inline constexpr uint32_t kUartBase = 0xF0000000u;
inline constexpr uint32_t kPicBase = 0xF0001000u;
inline constexpr uint32_t kBlkBase = 0xF0010000u;
inline constexpr uint32_t kNetBase = 0xF0020000u;
inline constexpr uint32_t kVirtioBase = 0xF0100000u;  // + slot * kVirtioStride
inline constexpr uint32_t kVirtioStride = 0x1000u;
inline constexpr uint32_t kDeviceWindow = 0x1000u;

// Interrupt line assignments on the platform interrupt controller.
inline constexpr uint8_t kUartIrq = 0;
inline constexpr uint8_t kBlkIrq = 1;
inline constexpr uint8_t kNetIrq = 2;
inline constexpr uint8_t kVirtioIrqBase = 8;  // + slot

// A memory-mapped device. Offsets are relative to the device's base; sizes
// are 1, 2 or 4 bytes. Devices are register-oriented: sub-word accesses are
// legal only where a device says so (most registers are word-only).
//
// Write carries the caller's phase token (doorbells raise interrupts and
// schedule completions, which must stage from a slice). Deserialize happens
// only between rounds — snapshot restore — so it demands a direct token.
class MmioDevice {
 public:
  virtual ~MmioDevice() = default;

  virtual std::string_view name() const = 0;
  virtual Result<uint32_t> Read(uint32_t offset, uint32_t size) = 0;
  virtual Status Write(const Phase& ph, uint32_t offset, uint32_t size, uint32_t value) = 0;

  // Snapshot hooks: serialize register state (not backing storage — disk
  // contents snapshot separately via HVD overlays).
  virtual void Serialize(ByteWriter& w) const { (void)w; }
  virtual Status Deserialize(const DirectPhase& ph, ByteReader& r) {
    (void)ph;
    (void)r;
    return OkStatus();
  }
};

// Routes CPU MMIO accesses to mapped devices. Unmapped accesses return
// NOT_FOUND, which the CPU surfaces to the guest as a bus fault.
class MmioBus final : public cpu::MmioHandler {
 public:
  Status Map(uint32_t base, uint32_t size, MmioDevice* device);

  Result<uint32_t> MmioRead(uint32_t gpa, uint32_t size) override;
  Status MmioWrite(const Phase& ph, uint32_t gpa, uint32_t size, uint32_t value) override;

  // Devices in mapping order (used by snapshot to serialize device state).
  const std::vector<MmioDevice*>& devices() const { return device_list_; }

 private:
  struct Region {
    uint32_t base;
    uint32_t size;
    MmioDevice* device;
  };

  MmioDevice* Find(uint32_t gpa, uint32_t* offset);

  std::vector<Region> regions_;
  std::vector<MmioDevice*> device_list_;
};

}  // namespace hyperion::devices

#endif  // SRC_DEVICES_MMIO_H_

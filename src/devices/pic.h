// Platform interrupt controller.
//
// Devices assert numbered lines; the PIC latches them into PENDING and
// drives the vCPU's external-interrupt input whenever (PENDING & ENABLE)
// is nonzero. The guest claims the lowest pending enabled line via CLAIM
// and acknowledges with a write-1-to-clear ACK.
//
// Register map (word access):
//   0x00 PENDING (RO)   latched lines
//   0x04 ENABLE  (RW)   per-line mask
//   0x08 ACK     (W1C)  clear pending bits
//   0x0C RAISE   (WO)   software-set pending bits (tests)
//   0x10 CLAIM   (RO)   lowest pending&enabled line, 0xFFFFFFFF if none
//
// Inter-processor interrupts use a separate per-vCPU doorbell bank: each bit
// of IPI_PENDING belongs to one vCPU and drives that vCPU's software-
// interrupt input as a level. Raising an already-pending bit coalesces (no
// new edge); the target clears its own bit once the IPI is handled.
//
//   0x14 IPI_RAISE   (WO)   bitmask of target vCPUs to interrupt
//   0x18 IPI_PENDING (RO)   per-vCPU doorbell bits
//   0x1C IPI_ACK     (W1C)  clear doorbell bits (targets write 1 << hartid)

#ifndef SRC_DEVICES_PIC_H_
#define SRC_DEVICES_PIC_H_

#include <functional>

#include "src/devices/mmio.h"

namespace hyperion::devices {

class InterruptController final : public MmioDevice {
 public:
  // `sink` is invoked with the level of the external-interrupt output
  // whenever it may have changed (the VMM wires it to the vCPU's IPEND bit).
  // It receives the phase of the access that moved the level so downstream
  // effects (vCPU wakes) stage or act accordingly.
  using LevelSink = std::function<void(const Phase& ph, bool level)>;

  // `ipi_sink` is invoked once per vCPU whose doorbell level changed (the VMM
  // wires it to that vCPU's software-interrupt IPEND bit). Coalesced raises
  // (bit already pending) produce no call.
  using IpiSink = std::function<void(const Phase& ph, uint32_t vcpu, bool level)>;

  void SetSink(LevelSink sink) { sink_ = std::move(sink); }
  void SetIpiSink(IpiSink sink) { ipi_sink_ = std::move(sink); }

  // Device-side line assertion (edge-latched into PENDING).
  void Assert(const Phase& ph, uint8_t line);

  std::string_view name() const override { return "pic"; }
  Result<uint32_t> Read(uint32_t offset, uint32_t size) override;
  Status Write(const Phase& ph, uint32_t offset, uint32_t size, uint32_t value) override;

  void Serialize(ByteWriter& w) const override;
  Status Deserialize(const DirectPhase& ph, ByteReader& r) override;

  uint32_t pending() const { return pending_; }
  uint32_t enable() const { return enable_; }
  uint32_t ipi_pending() const { return ipi_pending_; }

 private:
  void UpdateLevel(const Phase& ph);
  void UpdateIpiLevels(const Phase& ph, uint32_t before);

  uint32_t pending_ = 0;
  uint32_t enable_ = 0;
  uint32_t ipi_pending_ = 0;
  LevelSink sink_;
  IpiSink ipi_sink_;
};

// A device's handle to one PIC line.
class IrqLine {
 public:
  IrqLine() = default;
  IrqLine(InterruptController* pic, uint8_t line) : pic_(pic), line_(line) {}

  void Assert(const Phase& ph) {
    if (pic_ != nullptr) {
      pic_->Assert(ph, line_);
    }
  }

 private:
  InterruptController* pic_ = nullptr;
  uint8_t line_ = 0;
};

}  // namespace hyperion::devices

#endif  // SRC_DEVICES_PIC_H_

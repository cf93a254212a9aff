// UART console device.
//
// Register map (word access):
//   0x00 TX     (WO) transmit one byte (low 8 bits)
//   0x04 RX     (RO) pop one received byte; 0 when empty
//   0x08 STATUS (RO) bit0 = rx available, bit1 = tx ready (always set)
//   0x0C IRQEN  (RW) bit0 = raise the UART line on rx availability

#ifndef SRC_DEVICES_UART_H_
#define SRC_DEVICES_UART_H_

#include <deque>
#include <string>

#include "src/devices/pic.h"

namespace hyperion::devices {

class Uart final : public MmioDevice {
 public:
  explicit Uart(IrqLine irq = IrqLine()) : irq_(irq) {}

  std::string_view name() const override { return "uart"; }
  Result<uint32_t> Read(uint32_t offset, uint32_t size) override;
  Status Write(const Phase& ph, uint32_t offset, uint32_t size, uint32_t value) override;

  void Serialize(ByteWriter& w) const override;
  Status Deserialize(const DirectPhase& ph, ByteReader& r) override;

  // Host side: everything the guest has transmitted.
  const std::string& output() const { return output_; }
  void ClearOutput() { output_.clear(); }

  // Host side: feed input to the guest (may raise the rx interrupt line).
  void InjectInput(const Phase& ph, std::string_view text);

 private:
  IrqLine irq_;
  std::string output_;
  std::deque<uint8_t> rx_;
  bool rx_irq_enabled_ = false;
};

}  // namespace hyperion::devices

#endif  // SRC_DEVICES_UART_H_

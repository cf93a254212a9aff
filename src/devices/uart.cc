#include "src/devices/uart.h"

namespace hyperion::devices {

Result<uint32_t> Uart::Read(uint32_t offset, uint32_t size) {
  (void)size;  // byte and word reads behave identically on these registers
  switch (offset) {
    case 0x04: {
      if (rx_.empty()) {
        return uint32_t{0};
      }
      uint32_t b = rx_.front();
      rx_.pop_front();
      return b;
    }
    case 0x08:
      return static_cast<uint32_t>((rx_.empty() ? 0 : 1) | 2);
    case 0x0C:
      return static_cast<uint32_t>(rx_irq_enabled_ ? 1 : 0);
    default:
      return NotFoundError("bad uart register");
  }
}

Status Uart::Write(const Phase& ph, uint32_t offset, uint32_t size, uint32_t value) {
  (void)size;
  (void)ph;  // uart writes have no cross-VM side effects
  switch (offset) {
    case 0x00:
      output_.push_back(static_cast<char>(value & 0xFF));
      return OkStatus();
    case 0x0C:
      rx_irq_enabled_ = (value & 1) != 0;
      return OkStatus();
    default:
      return NotFoundError("bad uart register");
  }
}

void Uart::InjectInput(const Phase& ph, std::string_view text) {
  for (char c : text) {
    rx_.push_back(static_cast<uint8_t>(c));
  }
  if (rx_irq_enabled_ && !rx_.empty()) {
    irq_.Assert(ph);
  }
}

void Uart::Serialize(ByteWriter& w) const {
  w.WriteString(output_);
  w.WriteU32(static_cast<uint32_t>(rx_.size()));
  for (uint8_t b : rx_) {
    w.WriteU8(b);
  }
  w.WriteU8(rx_irq_enabled_ ? 1 : 0);
}

Status Uart::Deserialize(const DirectPhase&, ByteReader& r) {
  HYP_ASSIGN_OR_RETURN(output_, r.ReadString());
  HYP_ASSIGN_OR_RETURN(uint32_t n, r.ReadU32());
  rx_.clear();
  for (uint32_t i = 0; i < n; ++i) {
    HYP_ASSIGN_OR_RETURN(uint8_t b, r.ReadU8());
    rx_.push_back(b);
  }
  HYP_ASSIGN_OR_RETURN(uint8_t en, r.ReadU8());
  rx_irq_enabled_ = en != 0;
  return OkStatus();
}

}  // namespace hyperion::devices

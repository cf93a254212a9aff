#include "src/devices/pic.h"

#include <bit>

namespace hyperion::devices {

void InterruptController::Assert(const Phase& ph, uint8_t line) {
  pending_ |= 1u << line;
  UpdateLevel(ph);
}

Result<uint32_t> InterruptController::Read(uint32_t offset, uint32_t size) {
  if (size != 4) {
    return InvalidArgumentError("pic registers are word-only");
  }
  switch (offset) {
    case 0x00:
      return pending_;
    case 0x04:
      return enable_;
    case 0x10: {
      uint32_t active = pending_ & enable_;
      return active == 0 ? 0xFFFFFFFFu : static_cast<uint32_t>(std::countr_zero(active));
    }
    case 0x18:
      return ipi_pending_;
    default:
      return NotFoundError("bad pic register");
  }
}

Status InterruptController::Write(const Phase& ph, uint32_t offset, uint32_t size,
                                  uint32_t value) {
  if (size != 4) {
    return InvalidArgumentError("pic registers are word-only");
  }
  switch (offset) {
    case 0x04:
      enable_ = value;
      break;
    case 0x08:
      pending_ &= ~value;
      break;
    case 0x0C:
      pending_ |= value;
      break;
    case 0x14:
    case 0x1C: {
      uint32_t before = ipi_pending_;
      if (offset == 0x14) {
        ipi_pending_ |= value;
      } else {
        ipi_pending_ &= ~value;
      }
      UpdateIpiLevels(ph, before);
      return OkStatus();
    }
    default:
      return NotFoundError("bad pic register");
  }
  UpdateLevel(ph);
  return OkStatus();
}

void InterruptController::UpdateLevel(const Phase& ph) {
  if (sink_) {
    sink_(ph, (pending_ & enable_) != 0);
  }
}

void InterruptController::UpdateIpiLevels(const Phase& ph, uint32_t before) {
  if (!ipi_sink_) {
    return;
  }
  uint32_t changed = before ^ ipi_pending_;
  while (changed != 0) {
    uint32_t vcpu = static_cast<uint32_t>(std::countr_zero(changed));
    changed &= changed - 1;
    ipi_sink_(ph, vcpu, (ipi_pending_ >> vcpu) & 1u);
  }
}

void InterruptController::Serialize(ByteWriter& w) const {
  w.WriteU32(pending_);
  w.WriteU32(enable_);
  w.WriteU32(ipi_pending_);
}

Status InterruptController::Deserialize(const DirectPhase& ph, ByteReader& r) {
  HYP_ASSIGN_OR_RETURN(pending_, r.ReadU32());
  HYP_ASSIGN_OR_RETURN(enable_, r.ReadU32());
  uint32_t before = ipi_pending_;
  HYP_ASSIGN_OR_RETURN(ipi_pending_, r.ReadU32());
  UpdateLevel(ph);
  // Re-fire every doorbell whose level differs from the pre-restore state so
  // a VM restored mid-shootdown re-raises (or clears) each sibling's
  // software-interrupt line; no vCPU is left spinning on a dead ack.
  UpdateIpiLevels(ph, before);
  return OkStatus();
}

}  // namespace hyperion::devices

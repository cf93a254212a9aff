#include "src/devices/emulated_blk.h"

#include <cstring>

namespace hyperion::devices {

Result<uint32_t> EmulatedBlockDevice::Read(uint32_t offset, uint32_t size) {
  if (size != 4) {
    return InvalidArgumentError("blk registers are word-only");
  }
  switch (offset) {
    case 0x00:
      return lba_;
    case 0x04:
      return count_;
    case 0x0C:
      return static_cast<uint32_t>((busy_ ? 1 : 0) | (data_ready_ ? 2 : 0) | (error_ ? 4 : 0));
    case 0x10: {
      if (busy_ || data_ptr_ + 4 > count_ * 512) {
        return FailedPreconditionError("data port read outside a transfer");
      }
      uint32_t v;
      std::memcpy(&v, buffer_.data() + data_ptr_, 4);
      data_ptr_ += 4;
      return v;
    }
    default:
      return NotFoundError("bad blk register");
  }
}

Status EmulatedBlockDevice::Write(const Phase& ph, uint32_t offset, uint32_t size,
                                  uint32_t value) {
  if (size != 4) {
    return InvalidArgumentError("blk registers are word-only");
  }
  switch (offset) {
    case 0x00:
      lba_ = value;
      return OkStatus();
    case 0x04:
      if (value == 0 || value > kMaxSectorsPerCmd) {
        return InvalidArgumentError("bad sector count");
      }
      count_ = value;
      return OkStatus();
    case 0x08:
      if (busy_) {
        return FailedPreconditionError("command while busy");
      }
      if (value != 1 && value != 2) {
        error_ = true;
        return OkStatus();
      }
      StartCommand(ph, value);
      return OkStatus();
    case 0x10: {
      if (busy_ || data_ptr_ + 4 > count_ * 512) {
        return FailedPreconditionError("data port write outside a transfer");
      }
      std::memcpy(buffer_.data() + data_ptr_, &value, 4);
      data_ptr_ += 4;
      return OkStatus();
    }
    case 0x14:
      data_ready_ = false;
      error_ = false;
      data_ptr_ = 0;
      return OkStatus();
    default:
      return NotFoundError("bad blk register");
  }
}

void EmulatedBlockDevice::StartCommand(const Phase& ph, uint32_t cmd) {
  busy_ = true;
  error_ = false;
  data_ptr_ = 0;
  clock_.ScheduleAfter(ph, static_cast<SimTime>(count_) * kCosts.blk_sector_cost,
                       [this, cmd](const SerialPhase& sp) { CompleteCommand(sp, cmd); });
}

void EmulatedBlockDevice::CompleteCommand(const SerialPhase& ph, uint32_t cmd) {
  Status st;
  if (cmd == 1) {
    st = store_->ReadSectors(lba_, count_, buffer_.data());
    ++stats_.reads;
  } else {
    st = store_->WriteSectors(lba_, count_, buffer_.data());
    ++stats_.writes;
  }
  stats_.sectors += count_;
  busy_ = false;
  error_ = !st.ok();
  data_ready_ = st.ok();
  irq_.Assert(ph);
}

void EmulatedBlockDevice::Serialize(ByteWriter& w) const {
  w.WriteU32(lba_);
  w.WriteU32(count_);
  w.WriteU8(static_cast<uint8_t>((busy_ ? 1 : 0) | (data_ready_ ? 2 : 0) | (error_ ? 4 : 0)));
  w.WriteU32(data_ptr_);
  w.WriteBlob(buffer_);
}

Status EmulatedBlockDevice::Deserialize(const DirectPhase&, ByteReader& r) {
  HYP_ASSIGN_OR_RETURN(lba_, r.ReadU32());
  HYP_ASSIGN_OR_RETURN(count_, r.ReadU32());
  HYP_ASSIGN_OR_RETURN(uint8_t flags, r.ReadU8());
  busy_ = flags & 1;
  data_ready_ = flags & 2;
  error_ = flags & 4;
  HYP_ASSIGN_OR_RETURN(data_ptr_, r.ReadU32());
  HYP_ASSIGN_OR_RETURN(buffer_, r.ReadBlob());
  if (buffer_.size() != kMaxSectorsPerCmd * 512) {
    return DataLossError("blk buffer size mismatch");
  }
  return OkStatus();
}

}  // namespace hyperion::devices

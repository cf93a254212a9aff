#include "src/devices/emulated_net.h"

#include <cstring>

namespace hyperion::devices {

Result<uint32_t> EmulatedNetDevice::Read(uint32_t offset, uint32_t size) {
  if (size != 4) {
    return InvalidArgumentError("net registers are word-only");
  }
  switch (offset) {
    case 0x00:
      return tx_len_;
    case 0x04:
      return tx_dst_;
    case 0x0C:
      return static_cast<uint32_t>((rx_queue_.empty() ? 0 : 1) | (rx_valid_ ? 2 : 0));
    case 0x10: {
      if (!rx_valid_ || data_ptr_ + 4 > rx_buf_.size()) {
        return FailedPreconditionError("rx data read without a latched frame");
      }
      uint32_t v;
      std::memcpy(&v, rx_buf_.data() + data_ptr_, 4);
      data_ptr_ += 4;
      return v;
    }
    case 0x14:
      return rx_valid_ ? static_cast<uint32_t>(rx_latched_.payload.size()) : 0;
    case 0x18:
      return rx_valid_ ? rx_latched_.src : 0;
    default:
      return NotFoundError("bad net register");
  }
}

Status EmulatedNetDevice::Write(const Phase& ph, uint32_t offset, uint32_t size,
                                uint32_t value) {
  if (size != 4) {
    return InvalidArgumentError("net registers are word-only");
  }
  switch (offset) {
    case 0x00:
      if (value > kBufBytes) {
        return InvalidArgumentError("tx length exceeds buffer");
      }
      tx_len_ = value;
      return OkStatus();
    case 0x04:
      tx_dst_ = value;
      return OkStatus();
    case 0x08:
      if (value == 1) {
        net::Frame f;
        f.src = addr_;
        f.dst = tx_dst_;
        f.payload.Assign(tx_.data(), tx_len_);
        switch_->Transmit(ph, std::move(f));
        ++stats_.tx_frames;
        data_ptr_ = 0;
        return OkStatus();
      }
      if (value == 2) {
        if (rx_queue_.empty()) {
          rx_valid_ = false;
          return OkStatus();
        }
        rx_latched_ = std::move(rx_queue_.front());
        rx_queue_.pop_front();
        std::memset(rx_buf_.data(), 0, rx_buf_.size());
        rx_latched_.payload.CopyTo(rx_buf_.data(), rx_buf_.size());
        rx_valid_ = true;
        data_ptr_ = 0;
        return OkStatus();
      }
      return InvalidArgumentError("bad net command");
    case 0x10: {
      if (data_ptr_ + 4 > tx_.size()) {
        return FailedPreconditionError("tx data write past buffer");
      }
      std::memcpy(tx_.data() + data_ptr_, &value, 4);
      data_ptr_ += 4;
      return OkStatus();
    }
    case 0x1C:
      data_ptr_ = 0;
      return OkStatus();
    default:
      return NotFoundError("bad net register");
  }
}

void EmulatedNetDevice::OnFrame(const SerialPhase& ph, const net::Frame& frame) {
  if (frame.payload.size() > kBufBytes || rx_queue_.size() >= 64) {
    ++stats_.rx_dropped;
    return;
  }
  rx_queue_.push_back(frame);
  ++stats_.rx_frames;
  irq_.Assert(ph);
}

}  // namespace hyperion::devices

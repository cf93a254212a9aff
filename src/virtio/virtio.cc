#include "src/virtio/virtio.h"

namespace hyperion::virtio {

namespace {

// Ring field offsets.
constexpr uint32_t kAvailIdxOff = 2;
constexpr uint32_t kAvailRingOff = 4;
constexpr uint32_t kUsedIdxOff = 2;
constexpr uint32_t kUsedRingOff = 4;
constexpr uint32_t kUsedElemBytes = 8;

}  // namespace

Result<bool> VirtQueue::HasWork(mem::GuestMemory& memory) const {
  if (!ready()) {
    return false;
  }
  HYP_ASSIGN_OR_RETURN(uint16_t avail_idx, memory.ReadU16(avail_gpa_ + kAvailIdxOff));
  return avail_idx != last_avail_;
}

Result<Chain> VirtQueue::Pop(mem::GuestMemory& memory) {
  if (!ready()) {
    return FailedPreconditionError("queue not ready");
  }
  HYP_ASSIGN_OR_RETURN(uint16_t avail_idx, memory.ReadU16(avail_gpa_ + kAvailIdxOff));
  if (avail_idx == last_avail_) {
    return NotFoundError("no pending chains");
  }
  uint16_t slot = last_avail_ % size_;
  HYP_ASSIGN_OR_RETURN(uint16_t head,
                       memory.ReadU16(avail_gpa_ + kAvailRingOff + slot * 2u));
  ++last_avail_;

  Chain chain;
  chain.head = head;
  uint16_t idx = head;
  for (uint32_t hops = 0; hops <= size_; ++hops) {
    if (idx >= size_) {
      return DataLossError("descriptor index out of range");
    }
    uint32_t d = desc_gpa_ + idx * kDescBytes;
    ChainElem elem;
    HYP_ASSIGN_OR_RETURN(elem.gpa, memory.ReadU32(d));
    HYP_ASSIGN_OR_RETURN(elem.len, memory.ReadU32(d + 4));
    HYP_ASSIGN_OR_RETURN(uint16_t flags, memory.ReadU16(d + 8));
    HYP_ASSIGN_OR_RETURN(uint16_t next, memory.ReadU16(d + 10));
    elem.device_writes = flags & kDescWrite;
    chain.elems.push_back(elem);
    if (!(flags & kDescNext)) {
      return chain;
    }
    idx = next;
  }
  return DataLossError("descriptor chain loops");
}

Status VirtQueue::PushUsed(mem::GuestMemory& memory, uint16_t head, uint32_t written) {
  uint16_t slot = used_idx_ % size_;
  uint32_t e = used_gpa_ + kUsedRingOff + slot * kUsedElemBytes;
  HYP_RETURN_IF_ERROR(memory.WriteU32(e, head));
  HYP_RETURN_IF_ERROR(memory.WriteU32(e + 4, written));
  ++used_idx_;
  return memory.WriteU16(used_gpa_ + kUsedIdxOff, used_idx_);
}

Result<uint32_t> VirtioDevice::Read(uint32_t offset, uint32_t size) {
  if (size != 4) {
    return InvalidArgumentError("virtio registers are word-only");
  }
  switch (offset) {
    case 0x00:
      return device_id_;
    case 0x08:
      return static_cast<uint32_t>(queue(queue_sel_).size());
    case 0x0C:
      return queue(queue_sel_).desc_gpa();
    case 0x10:
      return queue(queue_sel_).avail_gpa();
    case 0x14:
      return queue(queue_sel_).used_gpa();
    case 0x18:
      return static_cast<uint32_t>(queue(queue_sel_).ready() ? 1 : 0);
    case 0x20:
      return isr_;
    case 0x28:
      return device_status_;
    case 0x2C:
      return features_;
    default:
      return NotFoundError("bad virtio register");
  }
}

Status VirtioDevice::Write(const Phase& ph, uint32_t offset, uint32_t size, uint32_t value) {
  if (size != 4) {
    return InvalidArgumentError("virtio registers are word-only");
  }
  switch (offset) {
    case 0x04:
      if (value >= queues_.size()) {
        return InvalidArgumentError("queue_sel out of range");
      }
      queue_sel_ = static_cast<uint16_t>(value);
      return OkStatus();
    case 0x08: {
      if (value == 0 || value > kMaxQueueSize || (value & (value - 1)) != 0) {
        return InvalidArgumentError("queue size must be a power of two <= 256");
      }
      VirtQueue& q = queue(queue_sel_);
      q.Configure(q.desc_gpa(), q.avail_gpa(), q.used_gpa(), static_cast<uint16_t>(value));
      return OkStatus();
    }
    case 0x0C: {
      VirtQueue& q = queue(queue_sel_);
      q.Configure(value, q.avail_gpa(), q.used_gpa(), q.size());
      return OkStatus();
    }
    case 0x10: {
      VirtQueue& q = queue(queue_sel_);
      q.Configure(q.desc_gpa(), value, q.used_gpa(), q.size());
      return OkStatus();
    }
    case 0x14: {
      VirtQueue& q = queue(queue_sel_);
      q.Configure(q.desc_gpa(), q.avail_gpa(), value, q.size());
      return OkStatus();
    }
    case 0x18:
      queue(queue_sel_).set_ready(value != 0);
      if (value != 0) {
        OnQueueReady(ph, queue_sel_);
      }
      return OkStatus();
    case 0x1C:
      if (value >= queues_.size()) {
        return InvalidArgumentError("notify queue out of range");
      }
      return Kick(ph, static_cast<uint16_t>(value));
    case 0x24:
      isr_ &= ~value;
      return OkStatus();
    case 0x28:
      device_status_ = value;
      return OkStatus();
    case 0x2C:
      features_ = value;
      return OkStatus();
    default:
      return NotFoundError("bad virtio register");
  }
}

Status VirtioDevice::Kick(const Phase& ph, uint16_t q) {
  if (q >= queues_.size()) {
    return InvalidArgumentError("kick on unknown queue");
  }
  ++stats_.kicks;
  return ProcessQueue(ph, q);
}

void VirtioDevice::NotifyGuest(const Phase& ph) {
  isr_ |= 1;
  ++stats_.interrupts;
  irq_.Assert(ph);
}

void VirtioDevice::NotifyUsed(const Phase& ph, uint16_t q, uint16_t old_used) {
  VirtQueue& vq = queue(q);
  uint16_t new_idx = vq.used_idx();
  if (new_idx == old_used) {
    return;  // nothing published, nothing to signal
  }
  bool suppress = false;
  if (features_ & kFeatureEventIdx) {
    // A torn/unmapped used_event read falls back to interrupting — losing a
    // suppression is safe, losing an interrupt is not.
    auto event = vq.UsedEvent(*memory_);
    suppress = event.ok() && !VirtQueue::NeedEvent(*event, new_idx, old_used);
  } else {
    auto flags = vq.AvailFlags(*memory_);
    suppress = flags.ok() && (*flags & 1) != 0;
  }
  if (suppress) {
    ++stats_.interrupts_suppressed;
    return;
  }
  NotifyGuest(ph);
}

Result<std::vector<uint8_t>> VirtioDevice::GatherReadable(const Chain& chain) {
  std::vector<uint8_t> out;
  out.reserve(chain.TotalReadable());
  for (const ChainElem& e : chain.elems) {
    if (e.device_writes) {
      continue;
    }
    size_t at = out.size();
    out.resize(at + e.len);
    HYP_RETURN_IF_ERROR(memory_->Read(e.gpa, out.data() + at, e.len));
  }
  stats_.bytes_read += out.size();
  return out;
}

Result<uint32_t> VirtioDevice::ScatterWritable(const Chain& chain, const uint8_t* data, size_t n) {
  uint32_t written = 0;
  for (const ChainElem& e : chain.elems) {
    if (!e.device_writes || n == 0) {
      continue;
    }
    uint32_t chunk = static_cast<uint32_t>(std::min<size_t>(e.len, n));
    HYP_RETURN_IF_ERROR(memory_->Write(e.gpa, data, chunk));
    data += chunk;
    n -= chunk;
    written += chunk;
  }
  stats_.bytes_written += written;
  return written;
}

Status VirtioDevice::ReadChain(const Chain& chain, size_t off, uint8_t* dst, size_t n) {
  size_t want = n;
  for (const ChainElem& e : chain.elems) {
    if (e.device_writes || n == 0) {
      continue;
    }
    if (off >= e.len) {
      off -= e.len;
      continue;
    }
    size_t take = std::min<size_t>(e.len - off, n);
    HYP_RETURN_IF_ERROR(memory_->Read(e.gpa + static_cast<uint32_t>(off), dst, take));
    dst += take;
    n -= take;
    off = 0;
  }
  if (n != 0) {
    return OutOfRangeError("chain readable span too short");
  }
  stats_.bytes_read += want;
  return OkStatus();
}

Result<uint32_t> VirtioDevice::WriteChain(const Chain& chain, size_t off, const uint8_t* src,
                                          size_t n) {
  uint32_t written = 0;
  for (const ChainElem& e : chain.elems) {
    if (!e.device_writes || n == 0) {
      continue;
    }
    if (off >= e.len) {
      off -= e.len;
      continue;
    }
    size_t take = std::min<size_t>(e.len - off, n);
    HYP_RETURN_IF_ERROR(memory_->Write(e.gpa + static_cast<uint32_t>(off), src, take));
    src += take;
    n -= take;
    written += static_cast<uint32_t>(take);
    off = 0;
  }
  stats_.bytes_written += written;
  return written;
}

}  // namespace hyperion::virtio

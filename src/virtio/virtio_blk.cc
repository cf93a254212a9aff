#include "src/virtio/virtio_blk.h"

#include <cstring>

namespace hyperion::virtio {

namespace {
constexpr uint32_t kHeaderBytes = 16;
}

Status VirtioBlk::ProcessQueue(const Phase& ph, uint16_t q) {
  VirtQueue& vq = queue(q);
  uint64_t total_sectors = 0;
  bool any = false;
  for (;;) {
    auto has = vq.HasWork(memory());
    if (!has.ok()) {
      return has.status();  // ring metadata unreadable: fail the kick
    }
    if (!*has) {
      break;
    }
    HYP_ASSIGN_OR_RETURN(Chain chain, vq.Pop(memory()));
    ++mutable_stats().chains;
    auto sectors = HandleChain(chain);
    if (!sectors.ok()) {
      return sectors.status();
    }
    total_sectors += *sectors;
    any = true;
  }
  if (any) {
    clock_.ScheduleAfter(ph, total_sectors * kCosts.blk_sector_cost,
                         [this](const SerialPhase& sp) { NotifyGuest(sp); });
  }
  return OkStatus();
}

Result<uint64_t> VirtioBlk::HandleChain(const Chain& chain) {
  ++blk_stats_.requests;
  VirtQueue& vq = queue(0);

  // Minimum shape: header + status. The status byte is the last writable
  // element; we locate it so we can report malformed requests to the guest.
  auto fail = [&](uint8_t status) -> Result<uint64_t> {
    if (!chain.elems.empty() && chain.elems.back().device_writes &&
        chain.elems.back().len >= 1) {
      (void)memory().WriteU8(chain.elems.back().gpa, status);
    }
    ++blk_stats_.errors;
    HYP_RETURN_IF_ERROR(vq.PushUsed(memory(), chain.head, 1));
    return uint64_t{0};
  };

  if (chain.elems.size() < 2 || chain.elems.front().device_writes ||
      chain.elems.front().len < kHeaderBytes || !chain.elems.back().device_writes ||
      chain.elems.back().len < 1) {
    return fail(kBlkStatusUnsupported);
  }

  uint8_t header[kHeaderBytes];
  HYP_RETURN_IF_ERROR(memory().Read(chain.elems.front().gpa, header, kHeaderBytes));
  uint32_t type;
  uint64_t sector;
  std::memcpy(&type, header, 4);
  std::memcpy(&sector, header + 8, 8);

  if (type == kBlkReqRead) {
    // Data elements are the writable ones, minus the trailing status byte.
    uint32_t data_bytes = chain.TotalWritable() - chain.elems.back().len;
    if (data_bytes == 0 || data_bytes % storage::kSectorSize != 0) {
      return fail(kBlkStatusUnsupported);
    }
    uint32_t count = data_bytes / storage::kSectorSize;
    std::vector<uint8_t> buf(data_bytes);
    if (!store_->ReadSectors(sector, count, buf.data()).ok()) {
      return fail(kBlkStatusIoErr);
    }
    // Scatter into all writable elements except the status byte: temporarily
    // treat the last element as excluded by scattering exactly data_bytes.
    uint32_t written = 0;
    const uint8_t* src = buf.data();
    size_t remaining = buf.size();
    for (size_t i = 0; i + 1 < chain.elems.size(); ++i) {
      const ChainElem& e = chain.elems[i];
      if (!e.device_writes || remaining == 0) {
        continue;
      }
      uint32_t chunk = static_cast<uint32_t>(std::min<size_t>(e.len, remaining));
      HYP_RETURN_IF_ERROR(memory().Write(e.gpa, src, chunk));
      src += chunk;
      remaining -= chunk;
      written += chunk;
    }
    mutable_stats().bytes_written += written;
    HYP_RETURN_IF_ERROR(memory().WriteU8(chain.elems.back().gpa, kBlkStatusOk));
    HYP_RETURN_IF_ERROR(vq.PushUsed(memory(), chain.head, written + 1));
    blk_stats_.sectors += count;
    return uint64_t{count};
  }

  if (type == kBlkReqWrite) {
    // Data elements are the readable ones after the header.
    uint32_t data_bytes = chain.TotalReadable() - kHeaderBytes;
    if (data_bytes == 0 || data_bytes % storage::kSectorSize != 0) {
      return fail(kBlkStatusUnsupported);
    }
    std::vector<uint8_t> buf;
    buf.reserve(data_bytes);
    for (size_t i = 1; i < chain.elems.size(); ++i) {
      const ChainElem& e = chain.elems[i];
      if (e.device_writes) {
        continue;
      }
      size_t at = buf.size();
      buf.resize(at + e.len);
      HYP_RETURN_IF_ERROR(memory().Read(e.gpa, buf.data() + at, e.len));
    }
    mutable_stats().bytes_read += buf.size();
    uint32_t count = data_bytes / storage::kSectorSize;
    if (!store_->WriteSectors(sector, count, buf.data()).ok()) {
      return fail(kBlkStatusIoErr);
    }
    HYP_RETURN_IF_ERROR(memory().WriteU8(chain.elems.back().gpa, kBlkStatusOk));
    HYP_RETURN_IF_ERROR(vq.PushUsed(memory(), chain.head, 1));
    blk_stats_.sectors += count;
    return uint64_t{count};
  }

  return fail(kBlkStatusUnsupported);
}

}  // namespace hyperion::virtio

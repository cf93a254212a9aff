#include "src/virtio/virtio_net.h"

#include <algorithm>
#include <cstring>

namespace hyperion::virtio {

Status VirtioNet::ProcessQueue(const Phase& ph, uint16_t q) {
  if (q == kTxQueue) {
    if (tx_polling_) {
      // A doorbell raced the NO_NOTIFY write (or the guest rang anyway);
      // the in-flight poll event owns the queue.
      return OkStatus();
    }
    return DrainRound(ph);
  }
  // RX kick: the guest posted fresh buffers; drain any backlog into them.
  PumpRx(ph);
  return OkStatus();
}

void VirtioNet::OnQueueReady(const Phase& ph, uint16_t q) {
  if (q == kRxQueue) {
    PumpRx(ph);
  }
}

Status VirtioNet::DrainRound(const Phase& ph) {
  VirtQueue& vq = queue(kTxQueue);
  for (;;) {
    HYP_ASSIGN_OR_RETURN(DrainResult r, DrainTx(ph, std::max(1u, opts_.tx_poll_budget)));
    if (!r.more) {
      if (!tx_polling_) {
        return OkStatus();
      }
      // Ring ran dry: re-arm notifications, then look once more. A chain
      // posted between our last pop and the re-arm saw NO_NOTIFY and sent
      // no doorbell — it must not wait for one that will never come.
      tx_polling_ = false;
      ++poll_gen_;
      HYP_RETURN_IF_ERROR(vq.SetNoNotify(memory(), false));
      HYP_ASSIGN_OR_RETURN(bool late, vq.HasWork(memory()));
      if (!late) {
        return OkStatus();
      }
      continue;
    }
    if (!tx_polling_) {
      tx_polling_ = true;
      ++poll_gen_;
      HYP_RETURN_IF_ERROR(vq.SetNoNotify(memory(), true));
    }
    // Pace the poll by the wire, not just the fixed interval: draining
    // faster than the egress link transmits only piles frames into the
    // switch's event queue without delivering any sooner.
    SimTime delay = kTxPollInterval;
    if (r.egress_clear > clock_.now()) {
      delay = std::max(delay, r.egress_clear - clock_.now());
    }
    clock_.ScheduleAfter(ph, delay,
                         [this, gen = poll_gen_](const SerialPhase& sp) { PollTx(sp, gen); });
    return OkStatus();
  }
}

void VirtioNet::PollTx(const SerialPhase& ph, uint64_t gen) {
  if (gen != poll_gen_ || !tx_polling_) {
    return;  // stale event: polling exited/restarted since it was scheduled
  }
  ++net_stats_.poll_rounds;
  auto has = queue(kTxQueue).HasWork(memory());
  if (has.ok() && *has) {
    ++net_stats_.kicks_suppressed;  // work arrived with no doorbell needed
  }
  // Ring errors mid-poll have no kick to fail; drop them like a real NIC
  // drops frames on a dead ring.
  (void)DrainRound(ph);
}

Result<VirtioNet::DrainResult> VirtioNet::DrainTx(const Phase& ph, uint32_t budget) {
  VirtQueue& vq = queue(kTxQueue);
  DrainResult r;
  if (!vq.ready()) {
    return r;
  }
  uint16_t old_used = vq.used_idx();
  std::vector<net::Frame> burst;
  for (uint32_t i = 0; i < budget; ++i) {
    HYP_ASSIGN_OR_RETURN(bool has, vq.HasWork(memory()));
    if (!has) {
      break;
    }
    HYP_ASSIGN_OR_RETURN(Chain chain, vq.Pop(memory()));
    ++mutable_stats().chains;
    uint32_t readable = chain.TotalReadable();
    if (readable < kFrameHeaderBytes) {
      ++net_stats_.tx_malformed;  // runt: no room for even the header
      HYP_RETURN_IF_ERROR(vq.PushUsed(memory(), chain.head, 0));
      ++r.drained;
      continue;
    }
    uint8_t hdr[kFrameHeaderBytes];
    HYP_RETURN_IF_ERROR(ReadChain(chain, 0, hdr, sizeof hdr));
    uint32_t dst, len;
    std::memcpy(&dst, hdr, 4);
    std::memcpy(&len, hdr + 4, 4);
    len = std::min(len, readable - kFrameHeaderBytes);
    len = std::min(len, static_cast<uint32_t>(net::kMaxFrameBytes));
    net::Frame f;
    f.src = addr_;
    f.dst = dst;
    // The single gather: guest TX buffer -> FrameBuf. Everything downstream
    // (switch staging, links, fault injection, RX backlog) shares this
    // buffer by handle.
    f.payload = net::FrameBuf::Allocate(len);
    HYP_RETURN_IF_ERROR(ReadChain(chain, kFrameHeaderBytes, f.payload.data(), len));
    burst.push_back(std::move(f));
    ++net_stats_.tx_frames;
    HYP_RETURN_IF_ERROR(vq.PushUsed(memory(), chain.head, 0));
    ++r.drained;
  }
  if (!burst.empty()) {
    r.egress_clear = switch_->TransmitBurst(ph, std::move(burst));
  }
  if (vq.used_idx() != old_used) {
    NotifyUsed(ph, kTxQueue, old_used);
  }
  HYP_ASSIGN_OR_RETURN(r.more, vq.HasWork(memory()));
  return r;
}

void VirtioNet::OnFrame(const SerialPhase& ph, const net::Frame& frame) {
  Enqueue(frame);
  PumpRx(ph);
}

void VirtioNet::OnFrameBurst(const SerialPhase& ph, std::span<const net::Frame> frames) {
  net_stats_.burst_frames += frames.size();
  for (const net::Frame& f : frames) {
    Enqueue(f);
  }
  // One pump, one coalesced interrupt for the whole burst.
  PumpRx(ph);
}

void VirtioNet::Enqueue(const net::Frame& frame) {
  if (rx_backlog_.size() >= opts_.rx_backlog_cap) {
    ++net_stats_.rx_dropped;
    return;
  }
  rx_backlog_.push_back(frame);
  net_stats_.rx_backlog_hwm = std::max<uint64_t>(net_stats_.rx_backlog_hwm, rx_backlog_.size());
}

void VirtioNet::PumpRx(const Phase& ph) {
  VirtQueue& vq = queue(kRxQueue);
  uint16_t old_used = vq.used_idx();
  while (!rx_backlog_.empty()) {
    auto has = vq.HasWork(memory());
    if (!has.ok() || !*has) {
      break;  // no posted buffers; keep the backlog
    }
    auto chain = vq.Pop(memory());
    if (!chain.ok()) {
      break;
    }
    const net::Frame& f = rx_backlog_.front();
    uint32_t len = static_cast<uint32_t>(f.payload.size());
    uint8_t hdr[kFrameHeaderBytes];
    std::memcpy(hdr, &f.src, 4);
    std::memcpy(hdr + 4, &len, 4);
    auto hdr_written = WriteChain(*chain, 0, hdr, sizeof hdr);
    auto body_written = hdr_written.ok()
                            ? WriteChain(*chain, kFrameHeaderBytes, f.payload.data(), len)
                            : hdr_written;
    if (!body_written.ok()) {
      // Bad guest buffer address: return the chain (len 0) so the guest
      // does not permanently lose this RX slot, keep the frame queued, and
      // try the next posted chain.
      (void)vq.PushUsed(memory(), chain->head, 0);
      ++net_stats_.rx_chain_errors;
      continue;
    }
    uint32_t written = *hdr_written + *body_written;
    if (written < kFrameHeaderBytes + len) {
      ++net_stats_.rx_dropped;  // posted buffer too small: frame truncated/lost
    } else {
      ++net_stats_.rx_frames;
    }
    (void)vq.PushUsed(memory(), chain->head, written);
    rx_backlog_.pop_front();
  }
  if (vq.used_idx() != old_used) {
    NotifyUsed(ph, kRxQueue, old_used);
  }
}

void VirtioNet::Serialize(ByteWriter& w) const {
  VirtioDevice::Serialize(w);
  w.WriteU8(tx_polling_ ? 1 : 0);
}

Status VirtioNet::Deserialize(const DirectPhase& ph, ByteReader& r) {
  HYP_RETURN_IF_ERROR(VirtioDevice::Deserialize(ph, r));
  HYP_ASSIGN_OR_RETURN(uint8_t polling, r.ReadU8());
  tx_polling_ = polling != 0;
  ++poll_gen_;  // events scheduled before the restore are stale
  if (tx_polling_) {
    // The snapshot caught us mid-poll; re-arm the poll event so the TX ring
    // does not deadlock behind a suppressed doorbell.
    clock_.ScheduleAfter(ph, kTxPollInterval,
                         [this, gen = poll_gen_](const SerialPhase& sp) { PollTx(sp, gen); });
  }
  return OkStatus();
}

}  // namespace hyperion::virtio

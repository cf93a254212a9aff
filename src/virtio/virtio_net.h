// Paravirtual network device.
//
// Queue 0 = RX (guest posts writable buffers; the device fills one per
// incoming frame), queue 1 = TX (guest posts readable frames).
//
// Frame header (8 bytes) precedes payload in every buffer:
//   TX: { u32 dst; u32 len; }   RX: { u32 src; u32 len; }
//
// Data plane (DESIGN.md §10):
//   - TX payloads are gathered once into a refcounted heap net::FrameBuf
//     (never host FramePool frames, which are guest memory) and handed to
//     the switch as a batch (TransmitBurst); the bytes are not copied again
//     until the receiving NIC scatters them into an RX chain.
//   - Interrupts coalesce via EVENT_IDX (NotifyUsed) when the driver acks
//     kFeatureEventIdx at 0x2C; one interrupt covers a whole drained batch
//     either way.
//   - Under TX backlog the device enters a NAPI-style polling mode: it sets
//     used.flags NO_NOTIFY (the guest may skip doorbells) and drains
//     tx_poll_budget chains per self-rescheduled poll event until the ring
//     runs dry, then re-arms notifications — re-checking the ring once after
//     re-arming so a chain posted in the unarmed window is never stranded.

#ifndef SRC_VIRTIO_VIRTIO_NET_H_
#define SRC_VIRTIO_VIRTIO_NET_H_

#include <deque>

#include "src/net/network.h"
#include "src/virtio/virtio_blk.h"  // virtio device ids

namespace hyperion::virtio {

struct VirtioNetOptions {
  // RX frames buffered host-side while the guest has no posted buffers;
  // beyond this, frames drop (rx_dropped).
  size_t rx_backlog_cap = 256;
  // TX chains drained per poll round before yielding the host.
  uint32_t tx_poll_budget = 32;
};

class VirtioNet final : public VirtioDevice, public net::FrameSink {
 public:
  static constexpr uint16_t kRxQueue = 0;
  static constexpr uint16_t kTxQueue = 1;
  static constexpr uint32_t kFrameHeaderBytes = 8;

  // Delay between poll rounds while the TX ring stays busy.
  static constexpr SimTime kTxPollInterval = 2 * kSimTicksPerUs;

  // `clock` paces the TX poll events.
  VirtioNet(mem::GuestMemory* memory, devices::IrqLine irq, net::VirtualSwitch* vswitch,
            net::MacAddr addr, ClockRef clock, VirtioNetOptions opts = {})
      : VirtioDevice(kVirtioIdNet, 2, memory, irq),
        switch_(vswitch),
        addr_(addr),
        clock_(clock),
        opts_(opts) {}

  net::MacAddr addr() const { return addr_; }

  std::string_view name() const override { return "virtio-net"; }

  // net::FrameSink: deliver into posted RX buffers (or queue briefly).
  void OnFrame(const SerialPhase& ph, const net::Frame& frame) override;
  // Coalesced delivery: fill RX chains for the whole burst, one interrupt.
  void OnFrameBurst(const SerialPhase& ph, std::span<const net::Frame> frames) override;

  void Serialize(ByteWriter& w) const override;
  Status Deserialize(const DirectPhase& ph, ByteReader& r) override;

  struct NetStats {
    uint64_t tx_frames = 0;
    uint64_t rx_frames = 0;
    uint64_t rx_dropped = 0;
    uint64_t tx_malformed = 0;     // TX chains shorter than the frame header
    uint64_t rx_chain_errors = 0;  // RX chains returned len 0 on bad gpa
    uint64_t rx_backlog_hwm = 0;   // high watermark of the host-side backlog
    uint64_t kicks_suppressed = 0;  // poll rounds that found work: saved doorbells
    uint64_t poll_rounds = 0;       // self-rescheduled TX poll events run
    uint64_t burst_frames = 0;      // RX frames arriving via coalesced bursts

    bool operator==(const NetStats&) const = default;
  };
  const NetStats& net_stats() const { return net_stats_; }

  // True while TX kicks are suppressed and the poll event owns the queue.
  bool tx_polling() const { return tx_polling_; }

 protected:
  Status ProcessQueue(const Phase& ph, uint16_t q) override;
  // An RX queue made ready drains frames that arrived while it was not.
  void OnQueueReady(const Phase& ph, uint16_t q) override;

 private:
  struct DrainResult {
    uint32_t drained = 0;
    bool more = false;       // ring still has pending chains
    SimTime egress_clear = 0;  // switch egress busy-until (0 = unknown/staged)
  };

  // One budget-bounded TX drain pass: gather → burst-transmit → complete,
  // one coalesced completion notification.
  Result<DrainResult> DrainTx(const Phase& ph, uint32_t budget);
  // Drives DrainTx and the polling state machine (enter / re-arm / exit).
  Status DrainRound(const Phase& ph);
  // The self-rescheduled poll event; `gen` guards against stale events
  // surviving an exit or restore.
  void PollTx(const SerialPhase& ph, uint64_t gen);

  void Enqueue(const net::Frame& frame);
  void PumpRx(const Phase& ph);  // move backlog frames into posted buffers

  net::VirtualSwitch* switch_;
  net::MacAddr addr_;
  ClockRef clock_;
  VirtioNetOptions opts_;
  std::deque<net::Frame> rx_backlog_;
  bool tx_polling_ = false;
  uint64_t poll_gen_ = 0;  // bumped on every polling-state transition
  NetStats net_stats_;
};

}  // namespace hyperion::virtio

#endif  // SRC_VIRTIO_VIRTIO_NET_H_

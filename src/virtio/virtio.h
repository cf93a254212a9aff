// Virtio-style paravirtual device framework.
//
// Queues are split rings living in guest memory (descriptor table, avail
// ring, used ring). The guest posts descriptor chains and *kicks* the device
// with a single doorbell (one MMIO exit — or a cheaper hypercall); the device
// moves data host-side ("DMA", no exits) and posts completions to the used
// ring with one interrupt. This amortization is the paravirtual win measured
// in experiment F3.
//
// Ring formats (all little-endian, in guest-physical memory):
//   Desc  { u32 gpa; u32 len; u16 flags; u16 next; }   flags: 1=NEXT 2=WRITE
//   Avail { u16 flags; u16 idx; u16 ring[qsize]; }
//   Used  { u16 flags; u16 idx; { u32 id; u32 len; } ring[qsize]; }
//
// Device register window (word access):
//   0x00 DEVICE_ID   (RO) 1=net 2=blk 3=console
//   0x04 QUEUE_SEL   (WO)
//   0x08 QUEUE_NUM   (RW) ring size (power of two, <= 256)
//   0x0C QUEUE_DESC  (RW) gpa of the descriptor table
//   0x10 QUEUE_AVAIL (RW) gpa of the avail ring
//   0x14 QUEUE_USED  (RW) gpa of the used ring
//   0x18 QUEUE_READY (RW) 1 = ring enabled
//   0x1C QUEUE_NOTIFY(WO) doorbell: value = queue index
//   0x20 ISR_STATUS  (RO) bit0 = used-ring update
//   0x24 ISR_ACK     (W1C)
//   0x28 DEVICE_STATUS (RW) driver handshake bits
//   0x2C DRIVER_FEATURES (RW) feature bits acked by the driver
//
// Interrupt coalescing (DESIGN.md §10): with kFeatureEventIdx negotiated at
// 0x2C, the guest publishes a `used_event` index in the word after the avail
// ring (avail + 4 + 2*qsize); the device interrupts only when the used index
// crosses it. Without the feature, bit0 of avail.flags suppresses interrupts
// outright (best-effort NO_INTERRUPT). In the other direction the device
// sets bit0 of used.flags (kUsedNoNotify) while it is polling a queue, so a
// cooperating guest can skip doorbells it knows the device will not miss.
// (The device-to-driver half of full VIRTIO_F_EVENT_IDX — an avail_event in
// the used ring — is deliberately not modeled; NO_NOTIFY covers the polling
// window with less guest-side bookkeeping.)

#ifndef SRC_VIRTIO_VIRTIO_H_
#define SRC_VIRTIO_VIRTIO_H_

#include <cstdint>
#include <vector>

#include "src/devices/pic.h"
#include "src/mem/guest_memory.h"

namespace hyperion::virtio {

inline constexpr uint16_t kDescNext = 1;
inline constexpr uint16_t kDescWrite = 2;
inline constexpr uint16_t kMaxQueueSize = 256;
inline constexpr uint32_t kDescBytes = 12;  // sizeof one Desc entry

// DRIVER_FEATURES (0x2C) bits.
inline constexpr uint32_t kFeatureEventIdx = 1u << 0;  // used_event suppression

// used.flags bit0: device is polling, driver may skip doorbells.
inline constexpr uint16_t kUsedNoNotify = 1;

// One element of a popped descriptor chain.
struct ChainElem {
  uint32_t gpa = 0;
  uint32_t len = 0;
  bool device_writes = false;  // kDescWrite: device -> guest
};

// A popped chain plus the head descriptor id needed for the used ring.
struct Chain {
  uint16_t head = 0;
  std::vector<ChainElem> elems;

  uint32_t TotalReadable() const {
    uint32_t n = 0;
    for (const auto& e : elems) {
      if (!e.device_writes) {
        n += e.len;
      }
    }
    return n;
  }
  uint32_t TotalWritable() const {
    uint32_t n = 0;
    for (const auto& e : elems) {
      if (e.device_writes) {
        n += e.len;
      }
    }
    return n;
  }
};

// Host-side view of one virtqueue.
class VirtQueue {
 public:
  void Configure(uint32_t desc, uint32_t avail, uint32_t used, uint16_t size) {
    desc_gpa_ = desc;
    avail_gpa_ = avail;
    used_gpa_ = used;
    size_ = size;
  }
  void set_ready(bool ready) { ready_ = ready; }
  bool ready() const { return ready_ && size_ != 0; }
  uint16_t size() const { return size_; }
  uint32_t desc_gpa() const { return desc_gpa_; }
  uint32_t avail_gpa() const { return avail_gpa_; }
  uint32_t used_gpa() const { return used_gpa_; }

  // True when the guest has posted chains we have not yet popped.
  Result<bool> HasWork(mem::GuestMemory& memory) const;

  // Pops the next available chain; NotFound when none pending.
  Result<Chain> Pop(mem::GuestMemory& memory);

  // Publishes a completion for `head` with `written` device-written bytes.
  Status PushUsed(mem::GuestMemory& memory, uint16_t head, uint32_t written);

  // The guest's used_event index (EVENT_IDX): the word after the avail ring.
  Result<uint16_t> UsedEvent(mem::GuestMemory& memory) const {
    return memory.ReadU16(avail_gpa_ + 4 + 2u * size_);
  }
  // avail.flags (bit0 = legacy NO_INTERRUPT suppression).
  Result<uint16_t> AvailFlags(mem::GuestMemory& memory) const {
    return memory.ReadU16(avail_gpa_);
  }
  // Sets/clears used.flags bit0 (kUsedNoNotify) — kick suppression while the
  // device polls this queue.
  Status SetNoNotify(mem::GuestMemory& memory, bool on) {
    return memory.WriteU16(used_gpa_, on ? kUsedNoNotify : 0);
  }

  // EVENT_IDX crossing test: true when the used index moved from old_idx to
  // new_idx past the guest's published event, in modulo-2^16 arithmetic
  // (virtio spec vring_need_event). Handles wraparound by construction.
  static bool NeedEvent(uint16_t event, uint16_t new_idx, uint16_t old_idx) {
    return static_cast<uint16_t>(new_idx - event - 1) <
           static_cast<uint16_t>(new_idx - old_idx);
  }

  uint16_t last_avail() const { return last_avail_; }
  // Device-side used index; must match the idx published in guest memory.
  uint16_t used_idx() const { return used_idx_; }

  void Serialize(ByteWriter& w) const {
    w.WriteU32(desc_gpa_);
    w.WriteU32(avail_gpa_);
    w.WriteU32(used_gpa_);
    w.WriteU16(size_);
    w.WriteU16(last_avail_);
    w.WriteU16(used_idx_);
    w.WriteU8(ready_ ? 1 : 0);
  }

  Status Deserialize(ByteReader& r) {
    HYP_ASSIGN_OR_RETURN(desc_gpa_, r.ReadU32());
    HYP_ASSIGN_OR_RETURN(avail_gpa_, r.ReadU32());
    HYP_ASSIGN_OR_RETURN(used_gpa_, r.ReadU32());
    HYP_ASSIGN_OR_RETURN(size_, r.ReadU16());
    HYP_ASSIGN_OR_RETURN(last_avail_, r.ReadU16());
    HYP_ASSIGN_OR_RETURN(used_idx_, r.ReadU16());
    HYP_ASSIGN_OR_RETURN(uint8_t ready, r.ReadU8());
    ready_ = ready != 0;
    return OkStatus();
  }

 private:
  uint32_t desc_gpa_ = 0;
  uint32_t avail_gpa_ = 0;
  uint32_t used_gpa_ = 0;
  uint16_t size_ = 0;
  uint16_t last_avail_ = 0;
  uint16_t used_idx_ = 0;
  bool ready_ = false;
};

// Base class implementing the register window and ISR/IRQ behavior.
// Subclasses implement ProcessQueue(), called on each doorbell.
class VirtioDevice : public devices::MmioDevice {
 public:
  VirtioDevice(uint32_t device_id, uint16_t num_queues, mem::GuestMemory* memory,
               devices::IrqLine irq)
      : device_id_(device_id), queues_(num_queues), memory_(memory), irq_(irq) {}

  Result<uint32_t> Read(uint32_t offset, uint32_t size) override;
  Status Write(const Phase& ph, uint32_t offset, uint32_t size, uint32_t value) override;

  void Serialize(ByteWriter& w) const override {
    for (const VirtQueue& q : queues_) {
      q.Serialize(w);
    }
    w.WriteU16(queue_sel_);
    w.WriteU32(isr_);
    w.WriteU32(device_status_);
    w.WriteU32(features_);
  }

  Status Deserialize(const DirectPhase&, ByteReader& r) override {
    for (VirtQueue& q : queues_) {
      HYP_RETURN_IF_ERROR(q.Deserialize(r));
    }
    HYP_ASSIGN_OR_RETURN(queue_sel_, r.ReadU16());
    HYP_ASSIGN_OR_RETURN(isr_, r.ReadU32());
    HYP_ASSIGN_OR_RETURN(device_status_, r.ReadU32());
    HYP_ASSIGN_OR_RETURN(features_, r.ReadU32());
    return OkStatus();
  }

  // Doorbell entry point; also reachable via the kVirtioKick hypercall.
  // Dual-regime: guest doorbells arrive under the slice's ExecutePhase,
  // host-side pokes (tests, console input) under a direct token.
  Status Kick(const Phase& ph, uint16_t queue);

  // Read-only queue access for the invariant auditors (src/verify).
  const VirtQueue& queue_at(uint16_t i) const { return queues_[i]; }
  uint16_t queue_count() const { return static_cast<uint16_t>(queues_.size()); }

  struct Stats {
    uint64_t kicks = 0;
    uint64_t chains = 0;
    uint64_t bytes_read = 0;     // guest -> device
    uint64_t bytes_written = 0;  // device -> guest
    uint64_t interrupts = 0;
    uint64_t interrupts_suppressed = 0;  // used-ring updates with no interrupt

    bool operator==(const Stats&) const = default;
  };
  const Stats& stats() const { return stats_; }

  // Feature bits the driver acked at 0x2C.
  uint32_t features() const { return features_; }

 protected:
  virtual Status ProcessQueue(const Phase& ph, uint16_t queue) = 0;

  // Called after the driver sets QUEUE_READY on `queue`. Not a doorbell: it
  // counts no kick and fails no register write.
  virtual void OnQueueReady(const Phase& ph, uint16_t queue) {
    (void)ph;
    (void)queue;
  }

  // Raises the used-ring ISR bit and the interrupt line.
  void NotifyGuest(const Phase& ph);

  // Interrupt delivery with coalescing: call after pushing completions that
  // moved queue `q`'s used index from `old_used`. Interrupts unless the
  // guest suppressed it — via used_event when kFeatureEventIdx is acked,
  // via avail.flags NO_INTERRUPT otherwise. Suppressions are counted.
  void NotifyUsed(const Phase& ph, uint16_t q, uint16_t old_used);

  // Copies a readable chain's bytes into a flat buffer (guest -> device).
  Result<std::vector<uint8_t>> GatherReadable(const Chain& chain);
  // Scatters `data` into the chain's writable elements (device -> guest).
  Result<uint32_t> ScatterWritable(const Chain& chain, const uint8_t* data, size_t n);

  // Chunk-cursor variants for zero-copy payloads: read/write `n` bytes at
  // byte offset `off` within the chain's readable/writable span, without
  // flattening the chain into a temporary. ReadChain errors if the readable
  // span is shorter than off+n; WriteChain clamps to capacity and returns
  // the bytes actually written.
  Status ReadChain(const Chain& chain, size_t off, uint8_t* dst, size_t n);
  Result<uint32_t> WriteChain(const Chain& chain, size_t off, const uint8_t* src, size_t n);

  mem::GuestMemory& memory() { return *memory_; }
  VirtQueue& queue(uint16_t i) { return queues_[i]; }
  uint16_t num_queues() const { return static_cast<uint16_t>(queues_.size()); }
  Stats& mutable_stats() { return stats_; }

 private:
  uint32_t device_id_;
  std::vector<VirtQueue> queues_;
  mem::GuestMemory* memory_;
  devices::IrqLine irq_;
  uint16_t queue_sel_ = 0;
  uint32_t isr_ = 0;
  uint32_t device_status_ = 0;
  uint32_t features_ = 0;
  Stats stats_;
};

}  // namespace hyperion::virtio

#endif  // SRC_VIRTIO_VIRTIO_H_

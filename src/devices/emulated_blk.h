// Fully emulated programmed-I/O block device (IDE-PIO style).
//
// Every register access is a trapped MMIO operation, and sector data moves
// through a one-word DATA port — so a single 512-byte sector costs 128 data
// exits plus command/status traffic. This is the "emulated device" baseline
// the virtio comparison (experiment F3) is measured against.
//
// Register map (word access):
//   0x00 LBA    (RW) starting sector
//   0x04 COUNT  (RW) sectors to transfer (1..kMaxSectorsPerCmd)
//   0x08 CMD    (WO) 1 = READ into buffer, 2 = WRITE buffer to disk
//   0x0C STATUS (RO) bit0 busy, bit1 data ready, bit2 error
//   0x10 DATA   (RW) auto-incrementing word window into the buffer
//   0x14 IRQACK (WO) clear completion latch (and rewind the data pointer)

#ifndef SRC_DEVICES_EMULATED_BLK_H_
#define SRC_DEVICES_EMULATED_BLK_H_

#include <vector>

#include "src/devices/pic.h"
#include "src/storage/block_store.h"
#include "src/util/cost_model.h"
#include "src/util/sim_clock.h"

namespace hyperion::devices {

class EmulatedBlockDevice final : public MmioDevice {
 public:
  static constexpr uint32_t kMaxSectorsPerCmd = 8;

  // Completion is scheduled on `clock` at count * blk_sector_cost and the IRQ
  // line fires. Passing an owner-tagged ClockRef lets the owning VM cancel
  // in-flight completions on destruction.
  EmulatedBlockDevice(storage::BlockStore* store, IrqLine irq, ClockRef clock)
      : store_(store), irq_(irq), clock_(clock), buffer_(kMaxSectorsPerCmd * 512) {}

  std::string_view name() const override { return "emu-blk"; }
  Result<uint32_t> Read(uint32_t offset, uint32_t size) override;
  Status Write(const Phase& ph, uint32_t offset, uint32_t size, uint32_t value) override;

  void Serialize(ByteWriter& w) const override;
  Status Deserialize(const DirectPhase& ph, ByteReader& r) override;

  struct Stats {
    uint64_t reads = 0;
    uint64_t writes = 0;
    uint64_t sectors = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  void StartCommand(const Phase& ph, uint32_t cmd);
  void CompleteCommand(const SerialPhase& ph, uint32_t cmd);

  storage::BlockStore* store_;
  IrqLine irq_;
  ClockRef clock_;

  uint32_t lba_ = 0;
  uint32_t count_ = 1;
  bool busy_ = false;
  bool data_ready_ = false;
  bool error_ = false;
  uint32_t data_ptr_ = 0;
  std::vector<uint8_t> buffer_;
  Stats stats_;
};

}  // namespace hyperion::devices

#endif  // SRC_DEVICES_EMULATED_BLK_H_

// Simulated cycle prices for virtualization events.
//
// Hyperion charges a fixed simulated-cycle cost per event class instead of
// measuring host wall-clock time, which keeps experiments deterministic.
// The prices are calibrated to era-typical *ratios* (a VM exit costs
// hundreds of guest instructions; a 2-D page walk costs ~4x a native walk;
// MMIO emulation is the slowest path), which is what the benchmark shapes
// depend on. Absolute values are in cycles of the nominal 1 GHz machine.
//
// The table is a compile-time constant, `kCosts`, read directly by the CPU,
// MMU, device and VMM layers alike, which is why it lives in util.

#ifndef SRC_UTIL_COST_MODEL_H_
#define SRC_UTIL_COST_MODEL_H_

#include <cstdint>

namespace hyperion {

struct CostModel {
  // Base cost of retiring one guest instruction.
  uint64_t guest_insn = 1;

  // Memory virtualization.
  uint64_t tlb_hit = 0;            // extra cost on a software-TLB hit
  uint64_t tlb_fill = 12;          // installing a TLB entry
  uint64_t pt_walk_step = 25;      // one page-table memory reference
  uint64_t shadow_sync_entry = 90; // constructing one shadow entry (VMM work)
  uint64_t shadow_root_switch = 350;   // activating a cached shadow root
  uint64_t shadow_root_build = 3000;   // materializing a new shadow root
  uint64_t dirty_log_first_write = 60; // write-protect fault per page per round

  // VM exits and emulation.
  uint64_t vm_exit = 900;       // world-switch round trip (save/restore state)
  uint64_t emulate_insn = 250;  // software decode+execute of one guest insn
  uint64_t mmio_access = 350;   // device-register dispatch on top of the exit
  uint64_t hypercall = 180;     // streamlined paravirtual exit handling
  uint64_t interrupt_inject = 60;
  uint64_t cow_break = 1400;    // allocate + copy a 4 KiB page + remap
  uint64_t context_switch = 3000;  // vCPU switch on a pCPU (state + cache refill)

  // Devices.
  uint64_t irq_latency = 200;       // line assertion to vCPU delivery
  uint64_t blk_sector_cost = 2200;  // storage backend per 512-byte sector
  uint64_t virtio_kick = 150;       // doorbell processing (beyond the exit)
};

// The one cost model used throughout hyperion.
inline constexpr CostModel kCosts{};

}  // namespace hyperion

#endif  // SRC_UTIL_COST_MODEL_H_

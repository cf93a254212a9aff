// Whole-VM snapshots: CPU state, RAM (zero-page elided), device registers,
// console state. Supports full snapshots, incremental (dirty-only)
// snapshots for checkpointing, and template cloning for fast provisioning.
//
// Disk contents are NOT captured here: block storage snapshots by stacking
// HVD overlays (src/storage), the standard split in production VMMs.

#ifndef SRC_SNAPSHOT_SNAPSHOT_H_
#define SRC_SNAPSHOT_SNAPSHOT_H_

#include <span>
#include <vector>

#include "src/core/host.h"
#include "src/core/vm.h"

namespace hyperion::snapshot {

struct SaveOptions {
  // Capture only pages dirtied since the last dirty-log harvest. The restore
  // target must already hold the base state.
  bool incremental = false;
  // Capture each vCPU engine's validated translation cache so a restored or
  // cloned VM starts with pre-warmed code caches (zero cold translates on
  // its first pass). Restore revalidates every unit against the restored
  // memory; anything stale degrades to cold translation.
  bool translations = true;
};

struct SnapshotInfo {
  uint32_t pages_total = 0;
  uint32_t pages_data = 0;   // pages with payload bytes in the snapshot
  uint32_t pages_zero = 0;   // elided all-zero pages
  uint32_t pages_absent = 0; // ballooned-out pages
  size_t bytes = 0;          // encoded size
};

// Serializes `vm`. The VM should be paused (or otherwise not running) for a
// consistent image; this is the caller's responsibility.
Result<std::vector<uint8_t>> SaveVm(core::Vm& vm, SaveOptions options = {},
                                    SnapshotInfo* info = nullptr);

// Restores a snapshot into `vm`, which must have the same RAM size and vCPU
// count. Full snapshots reset unmentioned pages to zero; incremental ones
// patch on top of current state.
Status LoadVm(core::Vm& vm, std::span<const uint8_t> bytes);

// Provisioning: creates a new VM from `config` and a template snapshot.
Result<core::Vm*> CloneVm(core::Host& host, core::VmConfig config,
                          std::span<const uint8_t> template_snapshot);

// VM fork (SnowFlock-style): creates a child VM on the same host whose RAM
// pages *share* the parent's host frames copy-on-write — O(pages) metadata,
// zero page copies up front. Writes on either side privatize the touched
// page through the regular COW-break machinery. The parent must be paused
// for the fork instant; config must match the parent's geometry and device
// complement (same RAM size, vCPUs, device models).
Result<core::Vm*> ForkVm(core::Host& host, core::VmConfig config, core::Vm& parent);

}  // namespace hyperion::snapshot

#endif  // SRC_SNAPSHOT_SNAPSHOT_H_

// Hostile-guest robustness: buggy or malicious guest programs must never
// crash the host or corrupt other VMs — at worst they crash themselves.

#include <gtest/gtest.h>

#include "src/core/host.h"
#include "src/guest/programs.h"
#include "tests/vm_test_util.h"

namespace hyperion {
namespace {

using core::Host;
using core::IoModel;
using core::Vm;
using core::VmConfig;
using core::VmState;

// The common prologue that points tvec at a counting handler so guest-level
// faults do not crash the VM outright.
constexpr char kFaultTolerantBoot[] = R"(
.org 0x1000
    j _start
.align 8
progress:
    .word 0
faults:
    .word 0
handler:
    la t3, faults
    lw t2, 0(t3)
    addi t2, t2, 1
    sw t2, 0(t3)
    csrr t1, epc
    addi t1, t1, 4     ; skip the faulting instruction
    csrw epc, t1
    sret
_start:
    la t0, handler
    csrw tvec, t0
)";

TEST(HostileGuestTest, WildMemoryAccessesFaultTheGuestOnly) {
  Host host;
  Vm* vm = BootVm(host, VmConfig{.name = "wild"}, std::string(kFaultTolerantBoot) + R"(
    li t0, 0xE0000000     ; far past RAM, below MMIO
    lw a0, 0(t0)
    sw a0, 0(t0)
    li t0, 0xFFFFF000     ; above the MMIO window
    lw a0, 0(t0)
    li a0, 4
    hcall
    halt
)");
  ASSERT_TRUE(host.RunUntilVmStops(vm, kSimTicksPerSec));
  EXPECT_EQ(vm->state(), VmState::kShutdown);
  auto image = guest::Build(std::string(kFaultTolerantBoot) + "halt\n");
  uint32_t faults = vm->memory().ReadU32(*image->SymbolAddress("faults")).value_or(0);
  EXPECT_EQ(faults, 3u);
}

TEST(HostileGuestTest, UnmappedMmioFaultsGuest) {
  Host host;
  Vm* vm = BootVm(host, VmConfig{.name = "mmio"}, std::string(kFaultTolerantBoot) + R"(
    li t0, 0xF0500000     ; inside the MMIO window, no device
    lw a0, 0(t0)
    sw a0, 0(t0)
    li a0, 4
    hcall
    halt
)");
  ASSERT_TRUE(host.RunUntilVmStops(vm, kSimTicksPerSec));
  EXPECT_EQ(vm->state(), VmState::kShutdown);
}

TEST(HostileGuestTest, VirtioRingPointingOutsideRamFailsSafely) {
  Host host;
  auto disk = std::make_shared<storage::MemBlockStore>(64);
  VmConfig cfg{.name = "evil-ring"};
  cfg.disk_model = IoModel::kParavirt;
  cfg.disk = disk;
  // Configure the queue with ring addresses far past RAM, then kick.
  Vm* vm = BootVm(host, cfg, R"(
.org 0x1000
_start:
    li gp, 0xF0100000
    sw zero, 0x04(gp)
    li t1, 4
    sw t1, 0x08(gp)
    li t1, 0x7F000000      ; desc table "address"
    sw t1, 0x0C(gp)
    li t1, 0x7F001000
    sw t1, 0x10(gp)
    li t1, 0x7F002000
    sw t1, 0x14(gp)
    li t1, 1
    sw t1, 0x18(gp)
    li a0, 7               ; kick via hypercall
    li a1, 0
    li a2, 0
    hcall
    mv s0, a0              ; hypercall reports failure, host survives
    halt
)");
  ASSERT_TRUE(host.RunUntilVmStops(vm, 2 * kSimTicksPerSec));
  EXPECT_EQ(vm->state(), VmState::kShutdown);
  EXPECT_EQ(vm->vcpu(0).state.ReadReg(isa::kS0), 1u);  // kick failed cleanly
}

TEST(HostileGuestTest, VirtioDescriptorChainLoopRejected) {
  Host host;
  auto disk = std::make_shared<storage::MemBlockStore>(64);
  VmConfig cfg{.name = "loop-ring"};
  cfg.disk_model = IoModel::kParavirt;
  cfg.disk = disk;
  Vm* vm = BootVm(host, cfg, R"(
.org 0x20000
; desc 0 -> desc 1 -> desc 0 (loop)
.word 0x30000, 16, 0x00010001    ; gpa, len, flags=NEXT next=1
.word 0x30000, 16, 0x00000001    ; flags=NEXT next=0
.word 0, 0, 0
.word 0, 0, 0
.org 0x20100
.word 0x00010000                 ; avail: flags=0 idx=1
.word 0x00000000                 ; ring[0]=0
.org 0x20200
.space 36
.org 0x1000
_start:
    li gp, 0xF0100000
    sw zero, 0x04(gp)
    li t1, 4
    sw t1, 0x08(gp)
    li t1, 0x20000
    sw t1, 0x0C(gp)
    li t1, 0x20100
    sw t1, 0x10(gp)
    li t1, 0x20200
    sw t1, 0x14(gp)
    li t1, 1
    sw t1, 0x18(gp)
    li a0, 7
    li a1, 0
    li a2, 0
    hcall
    mv s0, a0
    halt
)");
  ASSERT_TRUE(host.RunUntilVmStops(vm, 2 * kSimTicksPerSec));
  EXPECT_EQ(vm->state(), VmState::kShutdown);
  EXPECT_EQ(vm->vcpu(0).state.ReadReg(isa::kS0), 1u);  // rejected, not hung
}

TEST(HostileGuestTest, BalloonAbuseIsBounded) {
  Host host;
  // Inflate pages that do not exist and deflate pages that are present.
  Vm* vm = BootVm(host, VmConfig{.name = "balloon-abuse"}, R"(
.org 0x1000
_start:
    li a0, 5
    li a1, 0x999999       ; way past RAM
    hcall
    mv s0, a0             ; must fail (1)
    li a0, 6
    li a1, 2              ; deflate a present page
    hcall
    mv s1, a0             ; must fail (1)
    li a0, 5
    li a1, 1              ; inflating the page holding this code!
    hcall
    mv s2, a0             ; allowed (guest's own problem)
    li a0, 4
    hcall
    halt
)");
  // The guest released its own code page: it will fault on the next fetch
  // (missing page, no handler -> crash) OR manage to shut down first,
  // depending on where the code lives. Either way the HOST survives.
  host.RunUntilVmStops(vm, 2 * kSimTicksPerSec);
  EXPECT_NE(vm->state(), VmState::kRunning);
  EXPECT_EQ(vm->vcpu(0).state.ReadReg(isa::kS0), 1u);
  EXPECT_EQ(vm->vcpu(0).state.ReadReg(isa::kS1), 1u);
}

TEST(HostileGuestTest, RunawayGuestCannotStarveOthers) {
  core::HostConfig hc;
  hc.num_pcpus = 1;
  Host host(hc);
  // A tight infinite loop that never yields...
  Vm* hog = BootVm(host, VmConfig{.name = "hog"}, ".org 0x1000\nspin: j spin\n");
  // ...must not prevent a sibling from finishing.
  std::string prog = guest::ComputeProgram(50);
  Vm* victim = BootVm(host, VmConfig{.name = "victim"}, prog);
  ASSERT_TRUE(host.RunUntilVmStops(victim, kSimTicksPerSec));
  EXPECT_EQ(victim->state(), VmState::kShutdown);
  EXPECT_EQ(hog->state(), VmState::kRunning);
}

TEST(HostileGuestTest, StackSmashIntoPageTablesOnlyHurtsSelf) {
  Host host;
  // Guest enables paging, then scribbles over its own page tables. It
  // crashes itself (fetch faults with a clobbered handler) but the host and
  // a sibling VM continue untouched.
  std::string prog = guest::ComputeProgram(200);
  Vm* good = BootVm(host, VmConfig{.name = "good"}, prog);
  Vm* evil = BootVm(host, {.name = "evil", .ram_bytes = 8u << 20},
                  std::string(guest::PagingBootPrelude().insert(0, ".org 0x1000\n_start:\n")) + R"(
    li t0, 0x80000
    li t1, 0
    sw t1, 0(t0)          ; wipe L1[0]: the identity map vanishes
    sfence
    nop
    halt
)");
  host.RunUntilVmStops(evil, kSimTicksPerSec);
  EXPECT_EQ(evil->state(), VmState::kCrashed);
  ASSERT_TRUE(host.RunUntilVmStops(good, 2 * kSimTicksPerSec));
  EXPECT_EQ(good->state(), VmState::kShutdown);
}

TEST(HostileGuestTest, PioDeviceAbuse) {
  Host host;
  auto disk = std::make_shared<storage::MemBlockStore>(64);
  VmConfig cfg{.name = "pio-abuse"};
  cfg.disk_model = IoModel::kEmulated;
  cfg.disk = disk;
  // Data-port access outside a transfer and commands while busy fault the
  // guest (handled), never the host.
  Vm* vm = BootVm(host, cfg, std::string(kFaultTolerantBoot) + R"(
    li gp, 0xF0010000
    li t1, 8
    sw t1, 0x04(gp)        ; COUNT=8
    li t2, 1200            ; write past the 8-sector buffer
flood:
    sw t2, 0x10(gp)
    addi t2, t2, -1
    bnez t2, flood
    li a0, 4
    hcall
    halt
)");
  ASSERT_TRUE(host.RunUntilVmStops(vm, 10 * kSimTicksPerSec));
  EXPECT_EQ(vm->state(), VmState::kShutdown);
  auto image = guest::Build(std::string(kFaultTolerantBoot) + "halt\n");
  uint32_t faults = vm->memory().ReadU32(*image->SymbolAddress("faults")).value_or(0);
  EXPECT_GT(faults, 0u);  // overflow writes faulted, guest kept going
}

}  // namespace
}  // namespace hyperion

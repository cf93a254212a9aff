// HV32: hyperion's guest instruction-set architecture.
//
// HV32 is a small 32-bit RISC machine purpose-built for virtualization
// research: fixed 32-bit instructions, 16 GPRs, two privilege levels
// (user/supervisor), a CSR file, precise traps, and 2-level 4 KiB paging
// with optional 4 MiB superpages. It stands in for x86/ARM in all
// experiments (DESIGN.md §1): every classic VMM mechanism — trap-and-
// emulate, shadow vs. nested paging, MMIO exits, hypercalls — exercises
// the same code paths it would on real hardware.
//
// Instruction word layout (MSB..LSB):
//   [31:26] opcode   [25:22] rd   [21:18] rs1   [17:14] rs2   [13:0] imm14/funct
// Formats that need a wider immediate (LUI/AUIPC/JAL) reuse rs1/rs2 bits:
//   [31:26] opcode   [25:22] rd   [17:0] imm18

#ifndef SRC_ISA_HV32_H_
#define SRC_ISA_HV32_H_

#include <cstdint>
#include <string>

#include "src/util/status.h"

namespace hyperion::isa {

// ---------------------------------------------------------------------------
// Architectural constants
// ---------------------------------------------------------------------------

inline constexpr int kNumGprs = 16;
inline constexpr uint32_t kInstrBytes = 4;

// Register ABI names (r0 is hardwired to zero).
enum Gpr : uint8_t {
  kZero = 0,  // always reads 0; writes discarded
  kRa = 1,    // return address
  kSp = 2,    // stack pointer
  kGp = 3,    // global pointer
  kA0 = 4,    // argument / return 0
  kA1 = 5,
  kA2 = 6,
  kA3 = 7,
  kT0 = 8,    // temporaries
  kT1 = 9,
  kT2 = 10,
  kT3 = 11,
  kS0 = 12,   // saved
  kS1 = 13,
  kS2 = 14,
  kS3 = 15,
};

enum class PrivMode : uint8_t { kUser = 0, kSupervisor = 1 };

// Paging geometry: 32-bit VA, two levels, 4 KiB pages, 4 MiB superpages.
inline constexpr uint32_t kPageBits = 12;
inline constexpr uint32_t kPageSize = 1u << kPageBits;       // 4096
inline constexpr uint32_t kPtIndexBits = 10;                 // 1024 PTEs per table
inline constexpr uint32_t kPtEntries = 1u << kPtIndexBits;
inline constexpr uint32_t kSuperPageBits = kPageBits + kPtIndexBits;  // 22
inline constexpr uint32_t kSuperPageSize = 1u << kSuperPageBits;      // 4 MiB

inline constexpr uint32_t VaL1Index(uint32_t va) { return va >> 22; }
inline constexpr uint32_t VaL2Index(uint32_t va) { return (va >> 12) & (kPtEntries - 1); }
inline constexpr uint32_t VaPageOffset(uint32_t va) { return va & (kPageSize - 1); }
inline constexpr uint32_t PageNumber(uint32_t addr) { return addr >> kPageBits; }
inline constexpr uint32_t PageBase(uint32_t addr) { return addr & ~(kPageSize - 1); }

// Page-table entry bits. A non-leaf L1 entry has V set and R=W=X=0.
struct Pte {
  static constexpr uint32_t kValid = 1u << 0;
  static constexpr uint32_t kRead = 1u << 1;
  static constexpr uint32_t kWrite = 1u << 2;
  static constexpr uint32_t kExec = 1u << 3;
  static constexpr uint32_t kUser = 1u << 4;
  static constexpr uint32_t kAccessed = 1u << 5;
  static constexpr uint32_t kDirty = 1u << 6;
  static constexpr uint32_t kGlobal = 1u << 7;

  static constexpr uint32_t kFlagsMask = (1u << kPageBits) - 1;

  static constexpr uint32_t Make(uint32_t ppn, uint32_t flags) {
    return (ppn << kPageBits) | (flags & kFlagsMask);
  }
  static constexpr uint32_t Ppn(uint32_t pte) { return pte >> kPageBits; }
  static constexpr uint32_t Flags(uint32_t pte) { return pte & kFlagsMask; }
  static constexpr bool IsValid(uint32_t pte) { return pte & kValid; }
  static constexpr bool IsLeaf(uint32_t pte) { return pte & (kRead | kWrite | kExec); }
};

// Guest-physical memory map. RAM starts at 0; the MMIO window sits high.
inline constexpr uint32_t kResetPc = 0x1000;
inline constexpr uint32_t kMmioBase = 0xF0000000u;
inline constexpr uint32_t kMmioLimit = 0xFFFFF000u;
inline constexpr bool IsMmio(uint32_t gpa) { return gpa >= kMmioBase && gpa < kMmioLimit; }

// ---------------------------------------------------------------------------
// Opcodes
// ---------------------------------------------------------------------------

enum class Opcode : uint8_t {
  kOp = 0,      // R-type ALU; AluOp in funct
  kOpImm = 1,   // I-type ALU; AluOp in the rs2 field, imm14
  kLui = 2,     // rd = imm18 << 14
  kAuipc = 3,   // rd = pc + (imm18 << 14)
  kJal = 4,     // rd = pc+4; pc += imm18*4
  kJalr = 5,    // rd = pc+4; pc = (rs1 + imm14) & ~3
  kBranch = 6,  // BranchCond in the rd field; if (rs1 ? rs2) pc += imm14*4
  kLw = 7,
  kLh = 8,
  kLhu = 9,
  kLb = 10,
  kLbu = 11,
  kSw = 12,     // mem[rs1+imm14] = rd  (store value lives in the rd field)
  kSh = 13,
  kSb = 14,
  kCsrrw = 15,  // rd = csr; csr = rs1        (csr number in imm14)
  kCsrrs = 16,  // rd = csr; csr |= rs1
  kCsrrc = 17,  // rd = csr; csr &= ~rs1
  kEcall = 18,  // environment call (guest syscall)
  kEbreak = 19,
  kSret = 20,   // return from trap (privileged)
  kWfi = 21,    // wait for interrupt (privileged)
  kHcall = 22,  // hypercall to the VMM; number in a0, args a1..a3
  kSfence = 23, // TLB flush (privileged); rs1!=zero flushes one VA
  kHalt = 24,   // stop the virtual machine (privileged)
  kAmoSwap = 25, // rd = mem[rs1]; mem[rs1] = rs2   (word, rs1 4-aligned)
  kAmoAdd = 26,  // rd = mem[rs1]; mem[rs1] += rs2  (word, rs1 4-aligned)

  kMaxOpcode = kAmoAdd,
  kIllegal = 63,
};

enum class AluOp : uint8_t {
  kAdd = 0,
  kSub = 1,
  kAnd = 2,
  kOr = 3,
  kXor = 4,
  kSll = 5,
  kSrl = 6,
  kSra = 7,
  kSlt = 8,
  kSltu = 9,
  kMul = 10,
  kMulhu = 11,
  kDiv = 12,
  kDivu = 13,
  kRem = 14,
  kRemu = 15,
};

enum class BranchCond : uint8_t {
  kEq = 0,
  kNe = 1,
  kLt = 2,
  kGe = 3,
  kLtu = 4,
  kGeu = 5,
};

// ---------------------------------------------------------------------------
// Control and status registers
// ---------------------------------------------------------------------------

enum class Csr : uint16_t {
  kStatus = 0x000,
  kCause = 0x001,
  kEpc = 0x002,
  kTvec = 0x003,   // trap vector base
  kTval = 0x004,   // faulting address / instruction
  kScratch = 0x005,
  kPtbr = 0x006,   // root page-table guest-physical page number
  kTime = 0x010,   // read-only simulated time
  kTimecmp = 0x011,// timer interrupt when time >= timecmp
  kCycle = 0x012,  // read-only retired-cycle counter
  kInstret = 0x013,// read-only retired-instruction counter
  kHartid = 0x014, // read-only vCPU index
  kIpend = 0x020,  // pending interrupt bits (read-only mirror)
};

// STATUS register bit layout.
struct StatusBits {
  static constexpr uint32_t kIe = 1u << 0;    // interrupts enabled
  static constexpr uint32_t kPie = 1u << 1;   // previous IE (stacked on trap)
  static constexpr uint32_t kPrv = 1u << 2;   // current privilege (1 = supervisor)
  static constexpr uint32_t kPprv = 1u << 3;  // previous privilege
  static constexpr uint32_t kPg = 1u << 4;    // paging enabled
};

// Interrupt lines, as bit indices in IPEND and in trap causes.
enum class Interrupt : uint8_t { kTimer = 0, kExternal = 1, kSoftware = 2 };

// Trap causes. Interrupt causes have kInterruptFlag set.
enum class TrapCause : uint32_t {
  kInstrMisaligned = 0,
  kInstrPageFault = 1,
  kIllegalInstruction = 2,
  kBreakpoint = 3,
  kLoadMisaligned = 4,
  kLoadPageFault = 5,
  kStoreMisaligned = 6,
  kStorePageFault = 7,
  kEcallFromUser = 8,
  kEcallFromSupervisor = 9,
  kPrivilegeViolation = 10,

  kInterruptFlag = 0x80000000u,
  kTimerInterrupt = kInterruptFlag | static_cast<uint32_t>(Interrupt::kTimer),
  kExternalInterrupt = kInterruptFlag | static_cast<uint32_t>(Interrupt::kExternal),
  kSoftwareInterrupt = kInterruptFlag | static_cast<uint32_t>(Interrupt::kSoftware),
};

inline constexpr bool IsInterruptCause(TrapCause c) {
  return static_cast<uint32_t>(c) & static_cast<uint32_t>(TrapCause::kInterruptFlag);
}

// ---------------------------------------------------------------------------
// Decoded instruction
// ---------------------------------------------------------------------------

// A fully decoded instruction. Branch/JAL immediates are pre-scaled to byte
// offsets; CSR numbers arrive in `imm`.
struct Instruction {
  Opcode opcode = Opcode::kIllegal;
  uint8_t rd = 0;
  uint8_t rs1 = 0;
  uint8_t rs2 = 0;
  int32_t imm = 0;    // sign-extended; byte-scaled for kBranch/kJal
  uint8_t funct = 0;  // AluOp for kOp/kOpImm; BranchCond for kBranch

  bool operator==(const Instruction&) const = default;
};

// Encodes a decoded instruction back into a 32-bit word. Fails if a field is
// out of range (e.g. an immediate that does not fit).
Result<uint32_t> Encode(const Instruction& instr);

// Decodes one instruction word. Never fails: unknown opcodes decode to
// Opcode::kIllegal, which the CPU turns into an illegal-instruction trap.
Instruction Decode(uint32_t word);

// Human-readable rendering, e.g. "add a0, a1, t0" or "lw a0, 8(sp)".
std::string Disassemble(const Instruction& instr);

// Register name for operand `r`, e.g. "a0" / "sp".
std::string_view GprName(uint8_t r);
// CSR name, or "csr0x###" for unknown numbers.
std::string CsrName(uint16_t csr);

// True when this opcode may only execute in supervisor mode.
inline constexpr bool IsPrivileged(Opcode op) {
  return op == Opcode::kSret || op == Opcode::kWfi || op == Opcode::kSfence ||
         op == Opcode::kHalt || op == Opcode::kHcall;
}

// Hypercall numbers (passed in a0). The ABI returns a result in a0.
enum class Hypercall : uint32_t {
  kConsolePutChar = 0,   // a1 = character
  kConsoleWrite = 1,     // a1 = gva of buffer, a2 = length
  kYield = 2,            // relinquish the vCPU timeslice
  kGetTimeUs = 3,        // returns simulated microseconds in a0
  kShutdown = 4,         // graceful power-off
  kBalloonInflate = 5,   // a1 = gpa page number to give back to host
  kBalloonDeflate = 6,   // a1 = gpa page number to reclaim from host
  kVirtioKick = 7,       // a1 = device slot, a2 = queue index
  kLogValue = 8,         // a1 = value; VMM records it (test instrumentation)
  kBalloonGetTarget = 9, // returns the host's balloon target (pages) in a0
  kStartVcpu = 10,       // a1 = vcpu index, a2 = entry pc, a3 = arg (in a0)
  kVcpuCount = 11,       // returns the VM's vCPU count in a0
};

}  // namespace hyperion::isa

#endif  // SRC_ISA_HV32_H_

#include "src/verify/hvlint.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>

#include "src/devices/mmio.h"
#include "src/isa/hv32.h"

namespace hyperion::verify {
namespace {

using isa::Instruction;
using isa::Opcode;

// Virtio windows the platform maps (kVirtioBase + slot * stride).
constexpr uint32_t kMaxVirtioSlots = 8;
// Safety valve for the abstract interpreter (well above any real guest).
constexpr size_t kMaxSteps = 1u << 20;

// ---------------------------------------------------------------------------
// Abstract machine state
// ---------------------------------------------------------------------------

// Per-register constant lattice: unvisited (bottom) < known constant < unknown
// (top). `nullopt` is top; bottom exists only implicitly (pcs not yet in the
// join map). The stack pointer additionally carries a symbolic
// "function entry + delta" shape so balance is checkable even though the
// absolute stack base is unknown.
struct AbsState {
  std::array<std::optional<uint32_t>, isa::kNumGprs> reg;
  bool sp_rel = false;    // sp == (sp at function entry) + sp_delta
  int32_t sp_delta = 0;   // meaningful only when sp_rel

  // Wake-source tracking for the wfi rule, tri-state: -1 unknown, 0 provably
  // off, 1 provably on. Both start provably off only at cold (reset) entry
  // points, where the architecture guarantees STATUS == 0 and TIMECMP == 0.
  int8_t ie = -1;           // STATUS.IE
  int8_t timer_armed = -1;  // TIMECMP nonzero

  bool operator==(const AbsState&) const = default;
};

// Tri-state meet: agreement survives, disagreement degrades to unknown.
bool MeetTri(int8_t& into, int8_t from) {
  if (into != -1 && from != into) {
    into = -1;
    return true;
  }
  return false;
}

AbsState FunctionEntryState() {
  AbsState s;
  s.reg[isa::kZero] = 0;
  s.sp_rel = true;
  s.sp_delta = 0;
  return s;
}

// Lattice meet at control-flow joins: agreeing constants survive, anything
// else degrades to unknown. Returns true when `into` changed.
bool MeetInto(AbsState& into, const AbsState& from) {
  bool changed = false;
  for (int r = 1; r < isa::kNumGprs; ++r) {
    if (into.reg[r].has_value() &&
        (!from.reg[r].has_value() || *from.reg[r] != *into.reg[r])) {
      into.reg[r].reset();
      changed = true;
    }
  }
  if (into.sp_rel && (!from.sp_rel || from.sp_delta != into.sp_delta)) {
    into.sp_rel = false;
    changed = true;
  }
  changed |= MeetTri(into.ie, from.ie);
  changed |= MeetTri(into.timer_armed, from.timer_armed);
  return changed;
}

// Mirror of the execution core's ALU so constant propagation matches runtime
// behaviour exactly (shift masking, division edge cases).
uint32_t FoldAlu(isa::AluOp op, uint32_t a, uint32_t b) {
  using isa::AluOp;
  switch (op) {
    case AluOp::kAdd: return a + b;
    case AluOp::kSub: return a - b;
    case AluOp::kAnd: return a & b;
    case AluOp::kOr: return a | b;
    case AluOp::kXor: return a ^ b;
    case AluOp::kSll: return a << (b & 31);
    case AluOp::kSrl: return a >> (b & 31);
    case AluOp::kSra: return static_cast<uint32_t>(static_cast<int32_t>(a) >> (b & 31));
    case AluOp::kSlt: return static_cast<int32_t>(a) < static_cast<int32_t>(b) ? 1 : 0;
    case AluOp::kSltu: return a < b ? 1 : 0;
    case AluOp::kMul: return a * b;
    case AluOp::kMulhu:
      return static_cast<uint32_t>((static_cast<uint64_t>(a) * b) >> 32);
    case AluOp::kDiv: {
      auto sa = static_cast<int32_t>(a);
      auto sb = static_cast<int32_t>(b);
      if (sb == 0) return UINT32_MAX;
      if (sa == INT32_MIN && sb == -1) return static_cast<uint32_t>(INT32_MIN);
      return static_cast<uint32_t>(sa / sb);
    }
    case AluOp::kDivu: return b == 0 ? UINT32_MAX : a / b;
    case AluOp::kRem: {
      auto sa = static_cast<int32_t>(a);
      auto sb = static_cast<int32_t>(b);
      if (sb == 0) return a;
      if (sa == INT32_MIN && sb == -1) return 0;
      return static_cast<uint32_t>(sa % sb);
    }
    case AluOp::kRemu: return b == 0 ? a : a % b;
  }
  return 0;
}

int AccessSize(Opcode op) {
  switch (op) {
    case Opcode::kLw:
    case Opcode::kSw: return 4;
    case Opcode::kLh:
    case Opcode::kLhu:
    case Opcode::kSh: return 2;
    default: return 1;
  }
}

bool IsLoad(Opcode op) {
  return op >= Opcode::kLw && op <= Opcode::kLbu;
}
bool IsCsr(Opcode op) {
  return op == Opcode::kCsrrw || op == Opcode::kCsrrs || op == Opcode::kCsrrc;
}

// CSRs whose writes the execution core silently ignores (exec_core.h
// WriteCsr); a guest storing to one always indicates a bug.
bool IsReadOnlyCsr(isa::Csr csr) {
  switch (csr) {
    case isa::Csr::kTime:
    case isa::Csr::kCycle:
    case isa::Csr::kInstret:
    case isa::Csr::kHartid:
    case isa::Csr::kIpend:
      return true;
    default:
      return false;
  }
}

std::string Hex(uint32_t v) {
  std::ostringstream os;
  os << "0x" << std::hex << v;
  return os.str();
}

// ---------------------------------------------------------------------------
// The verifier
// ---------------------------------------------------------------------------

// One control-flow discovery root: a declared entry point, a call target, a
// trap vector installed via `csrw tvec`, or a secondary-vCPU entry passed to
// the kStartVcpu hypercall. Each root is analysed as its own function with a
// fresh sp epoch.
struct Root {
  uint32_t pc = 0;
  isa::PrivMode priv = isa::PrivMode::kSupervisor;
  // Cold roots start in the architectural reset state (STATUS == 0,
  // TIMECMP == 0): the image entry, declared `.entry` points, and secondary
  // vCPUs started via kStartVcpu. Call targets and trap vectors are warm —
  // their CSR state is whatever the caller left behind. Not part of the
  // dedup key: a pc analysed cold subsumes the warm analysis only in the
  // unsound direction, so first-queued wins and duplicates are dropped.
  bool cold = false;

  bool operator<(const Root& o) const {
    return pc != o.pc ? pc < o.pc : priv < o.priv;
  }
};

class Linter {
 public:
  Linter(const assembler::Image& image, const LintOptions& options)
      : image_(image), options_(options) {}

  LintReport Run() {
    std::set<Root> queued;
    auto add_root = [&](uint32_t pc, isa::PrivMode priv, bool cold) {
      if (queued.insert({pc, priv}).second) {
        pending_roots_.push_back({pc, priv, cold});
      }
    };

    add_root(image_.entry(), isa::PrivMode::kSupervisor, /*cold=*/true);
    for (const assembler::EntryPoint& e : image_.entry_points) {
      add_root(e.addr, e.priv, /*cold=*/true);
    }
    discovered_ = add_root;

    while (!pending_roots_.empty() && steps_ < kMaxSteps) {
      Root root = pending_roots_.front();
      pending_roots_.pop_front();
      AnalyzeFunction(root);
    }
    if (steps_ >= kMaxSteps) {
      Diag(Severity::kWarning, "analysis-limit", image_.entry(),
           "abstract interpretation step budget exhausted; image only "
           "partially verified");
    }

    report_.reachable_instructions = static_cast<uint32_t>(reachable_.size());
    std::sort(report_.diagnostics.begin(), report_.diagnostics.end(),
              [](const Diagnostic& a, const Diagnostic& b) {
                return a.pc != b.pc ? a.pc < b.pc : a.rule < b.rule;
              });
    return std::move(report_);
  }

 private:
  // Valid instruction start: inside the image, word-sized slot available.
  bool InImage(uint32_t pc) const {
    uint32_t end = image_.base + static_cast<uint32_t>(image_.bytes.size());
    return pc >= image_.base && pc + isa::kInstrBytes <= end &&
           (pc - image_.base) % isa::kInstrBytes == 0;
  }

  uint32_t WordAt(uint32_t pc) const {
    size_t off = pc - image_.base;
    return static_cast<uint32_t>(image_.bytes[off]) |
           static_cast<uint32_t>(image_.bytes[off + 1]) << 8 |
           static_cast<uint32_t>(image_.bytes[off + 2]) << 16 |
           static_cast<uint32_t>(image_.bytes[off + 3]) << 24;
  }

  void Diag(Severity sev, std::string_view rule, uint32_t pc, std::string msg) {
    if (!emitted_.insert({std::string(rule), pc}).second) {
      return;  // one finding per (rule, pc) across all roots
    }
    report_.diagnostics.push_back(
        {sev, std::string(rule), pc, std::move(msg)});
  }

  static void SetReg(AbsState& s, uint8_t rd, std::optional<uint32_t> v) {
    if (rd == isa::kZero) {
      return;
    }
    s.reg[rd] = v;
    if (rd == isa::kSp) {
      // A direct write re-bases the stack; the old entry-relative offset is
      // dead. Known constants keep absolute tracking instead.
      s.sp_rel = false;
    }
  }

  // Flags writes whose result lands in the hardwired zero register. The
  // canonical nop (addi zero, zero, 0) and control-flow link discards
  // (j = jal zero, jr/ret = jalr zero) are legitimate encodings.
  void CheckR0Write(const Instruction& in, uint32_t pc) {
    if (in.rd != isa::kZero) {
      return;
    }
    bool is_nop = in.opcode == Opcode::kOpImm &&
                  static_cast<isa::AluOp>(in.funct) == isa::AluOp::kAdd &&
                  in.rs1 == isa::kZero && in.imm == 0;
    if (is_nop) {
      return;
    }
    if (in.opcode == Opcode::kOp || in.opcode == Opcode::kOpImm ||
        in.opcode == Opcode::kLui || in.opcode == Opcode::kAuipc ||
        IsLoad(in.opcode)) {
      Diag(Severity::kError, "r0-write", pc,
           "result of '" + isa::Disassemble(in) +
               "' is discarded into the hardwired zero register");
    }
  }

  void CheckMemAccess(const Instruction& in, const AbsState& s, uint32_t pc) {
    if (!options_.check_mmio || !s.reg[in.rs1].has_value()) {
      return;
    }
    uint32_t addr = *s.reg[in.rs1] + static_cast<uint32_t>(in.imm);
    uint32_t size = static_cast<uint32_t>(AccessSize(in.opcode));
    if (addr % size != 0) {
      Diag(Severity::kError, "misaligned-access", pc,
           "access at " + Hex(addr) + " is not " + std::to_string(size) +
               "-byte aligned and will trap");
      return;
    }
    if (addr < isa::kMmioBase) {
      return;  // RAM; bounds depend on the VM configuration
    }
    struct Window {
      uint32_t base, len;
    };
    const Window windows[] = {
        {devices::kUartBase, devices::kDeviceWindow},
        {devices::kPicBase, devices::kDeviceWindow},
        {devices::kBlkBase, devices::kDeviceWindow},
        {devices::kNetBase, devices::kDeviceWindow},
        {devices::kVirtioBase, kMaxVirtioSlots * devices::kVirtioStride},
    };
    for (const Window& w : windows) {
      if (addr >= w.base && addr + size <= w.base + w.len) {
        return;
      }
    }
    Diag(Severity::kError, "mmio-out-of-window", pc,
         "device access at " + Hex(addr) +
             " is outside every mapped MMIO window");
  }

  void CheckReturnBalance(const AbsState& s, uint32_t pc, std::string_view where) {
    if (options_.check_sp && s.sp_rel && s.sp_delta != 0) {
      Diag(Severity::kError, "sp-imbalance", pc,
           std::string(where) + " with net stack-pointer offset " +
               std::to_string(s.sp_delta) + " (must be 0)");
    }
  }

  // Transfer function and rule set for the three CSR-access opcodes: flags
  // writes to read-only CSRs, discovers trap handlers installed via tvec,
  // and tracks the STATUS.IE / TIMECMP wake sources for the wfi rule.
  void StepCsr(const Instruction& in, AbsState& s, uint32_t pc) {
    const auto csr = static_cast<isa::Csr>(in.imm);
    const bool full_write = in.opcode == Opcode::kCsrrw;
    // csrrs/csrrc through the zero register is the canonical read idiom and
    // writes nothing. An unknown mask register may still hold 0, so the
    // write rule fires only on a full write or a provably nonzero mask.
    const std::optional<uint32_t> mask =
        in.rs1 == isa::kZero ? std::optional<uint32_t>(0) : s.reg[in.rs1];
    const bool has = mask.has_value();
    const bool nz = has && *mask != 0;

    if (IsReadOnlyCsr(csr) && (full_write || nz)) {
      Diag(Severity::kError, "write-to-readonly-csr", pc,
           "'" + isa::Disassemble(in) +
               "' writes a read-only CSR; the core silently ignores the "
               "store, so the guest's value is lost");
    }

    // Installing a trap vector with a known address reveals the handler:
    // verify it as a supervisor root.
    if (full_write && csr == isa::Csr::kTvec && s.reg[in.rs1].has_value()) {
      discovered_(*s.reg[in.rs1], isa::PrivMode::kSupervisor, /*cold=*/false);
    }

    if (csr == isa::Csr::kStatus) {
      const bool bit = has && (*mask & isa::StatusBits::kIe) != 0;
      switch (in.opcode) {
        case Opcode::kCsrrw:
          s.ie = has ? (bit ? 1 : 0) : -1;
          break;
        case Opcode::kCsrrs:  // sets bits: can only turn IE on
          if (bit) {
            s.ie = 1;
          } else if (!has && s.ie != 1) {
            s.ie = -1;
          }
          break;
        case Opcode::kCsrrc:  // clears bits: can only turn IE off
          if (bit) {
            s.ie = 0;
          } else if (!has && s.ie != 0) {
            s.ie = -1;
          }
          break;
        default:
          break;
      }
    } else if (csr == isa::Csr::kTimecmp) {
      switch (in.opcode) {
        case Opcode::kCsrrw:
          s.timer_armed = has ? (nz ? 1 : 0) : -1;
          break;
        case Opcode::kCsrrs:
          if (nz) {
            s.timer_armed = 1;
          } else if (!has && s.timer_armed != 1) {
            s.timer_armed = -1;
          }
          break;
        case Opcode::kCsrrc:
          if ((nz || !has) && s.timer_armed != 0) {
            s.timer_armed = -1;
          }
          break;
        default:
          break;
      }
    }
  }

  // Propagate `out` into `succ`, enqueueing it if the joined state changed.
  // `kind` distinguishes the diagnostic when the successor leaves the image.
  void FlowTo(uint32_t from_pc, uint32_t succ, const AbsState& out, bool is_jump) {
    if (succ % isa::kInstrBytes != 0) {
      Diag(Severity::kError, "jump-out-of-range", from_pc,
           "jump target " + Hex(succ) + " is not instruction-aligned");
      return;
    }
    if (!InImage(succ)) {
      if (is_jump) {
        Diag(Severity::kError, "jump-out-of-range", from_pc,
             "jump target " + Hex(succ) + " is outside the image [" +
                 Hex(image_.base) + ", " +
                 Hex(image_.base + static_cast<uint32_t>(image_.bytes.size())) +
                 ")");
      } else {
        Diag(Severity::kError, "fallthrough-off-image", from_pc,
             "execution falls through to " + Hex(succ) +
                 ", which is outside the image");
      }
      return;
    }
    auto it = joined_->find(succ);
    if (it == joined_->end()) {
      joined_->emplace(succ, out);
      worklist_->push_back(succ);
    } else if (MeetInto(it->second, out)) {
      worklist_->push_back(succ);
    }
  }

  void AnalyzeFunction(const Root& root) {
    std::unordered_map<uint32_t, AbsState> joined;
    std::deque<uint32_t> worklist;
    joined_ = &joined;
    worklist_ = &worklist;

    // The root pc itself flows like a jump target (diagnose bad `.entry`).
    AbsState entry = FunctionEntryState();
    if (root.cold) {
      entry.ie = 0;
      entry.timer_armed = 0;
    }
    FlowTo(root.pc, root.pc, entry, /*is_jump=*/true);

    while (!worklist.empty()) {
      if (++steps_ >= kMaxSteps) {
        return;
      }
      uint32_t pc = worklist.front();
      worklist.pop_front();
      AbsState s = joined.at(pc);
      reachable_.insert(pc);
      Step(root, pc, s);
    }
  }

  // Transfer function for one instruction: applies the rule set, updates the
  // abstract state, and flows it to every successor.
  void Step(const Root& root, uint32_t pc, AbsState s) {
    const Instruction in = isa::Decode(WordAt(pc));
    const bool user = root.priv == isa::PrivMode::kUser;

    if (in.opcode == Opcode::kIllegal) {
      Diag(Severity::kError, "illegal-encoding", pc,
           "word " + Hex(WordAt(pc)) + " does not decode to a valid instruction");
      return;  // execution traps here; no successors
    }
    if (user && (isa::IsPrivileged(in.opcode) || IsCsr(in.opcode))) {
      Diag(Severity::kError, "privileged-in-user", pc,
           "'" + isa::Disassemble(in) +
               "' is supervisor-only but reachable from user-mode entry '" +
               root_name(root) + "'");
      // Keep walking: report every privileged site, not just the first.
    }
    CheckR0Write(in, pc);

    switch (in.opcode) {
      case Opcode::kOp: {
        std::optional<uint32_t> v;
        if (s.reg[in.rs1] && s.reg[in.rs2]) {
          v = FoldAlu(static_cast<isa::AluOp>(in.funct), *s.reg[in.rs1],
                      *s.reg[in.rs2]);
        }
        SetReg(s, in.rd, v);
        break;
      }
      case Opcode::kOpImm: {
        auto op = static_cast<isa::AluOp>(in.funct);
        // `addi sp, sp, imm` with an unknown base adjusts the symbolic
        // entry-relative offset instead of killing it.
        if (op == isa::AluOp::kAdd && in.rd == isa::kSp &&
            in.rs1 == isa::kSp && !s.reg[isa::kSp] && s.sp_rel) {
          s.sp_delta += in.imm;
          break;
        }
        std::optional<uint32_t> v;
        if (s.reg[in.rs1]) {
          v = FoldAlu(op, *s.reg[in.rs1], static_cast<uint32_t>(in.imm));
        }
        SetReg(s, in.rd, v);
        break;
      }
      case Opcode::kLui:
        SetReg(s, in.rd, static_cast<uint32_t>(in.imm));
        break;
      case Opcode::kAuipc:
        SetReg(s, in.rd, pc + static_cast<uint32_t>(in.imm));
        break;

      case Opcode::kJal: {
        uint32_t target = pc + static_cast<uint32_t>(in.imm);
        if (in.rd == isa::kZero) {
          FlowTo(pc, target, s, /*is_jump=*/true);  // plain `j`
          return;
        }
        // A call: the callee becomes its own verification root and the
        // caller resumes with caller-saved state clobbered. Balance of the
        // callee is checked in its own analysis, so sp survives the call.
        if (InImage(target) && target % isa::kInstrBytes == 0) {
          discovered_(target, root.priv, /*cold=*/false);
        } else {
          FlowTo(pc, target, s, /*is_jump=*/true);  // diagnose; no new root
          return;
        }
        ClobberForCall(s);
        FlowTo(pc, pc + isa::kInstrBytes, s, /*is_jump=*/false);
        return;
      }
      case Opcode::kJalr: {
        if (s.reg[in.rs1]) {
          uint32_t target = (*s.reg[in.rs1] + static_cast<uint32_t>(in.imm)) & ~3u;
          if (in.rd == isa::kZero) {
            FlowTo(pc, target, s, /*is_jump=*/true);
            return;
          }
          if (InImage(target)) {
            discovered_(target, root.priv, /*cold=*/false);
          } else {
            FlowTo(pc, target, s, /*is_jump=*/true);
            return;
          }
          ClobberForCall(s);
          FlowTo(pc, pc + isa::kInstrBytes, s, /*is_jump=*/false);
          return;
        }
        if (in.rd == isa::kZero && in.rs1 == isa::kRa) {
          // `ret` through an unknown return address: end of the function.
          CheckReturnBalance(s, pc, "return");
          return;
        }
        if (in.rd != isa::kZero) {
          // Computed call to an unknown target: assume it returns balanced.
          ClobberForCall(s);
          FlowTo(pc, pc + isa::kInstrBytes, s, /*is_jump=*/false);
          return;
        }
        return;  // computed jump we cannot follow; admitted unchecked
      }
      case Opcode::kBranch: {
        FlowTo(pc, pc + static_cast<uint32_t>(in.imm), s, /*is_jump=*/true);
        FlowTo(pc, pc + isa::kInstrBytes, s, /*is_jump=*/false);
        return;
      }

      case Opcode::kLw:
      case Opcode::kLh:
      case Opcode::kLhu:
      case Opcode::kLb:
      case Opcode::kLbu:
        CheckMemAccess(in, s, pc);
        SetReg(s, in.rd, std::nullopt);
        break;
      case Opcode::kSw:
      case Opcode::kSh:
      case Opcode::kSb:
        CheckMemAccess(in, s, pc);
        break;

      case Opcode::kCsrrw:
      case Opcode::kCsrrs:
      case Opcode::kCsrrc:
        StepCsr(in, s, pc);
        SetReg(s, in.rd, std::nullopt);
        break;

      case Opcode::kEcall:
      case Opcode::kEbreak:
        // Traps to the guest kernel; resumes here with handler-clobbered
        // registers. The stack pointer is assumed restored by the handler.
        ClobberForCall(s);
        break;

      case Opcode::kHcall:
        // A hypercall that starts a secondary vCPU names its entry pc in a2.
        if (s.reg[isa::kA0] &&
            *s.reg[isa::kA0] == static_cast<uint32_t>(isa::Hypercall::kStartVcpu) &&
            s.reg[isa::kA2].has_value()) {
          discovered_(*s.reg[isa::kA2], isa::PrivMode::kSupervisor, /*cold=*/true);
        }
        SetReg(s, isa::kA0, std::nullopt);  // ABI: result in a0, rest preserved
        break;

      case Opcode::kSret:
        CheckReturnBalance(s, pc, "trap return");
        return;  // target is epc; not statically known
      case Opcode::kHalt:
        return;
      case Opcode::kWfi:
        // Cold path with interrupts globally disabled and no timer armed:
        // this wfi has no self-wake source. It parks until some *external*
        // agent (another vCPU's kWakeVcpu, a device raising a pending bit,
        // the VMM) intervenes — usually a forgotten `csrw timecmp` or
        // STATUS.IE enable. Advisory because parking forever on purpose is
        // a legitimate idiom (e.g. a finished worker loop).
        if (s.ie == 0 && s.timer_armed == 0) {
          Diag(Severity::kWarning, "wfi-without-enabled-interrupts", pc,
               "wfi with interrupts disabled (STATUS.IE = 0) and no timer "
               "armed (TIMECMP = 0): the vCPU can only be woken externally");
        }
        break;
      case Opcode::kSfence:
        break;

      case Opcode::kIllegal:
      default:
        return;
    }
    FlowTo(pc, pc + isa::kInstrBytes, s, /*is_jump=*/false);
  }

  // Register state surviving a call: only the hardwired zero and the stack
  // pointer (whose balance the callee's own analysis enforces).
  static void ClobberForCall(AbsState& s) {
    auto sp = s.reg[isa::kSp];
    bool sp_rel = s.sp_rel;
    int32_t sp_delta = s.sp_delta;
    s = AbsState{};
    s.reg[isa::kZero] = 0;
    s.reg[isa::kSp] = sp;
    s.sp_rel = sp_rel;
    s.sp_delta = sp_delta;
  }

  std::string root_name(const Root& root) const {
    for (const assembler::EntryPoint& e : image_.entry_points) {
      if (e.addr == root.pc && e.priv == root.priv) {
        return e.name;
      }
    }
    return Hex(root.pc);
  }

  const assembler::Image& image_;
  const LintOptions& options_;
  LintReport report_;
  std::set<std::pair<std::string, uint32_t>> emitted_;
  std::set<uint32_t> reachable_;
  std::deque<Root> pending_roots_;
  std::function<void(uint32_t, isa::PrivMode, bool)> discovered_;
  std::unordered_map<uint32_t, AbsState>* joined_ = nullptr;
  std::deque<uint32_t>* worklist_ = nullptr;
  size_t steps_ = 0;
};

}  // namespace

std::string_view SeverityName(Severity severity) {
  return severity == Severity::kError ? "error" : "warning";
}

std::string Diagnostic::ToString() const {
  std::ostringstream os;
  os << "0x" << std::hex << pc << std::dec << ": " << SeverityName(severity)
     << "[" << rule << "]: " << message;
  return os.str();
}

size_t LintReport::errors() const {
  size_t n = 0;
  for (const Diagnostic& d : diagnostics) {
    if (d.severity == Severity::kError) {
      ++n;
    }
  }
  return n;
}

std::string LintReport::ToString() const {
  std::ostringstream os;
  for (const Diagnostic& d : diagnostics) {
    os << d.ToString() << "\n";
  }
  os << reachable_instructions << " reachable instruction(s), "
     << errors() << " error(s), " << diagnostics.size() - errors()
     << " warning(s)\n";
  return os.str();
}

LintReport LintImage(const assembler::Image& image, const LintOptions& options) {
  return Linter(image, options).Run();
}

Status VerifyImage(const assembler::Image& image, const LintOptions& options) {
  LintReport report = LintImage(image, options);
  if (report.ok()) {
    return OkStatus();
  }
  return InvalidArgumentError("hvlint rejected image:\n" + report.ToString());
}

}  // namespace hyperion::verify

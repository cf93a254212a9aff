#include <array>
#include <cstdio>
#include <string>

#include "src/isa/hv32.h"

namespace hyperion::isa {

namespace {

constexpr std::array<std::string_view, kNumGprs> kGprNames = {
    "zero", "ra", "sp", "gp", "a0", "a1", "a2", "a3",
    "t0",   "t1", "t2", "t3", "s0", "s1", "s2", "s3"};

constexpr std::array<std::string_view, 16> kAluNames = {
    "add", "sub", "and", "or",  "xor", "sll", "srl",  "sra",
    "slt", "sltu", "mul", "mulhu", "div", "divu", "rem", "remu"};

constexpr std::array<std::string_view, 6> kBranchNames = {"beq", "bne", "blt",
                                                          "bge", "bltu", "bgeu"};

std::string Hex(int32_t v) {
  char buf[16];
  if (v < 0) {
    std::snprintf(buf, sizeof(buf), "-0x%x", static_cast<uint32_t>(-v));
  } else {
    std::snprintf(buf, sizeof(buf), "0x%x", static_cast<uint32_t>(v));
  }
  return buf;
}

std::string R(uint8_t r) { return std::string(GprName(r)); }

}  // namespace

std::string_view GprName(uint8_t r) {
  return r < kNumGprs ? kGprNames[r] : std::string_view("r?");
}

std::string CsrName(uint16_t csr) {
  switch (static_cast<Csr>(csr)) {
    case Csr::kStatus:
      return "status";
    case Csr::kCause:
      return "cause";
    case Csr::kEpc:
      return "epc";
    case Csr::kTvec:
      return "tvec";
    case Csr::kTval:
      return "tval";
    case Csr::kScratch:
      return "scratch";
    case Csr::kPtbr:
      return "ptbr";
    case Csr::kTime:
      return "time";
    case Csr::kTimecmp:
      return "timecmp";
    case Csr::kCycle:
      return "cycle";
    case Csr::kInstret:
      return "instret";
    case Csr::kHartid:
      return "hartid";
    case Csr::kIpend:
      return "ipend";
  }
  char buf[16];
  std::snprintf(buf, sizeof(buf), "csr0x%x", csr);
  return buf;
}

std::string Disassemble(const Instruction& i) {
  switch (i.opcode) {
    case Opcode::kOp:
      if (i.funct < kAluNames.size()) {
        return std::string(kAluNames[i.funct]) + " " + R(i.rd) + ", " + R(i.rs1) + ", " + R(i.rs2);
      }
      return "op.bad";
    case Opcode::kOpImm:
      if (i.funct < kAluNames.size()) {
        return std::string(kAluNames[i.funct]) + "i " + R(i.rd) + ", " + R(i.rs1) + ", " +
               Hex(i.imm);
      }
      return "opimm.bad";
    case Opcode::kLui:
      return "lui " + R(i.rd) + ", " + Hex(i.imm);
    case Opcode::kAuipc:
      return "auipc " + R(i.rd) + ", " + Hex(i.imm);
    case Opcode::kJal:
      return "jal " + R(i.rd) + ", " + Hex(i.imm);
    case Opcode::kJalr:
      return "jalr " + R(i.rd) + ", " + R(i.rs1) + ", " + Hex(i.imm);
    case Opcode::kBranch:
      if (i.funct < kBranchNames.size()) {
        return std::string(kBranchNames[i.funct]) + " " + R(i.rs1) + ", " + R(i.rs2) + ", " +
               Hex(i.imm);
      }
      return "branch.bad";
    case Opcode::kLw:
      return "lw " + R(i.rd) + ", " + Hex(i.imm) + "(" + R(i.rs1) + ")";
    case Opcode::kLh:
      return "lh " + R(i.rd) + ", " + Hex(i.imm) + "(" + R(i.rs1) + ")";
    case Opcode::kLhu:
      return "lhu " + R(i.rd) + ", " + Hex(i.imm) + "(" + R(i.rs1) + ")";
    case Opcode::kLb:
      return "lb " + R(i.rd) + ", " + Hex(i.imm) + "(" + R(i.rs1) + ")";
    case Opcode::kLbu:
      return "lbu " + R(i.rd) + ", " + Hex(i.imm) + "(" + R(i.rs1) + ")";
    case Opcode::kSw:
      return "sw " + R(i.rd) + ", " + Hex(i.imm) + "(" + R(i.rs1) + ")";
    case Opcode::kSh:
      return "sh " + R(i.rd) + ", " + Hex(i.imm) + "(" + R(i.rs1) + ")";
    case Opcode::kSb:
      return "sb " + R(i.rd) + ", " + Hex(i.imm) + "(" + R(i.rs1) + ")";
    case Opcode::kCsrrw:
      return "csrrw " + R(i.rd) + ", " + CsrName(static_cast<uint16_t>(i.imm)) + ", " + R(i.rs1);
    case Opcode::kCsrrs:
      return "csrrs " + R(i.rd) + ", " + CsrName(static_cast<uint16_t>(i.imm)) + ", " + R(i.rs1);
    case Opcode::kCsrrc:
      return "csrrc " + R(i.rd) + ", " + CsrName(static_cast<uint16_t>(i.imm)) + ", " + R(i.rs1);
    case Opcode::kEcall:
      return "ecall";
    case Opcode::kEbreak:
      return "ebreak";
    case Opcode::kSret:
      return "sret";
    case Opcode::kWfi:
      return "wfi";
    case Opcode::kHcall:
      return "hcall";
    case Opcode::kSfence:
      return i.rs1 == 0 ? "sfence" : "sfence " + R(i.rs1);
    case Opcode::kHalt:
      return "halt";
    case Opcode::kAmoSwap:
      return "amoswap " + R(i.rd) + ", " + R(i.rs1) + ", " + R(i.rs2);
    case Opcode::kAmoAdd:
      return "amoadd " + R(i.rd) + ", " + R(i.rs1) + ", " + R(i.rs2);
    default:
      return "illegal";
  }
}

}  // namespace hyperion::isa

#include "src/cpu/interpreter.h"

#include "src/cpu/exec_core.h"

namespace hyperion::cpu {

Interpreter::Interpreter() { decoded_.fill({0, isa::Decode(0)}); }

RunResult Interpreter::Run(VcpuContext& ctx, uint64_t max_cycles) {
  ExecCore core(ctx, this);
  CpuState& s = ctx.state;

  if (s.halted) {
    core.Exit(ExitReason::kHalt);
    return core.Finish();
  }
  if (s.waiting) {
    core.CheckTimer();
    if (s.ipend == 0) {
      core.Charge(1);  // the parked vCPU consumes (almost) nothing
      core.Exit(ExitReason::kWfi);
      return core.Finish();
    }
    s.waiting = false;
  }

  while (!core.exited() && core.cycles() < max_cycles) {
    core.CheckTimer();
    if (core.DeliverInterruptIfPending()) {
      if (core.exited()) {
        break;  // trap with no handler installed
      }
    }
    uint32_t word = 0;
    if (!core.Fetch(s.pc, &word)) {
      continue;  // trap vectored or exit latched
    }
    Slot& slot = decoded_[(s.pc >> 2) & (kDecodeSlots - 1)];
    if (slot.word != word) {
      slot = {word, isa::Decode(word)};
    }
    core.Execute(slot.in);
  }
  return core.Finish();
}

std::unique_ptr<ExecutionEngine> MakeInterpreter() { return std::make_unique<Interpreter>(); }

}  // namespace hyperion::cpu

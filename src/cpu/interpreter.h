// Fetch-decode-execute interpreter engine.

#ifndef SRC_CPU_INTERPRETER_H_
#define SRC_CPU_INTERPRETER_H_

#include <array>
#include <memory>

#include "src/cpu/context.h"
#include "src/isa/hv32.h"

namespace hyperion::cpu {

// Baseline execution engine: fetches every instruction through the full
// ExecCore path (translation, fast-path counters, faults, MMIO traps) on every
// execution, but decodes a word only when its cache slot holds another one.
// The direct-mapped cache, indexed by pc, holds {word, Decode(word)} pairs and
// is keyed by the fetched word itself, so any change to the code bytes
// (self-modifying code, COW break, KSM merge, migration, snapshot restore)
// misses and redecodes: nothing ever invalidates it. Simple and exactly
// faithful; the DBT engine trades memory for speed.
class Interpreter final : public ExecutionEngine {
 public:
  // Decode-cache size (a power of two): pcs kDecodeSlots words apart share a
  // slot and overwrite each other.
  static constexpr uint32_t kDecodeSlots = 1024;

  Interpreter();
  std::string_view name() const override { return "interpreter"; }
  RunResult Run(VcpuContext& ctx, uint64_t max_cycles) override;

 private:
  struct Slot {
    uint32_t word;
    isa::Instruction in;
  };
  std::array<Slot, kDecodeSlots> decoded_;
};

std::unique_ptr<ExecutionEngine> MakeInterpreter();

}  // namespace hyperion::cpu

#endif  // SRC_CPU_INTERPRETER_H_

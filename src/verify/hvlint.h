// hvlint: a static verifier for assembled HV32 guest images.
//
// Inspired by the eBPF verifier, hvlint admits or rejects an image *before*
// it is loaded into a VM. It discovers the control-flow graph from the
// image's entry points (the `_start` convention plus the `.entry` side table
// emitted by the assembler), decodes every reachable instruction, and checks
// a rule set over all paths using a small abstract interpreter that tracks
// per-register constants and the stack-pointer offset:
//
//   illegal-encoding      reachable word decodes to no valid instruction
//   jump-out-of-range     branch/jump target outside the image (or misaligned)
//   fallthrough-off-image execution can fall off the end of the image
//   r0-write              ALU/load result discarded into the hardwired zero
//                         register (always a bug; canonical `nop` is exempt)
//   privileged-in-user    CSR access or privileged opcode (sret/wfi/sfence/
//                         hcall/halt) reachable from a user-mode entry point
//   mmio-out-of-window    statically known device access outside the
//                         platform's mapped MMIO windows
//   misaligned-access     statically known load/store address not aligned to
//                         the access size (traps at runtime)
//   sp-imbalance          call/return or trap-handler path changes the net
//                         stack-pointer offset
//   write-to-readonly-csr csrrw (or csrrs/csrrc with a provably nonzero
//                         mask) targets a CSR the core ignores writes to
//                         (time/cycle/instret/hartid/ipend)
//   wfi-without-enabled-interrupts  (warning) wfi reachable from a cold
//                         entry with STATUS.IE provably 0 and TIMECMP
//                         provably unarmed: no self-wake source exists, so
//                         the vCPU parks until woken externally
//
// The analysis is conservative in the accepting direction: a rule only fires
// on facts it can prove (e.g. an MMIO address is checked only when the base
// register holds a known constant), so rejected images are genuinely broken
// while dynamic code the analysis cannot follow is admitted unchecked.

#ifndef SRC_VERIFY_HVLINT_H_
#define SRC_VERIFY_HVLINT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/asm/assembler.h"
#include "src/util/status.h"

namespace hyperion::verify {

enum class Severity : uint8_t { kWarning = 0, kError = 1 };

std::string_view SeverityName(Severity severity);

// One finding, anchored to the guest-physical address of the offending word.
struct Diagnostic {
  Severity severity = Severity::kError;
  std::string rule;     // stable rule identifier, e.g. "illegal-encoding"
  uint32_t pc = 0;
  std::string message;

  // "0x1010: error[r0-write]: add result discarded into zero register".
  std::string ToString() const;
};

struct LintOptions {
  bool check_sp = true;     // stack-pointer discipline on call/return paths
  bool check_mmio = true;   // wild device accesses
};

struct LintReport {
  std::vector<Diagnostic> diagnostics;
  // Distinct instruction words reached from the entry points.
  uint32_t reachable_instructions = 0;

  size_t errors() const;
  bool ok() const { return errors() == 0; }
  std::string ToString() const;
};

// Verifies `image`. Never fails outright: malformed input shows up as
// diagnostics in the report.
LintReport LintImage(const assembler::Image& image, const LintOptions& options = {});

// Admission gate: OkStatus() when the image passes, otherwise
// InvalidArgument carrying the rendered report.
Status VerifyImage(const assembler::Image& image, const LintOptions& options = {});

}  // namespace hyperion::verify

#endif  // SRC_VERIFY_HVLINT_H_

// Layer probes: cpu engines, isa decode and util CRC called directly,
// outside any Host, on the workload's own programs and pages. They give the
// per-layer rates that the end-to-end numbers are compared against.

#include <cstdio>
#include <cstring>

#include "hvbench/common.h"
#include "src/cpu/dbt.h"
#include "src/guest/programs.h"
#include "src/isa/hv32.h"
#include "src/mem/frame_pool.h"
#include "src/mem/guest_memory.h"
#include "src/mmu/virtualizer.h"
#include "src/util/crc32.h"

namespace hvbench {
namespace {

// Written once per probe pass so the decode and CRC loops are not elided.
volatile uint32_t g_probe_sink = 0;

// ComputeProgram iterations per probe run: ~1.2M guest instructions.
constexpr uint32_t kProbeIterations = 2000;
constexpr double kMinProbeSeconds = 0.03;

// One vCPU, its memory and one engine: the machine the cpu probes run.
class ProbeMachine {
 public:
  ProbeMachine(hv::cpu::EngineKind kind, const hv::cpu::DbtOptions& options,
               const hv::assembler::Image& image)
      : pool_(2 * kRamBytes / hv::isa::kPageSize + 64),
        memory_(std::move(hv::mem::GuestMemory::Create(&pool_, kRamBytes)).value()),
        virt_(hv::mmu::MakeVirtualizer(hv::mmu::PagingMode::kNested, memory_.get())),
        engine_(hv::cpu::MakeEngine(kind, options)),
        image_(image) {
    ctx_.memory = memory_.get();
    ctx_.virt = virt_.get();
    if (!memory_->Write(image.base, image.bytes.data(), image.bytes.size()).ok()) {
      std::fprintf(stderr, "probe image does not fit\n");
      std::exit(2);
    }
  }

  // Runs the program from its entry to its halt; returns guest
  // instructions retired, or 0 when it did not halt.
  uint64_t RunToHalt() {
    ctx_.state = hv::cpu::CpuState{};
    ctx_.state.pc = image_.entry();
    uint64_t before = ctx_.stats.instructions;
    for (uint64_t used = 0; used < kMaxCycles;) {
      ctx_.slice_start = used;
      hv::cpu::RunResult r = engine_->Run(ctx_, kMaxCycles - used);
      used += r.cycles;
      if (r.reason == hv::cpu::ExitReason::kHalt) {
        return ctx_.stats.instructions - before;
      }
      if (r.reason != hv::cpu::ExitReason::kBudget &&
          r.reason != hv::cpu::ExitReason::kHypercall) {
        break;
      }
    }
    return 0;
  }

  hv::cpu::ExecutionEngine& engine() { return *engine_; }
  hv::cpu::VcpuContext& ctx() { return ctx_; }

 private:
  static constexpr uint32_t kRamBytes = 1u << 20;
  static constexpr uint64_t kMaxCycles = 10'000'000'000ull;
  hv::mem::FramePool pool_;
  std::unique_ptr<hv::mem::GuestMemory> memory_;
  std::unique_ptr<hv::mmu::MemoryVirtualizer> virt_;
  std::unique_ptr<hv::cpu::ExecutionEngine> engine_;
  const hv::assembler::Image& image_;
  hv::cpu::VcpuContext ctx_;
};

// Median guest-MIPS of repeated runs of `run`, which returns the guest
// instructions it retired.
template <typename F>
double MedianMips(F&& run) {
  std::vector<double> mips;
  auto start = Clock::now();
  while (mips.size() < 3 || SecondsBetween(start, Clock::now()) < kMinProbeSeconds) {
    auto t0 = Clock::now();
    uint64_t instructions = run();
    double us = SecondsBetween(t0, Clock::now()) * 1e6;
    if (instructions == 0) {
      return 0;
    }
    mips.push_back(static_cast<double>(instructions) / us);
  }
  return Median(mips);
}

// Warm (hot) rate of one engine configuration: the first run translates,
// the timed runs reuse the caches.
double HotMips(hv::cpu::EngineKind kind, const hv::cpu::DbtOptions& options,
               const hv::assembler::Image& image) {
  ProbeMachine m(kind, options, image);
  m.RunToHalt();
  return MedianMips([&] { return m.RunToHalt(); });
}

}  // namespace

Metrics RunProbes(const Workload& workload, const BatchResult& batch) {
  Metrics m;
  auto image = hv::guest::Build(hv::guest::ComputeProgram(kProbeIterations));
  if (!image.ok()) {
    std::fprintf(stderr, "probe program failed to assemble\n");
    std::exit(2);
  }
  hv::cpu::DbtOptions tier1;
  tier1.enable_tier2 = false;
  m["cpu.interp_mips"] = HotMips(hv::cpu::EngineKind::kInterpreter, {}, *image);
  m["cpu.tier1_mips"] = HotMips(hv::cpu::EngineKind::kDbt, tier1, *image);
  m["cpu.tier2_mips"] = HotMips(hv::cpu::EngineKind::kDbt, {}, *image);

  // Restore-prewarmed: a fresh machine installs a warmed machine's
  // translations before its first instruction, as a linked clone does.
  ProbeMachine warm(hv::cpu::EngineKind::kDbt, {}, *image);
  warm.RunToHalt();
  std::vector<uint8_t> blob = warm.engine().SerializeTranslations();
  m["cpu.prewarmed_mips"] = MedianMips([&] {
    ProbeMachine fresh(hv::cpu::EngineKind::kDbt, {}, *image);
    fresh.engine().InstallTranslations(fresh.ctx(), blob);
    return fresh.RunToHalt();
  });

  // isa: decode every word of the workload's guest images.
  std::vector<uint32_t> words;
  for (const hv::assembler::Image& img : workload.images()) {
    for (size_t i = 0; i + 4 <= img.bytes.size(); i += 4) {
      uint32_t w = 0;
      std::memcpy(&w, &img.bytes[i], 4);
      words.push_back(w);
    }
  }
  uint64_t decoded = 0;
  uint32_t sink = 0;
  auto start = Clock::now();
  double elapsed = 0;
  while (!words.empty() && elapsed < kMinProbeSeconds) {
    for (uint32_t w : words) {
      hv::isa::Instruction in = hv::isa::Decode(w);
      sink += static_cast<uint32_t>(in.opcode) + in.rd + static_cast<uint32_t>(in.imm);
    }
    decoded += words.size();
    elapsed = SecondsBetween(start, Clock::now());
  }
  m["isa.decode_ns"] = decoded > 0 ? elapsed * 1e9 / static_cast<double>(decoded) : 0;

  // util: CRC-32 over the pages the batch left in its guests.
  uint64_t bytes = 0;
  start = Clock::now();
  elapsed = 0;
  while (!batch.page_sample.empty() && elapsed < kMinProbeSeconds) {
    sink ^= hv::Crc32(batch.page_sample.data(), batch.page_sample.size());
    bytes += batch.page_sample.size();
    elapsed = SecondsBetween(start, Clock::now());
  }
  m["util.crc32_mib_s"] = elapsed > 0 ? static_cast<double>(bytes) / (1 << 20) / elapsed : 0;
  g_probe_sink = sink;
  return m;
}

}  // namespace hvbench

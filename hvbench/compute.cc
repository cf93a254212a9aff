// compute: one 4-pCPU host, eight single-vCPU compute guests and one 4-vCPU
// MCS-lock/TLB-shootdown guest, all on the DBT engine and warmed before the
// timed phase. The lanes are heavy, so the cpu tiers, the mmu fast path,
// the scheduler and the round barrier do most of the work. It does no
// snapshot, migration, KSM or fabric work and bypasses the default engine:
// changes to CRC, the control plane or the interpreter should leave it
// unchanged.

#include <algorithm>

#include "hvbench/common.h"
#include "src/guest/programs.h"
#include "src/util/crc32.h"
#include "src/util/rng.h"

namespace hvbench {
namespace {

using hv::kSimTicksPerMs;
using hv::SimTime;

constexpr uint32_t kSmpVcpus = 4;
constexpr SimTime kWarmup = 20 * kSimTicksPerMs;
constexpr SimTime kTimed = 60 * kSimTicksPerMs;
constexpr SimTime kChunk = 2 * kSimTicksPerMs;

struct GuestPlan {
  std::string name;
  size_t image = 0;
  uint32_t ram_bytes = 4u << 20;
  uint32_t vcpus = 1;
};

class Compute final : public Workload {
 public:
  explicit Compute(uint64_t seed);
  BatchResult Run(int workers, Tracer& tracer) override;

 private:
  std::vector<GuestPlan> guests_;  // creation order (seeded)
  size_t smp_image_ = 0;
  uint32_t lock_iters_ = 0;
};

Compute::Compute(uint64_t seed) : Workload(hv::cpu::EngineKind::kDbt) {
  hv::Xoshiro256 rng(seed ^ 0xC0FFEEull);
  size_t kernel = Assemble(hv::guest::ComputeProgram(0));
  for (int i = 0; i < 4; ++i) {
    guests_.push_back(GuestPlan{"alu" + std::to_string(i), kernel});
  }
  // Four guests sweep a seeded working set under guest paging, so the
  // mmu fast path is on their critical path.
  for (int i = 0; i < 4; ++i) {
    hv::guest::MemTouchParams p;
    p.pages = 32 + 16 * static_cast<uint32_t>(rng.NextBelow(5));
    p.stride_bytes = 64;
    p.iterations = 0;
    p.with_paging = true;
    guests_.push_back(GuestPlan{"mem" + std::to_string(i),
                                Assemble(hv::guest::MemTouchProgram(p)), 8u << 20});
  }
  hv::guest::SmpLockParams smp;
  smp.num_vcpus = kSmpVcpus;
  lock_iters_ = 48 + 8 * static_cast<uint32_t>(rng.NextBelow(5));
  smp.lock_iters = lock_iters_;
  smp.shootdown_rounds = 2 + static_cast<uint32_t>(rng.NextBelow(3));
  smp_image_ = Assemble(hv::guest::SmpMcsLockProgram(smp));
  guests_.push_back(GuestPlan{"smp", smp_image_, 8u << 20, kSmpVcpus});
  std::shuffle(guests_.begin(), guests_.end(), rng);
}

BatchResult Compute::Run(int workers, Tracer& tracer) {
  BatchResult b;
  auto t_setup = Clock::now();
  hv::core::HostConfig hc;
  hc.name = "compute";
  hc.num_pcpus = 4;
  hc.ram_bytes = 96u << 20;
  hc.worker_threads = workers;
  hv::core::Host host(hc);

  std::vector<hv::core::Vm*> vms;
  hv::core::Vm* smp = nullptr;
  for (const GuestPlan& g : guests_) {
    hv::core::VmConfig cfg;
    cfg.name = g.name;
    cfg.ram_bytes = g.ram_bytes;
    cfg.num_vcpus = g.vcpus;
    cfg.engine = engine();
    hv::core::Vm* vm = Boot(host, std::move(cfg), images_[g.image], b, tracer);
    vms.push_back(vm);
    if (g.image == smp_image_) {
      smp = vm;
    }
  }
  {
    Span span(tracer, "core", "Host::RunFor");
    host.RunFor(kWarmup);
  }
  auto t_timed = Clock::now();
  b.setup_s = SecondsBetween(t_setup, t_timed);

  InstructionMeter meter({&host});
  SimTime start = host.clock().now();
  for (SimTime done = 0; done < kTimed; done += kChunk) {
    Span span(tracer, "core", "Host::RunFor");
    host.RunFor(kChunk);
  }
  meter.Mark();
  b.timed_s = SecondsBetween(t_timed, Clock::now());
  b.sim_ms = hv::SimTimeToMs(host.clock().now() - start);
  b.instructions = meter.total();

  // --- Output checks: the SMP guest's shared counter equals harts x
  // iterations; every single-vCPU guest is still computing.
  b.Check(smp != nullptr && smp->state() == hv::core::VmState::kShutdown,
          "SMP guest did not finish inside the batch");
  b.Check(smp != nullptr && Progress(*smp, images_[smp_image_]) == kSmpVcpus * lock_iters_,
          "SMP shared counter differs from harts x iterations");
  uint32_t crc = 0;
  for (hv::core::Vm* vm : vms) {
    if (vm == nullptr) {
      continue;
    }
    if (vm != smp) {
      b.Check(vm->state() == hv::core::VmState::kRunning, vm->name() + " stopped");
    }
    uint32_t words[2] = {RamDigest(*vm), static_cast<uint32_t>(vm->state())};
    crc = hv::Crc32(words, sizeof(words), crc);
  }
  b.sim["guest_instructions"] = static_cast<double>(b.instructions);
  AddHostCounts({&host}, b.sim);
  AddVcpuCounts(VmsOf({&host}), b.sim);
  AddDeviceCounts({&host}, b.sim);
  b.digest = DigestMetrics(b.sim, crc);
  for (size_t i = 0; i < vms.size() && i < 4; ++i) {
    if (vms[i] != nullptr) {
      SamplePages(*vms[i], 64, b.page_sample);
    }
  }
  return b;
}

}  // namespace

std::unique_ptr<Workload> MakeCompute(uint64_t seed) { return std::make_unique<Compute>(seed); }

}  // namespace hvbench

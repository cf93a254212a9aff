// lifecycle: provisioning and mobility on DBT guests.
//
// A template guest whose RAM holds seeded shared pages is warmed and saved;
// then CloneVm and ForkVm children each run a fixed amount of work to halt
// (the time for a clone to reach warm execution), one KSM pass runs over
// the children, and dirtying guests move between two hosts by pre-copy and
// post-copy migration. snapshot, migrate, ksm, mem copy-on-write and CRC do
// most of the work; guest execution is short.

#include <algorithm>
#include <cstring>

#include "hvbench/common.h"
#include "src/guest/programs.h"
#include "src/ksm/ksm.h"
#include "src/migrate/migrate.h"
#include "src/snapshot/snapshot.h"
#include "src/util/crc32.h"
#include "src/util/phase.h"
#include "src/util/rng.h"

namespace hvbench {
namespace {

using hv::kSimTicksPerMs;
using hv::SimTime;

constexpr uint32_t kRamBytes = 4u << 20;
constexpr uint32_t kWork = 400;       // ComputeProgram iterations to halt
constexpr uint32_t kWarmWork = 100;   // iterations the template runs before its save
constexpr uint32_t kDataGpn = 256;    // seeded template pages start here
constexpr uint32_t kDataPages = 384;
constexpr uint32_t kCommonPages = 8;  // distinct contents behind the shared pages
constexpr int kChildren = 32;         // half clones, half forks
constexpr uint32_t kMoverDataGpn = 600;
constexpr uint32_t kMoverDataPages = 64;
constexpr uint32_t kDirtyGpn = 256;   // DirtyRateProgram's region starts at 1 MiB
constexpr SimTime kChildLimit = 200 * kSimTicksPerMs;

struct MigrationPlan {
  bool post_copy = false;
  size_t image = 0;
  uint32_t dirty_pages = 0;
};

class Lifecycle final : public Workload {
 public:
  explicit Lifecycle(uint64_t seed);
  BatchResult Run(int workers, Tracer& tracer) override;

 private:
  size_t template_image_ = 0;
  std::vector<uint8_t> data_;      // kDataPages seeded pages
  std::vector<bool> fork_order_;   // per child: fork (true) or clone
  std::vector<MigrationPlan> migrations_;
};

Lifecycle::Lifecycle(uint64_t seed) : Workload(hv::cpu::EngineKind::kDbt) {
  hv::Xoshiro256 rng(seed ^ 0x11FEC7C1Eull);
  template_image_ = Assemble(hv::guest::ComputeProgram(kWork));

  // A seeded share of the pages repeats one of a few common contents (KSM
  // fodder inside and across guests); the rest are unique.
  const size_t page = hv::isa::kPageSize;
  std::vector<uint32_t> common_seed(kCommonPages);
  for (uint32_t& s : common_seed) {
    s = static_cast<uint32_t>(rng.Next());
  }
  // Half the pages are shared; the seed picks which ones and their contents.
  std::vector<bool> shared(kDataPages, false);
  std::fill(shared.begin(), shared.begin() + kDataPages / 2, true);
  std::shuffle(shared.begin(), shared.end(), rng);
  data_.resize(kDataPages * page);
  for (uint32_t p = 0; p < kDataPages; ++p) {
    uint32_t fill = shared[p] ? common_seed[rng.NextBelow(kCommonPages)]
                              : static_cast<uint32_t>(rng.Next());
    for (size_t w = 0; w < page / 4; ++w) {
      uint32_t word = fill * 2654435761u + static_cast<uint32_t>(w);
      std::memcpy(&data_[p * page + w * 4], &word, 4);
    }
  }

  fork_order_.assign(kChildren, false);
  std::fill(fork_order_.begin(), fork_order_.begin() + kChildren / 2, true);
  std::shuffle(fork_order_.begin(), fork_order_.end(), rng);

  // Every working-set size moves once by pre-copy and once by post-copy;
  // the seed picks the order.
  constexpr uint32_t kDirtyPages[] = {32, 64, 96};
  for (uint32_t pages : kDirtyPages) {
    size_t image = Assemble(hv::guest::DirtyRateProgram(pages, 5000));
    migrations_.push_back(MigrationPlan{false, image, pages});
    migrations_.push_back(MigrationPlan{true, image, pages});
  }
  std::shuffle(migrations_.begin(), migrations_.end(), rng);
}

BatchResult Lifecycle::Run(int workers, Tracer& tracer) {
  BatchResult b;
  hv::ScopedSerialPhase serial;
  auto t_setup = Clock::now();
  hv::core::Host src(hv::core::HostConfig{
      .name = "lc-a", .num_pcpus = 4, .ram_bytes = 256u << 20, .worker_threads = workers});
  hv::core::Host dst(hv::core::HostConfig{
      .name = "lc-b", .num_pcpus = 4, .ram_bytes = 64u << 20, .worker_threads = workers});

  hv::core::VmConfig tcfg;
  tcfg.name = "template";
  tcfg.ram_bytes = kRamBytes;
  tcfg.engine = engine();
  hv::core::Vm* tmpl = Boot(src, tcfg, images_[template_image_], b, tracer);
  if (tmpl == nullptr) {
    return b;
  }
  b.Check(tmpl->memory().Write(kDataGpn * hv::isa::kPageSize, data_.data(), data_.size()).ok(),
          "seed template pages");
  for (int step = 0; step < 400 && Progress(*tmpl, images_[template_image_]) < kWarmWork;
       ++step) {
    Span span(tracer, "core", "Host::RunFor");
    src.RunFor(kSimTicksPerMs / 10);
  }
  uint32_t warm_progress = Progress(*tmpl, images_[template_image_]);
  b.Check(warm_progress >= kWarmWork && warm_progress < kWork, "template warm-up");
  tmpl->Pause(serial);

  auto t_timed = Clock::now();
  b.setup_s = SecondsBetween(t_setup, t_timed);
  double check_s = 0;  // output checks inside the timed phase, not timed
  InstructionMeter meter({&src, &dst});
  SimTime src_start = src.clock().now();
  SimTime dst_start = dst.clock().now();

  hv::snapshot::SnapshotInfo info;
  hv::Result<std::vector<uint8_t>> saved = [&] {
    Span span(tracer, "snapshot", "snapshot::SaveVm");
    return hv::snapshot::SaveVm(*tmpl, {}, &info);
  }();
  b.Check(saved.ok(), "save template");
  if (!saved.ok()) {
    return b;
  }
  auto t_check = Clock::now();
  uint32_t tmpl_digest = RamDigest(*tmpl);
  check_s += SecondsBetween(t_check, Clock::now());

  // --- Clones and forks, each run to its halt.
  size_t frames_before = src.pool().used_frames();
  std::vector<hv::core::Vm*> children;
  uint32_t crc = tmpl_digest;
  for (int i = 0; i < kChildren; ++i) {
    bool fork = fork_order_[static_cast<size_t>(i)];
    hv::core::VmConfig ccfg = tcfg;
    ccfg.name = (fork ? "fork" : "clone") + std::to_string(i);
    auto t0 = Clock::now();
    hv::Result<hv::core::Vm*> child = [&] {
      if (fork) {
        Span span(tracer, "snapshot", "snapshot::ForkVm");
        return hv::snapshot::ForkVm(src, ccfg, *tmpl);
      }
      Span span(tracer, "snapshot", "snapshot::CloneVm");
      return hv::snapshot::CloneVm(src, ccfg, *saved);
    }();
    auto t1 = Clock::now();
    b.Check(child.ok(), "create " + ccfg.name);
    if (!child.ok()) {
      continue;
    }
    b.Check(RamDigest(**child) == tmpl_digest, ccfg.name + " RAM differs from the template");
    meter.Rebase();
    auto t2 = Clock::now();
    {
      Span span(tracer, "core", "Host::RunUntilVmStops");
      src.RunUntilVmStops(*child, src.clock().now() + kChildLimit);
    }
    auto t3 = Clock::now();
    meter.Mark();
    check_s += SecondsBetween(t1, t2);
    b.clone_ready_ms.push_back((SecondsBetween(t0, t1) + SecondsBetween(t2, t3)) * 1e3);
    uint32_t progress = Progress(**child, images_[template_image_]);
    b.Check((*child)->state() == hv::core::VmState::kShutdown && progress == kWork,
            ccfg.name + " did not halt with the expected progress");
    uint32_t words[2] = {progress, static_cast<uint32_t>((*child)->state())};
    crc = hv::Crc32(words, sizeof(words), crc);
    children.push_back(*child);
  }

  // --- One KSM pass over the children.
  hv::ksm::KsmDaemon ksm(&src.pool());
  double present = 0;
  for (hv::core::Vm* c : children) {
    ksm.AddClient(&c->memory());
    for (uint32_t gpn = 0; gpn < c->memory().num_pages(); ++gpn) {
      present += c->memory().IsPresent(gpn) ? 1 : 0;
    }
  }
  {
    Span span(tracer, "ksm", "KsmDaemon::ScanOnce");
    ksm.ScanOnce();
  }
  double added = static_cast<double>(src.pool().used_frames()) - static_cast<double>(frames_before);
  Metrics& m = b.sim;
  m["mem_saved_frac"] = present > 0 ? 1.0 - added / present : 0;
  m["ksm.pages_scanned"] = static_cast<double>(ksm.stats().pages_scanned);
  m["ksm.merge_frac"] = ksm.stats().pages_scanned > 0
                            ? static_cast<double>(ksm.stats().pages_merged) /
                                  static_cast<double>(ksm.stats().pages_scanned)
                            : 0;
  double frames_after_ksm = static_cast<double>(src.pool().used_frames());
  std::vector<const hv::core::Vm*> provisioned(children.begin(), children.end());
  provisioned.push_back(tmpl);
  AddVcpuCounts(provisioned, m);
  for (hv::core::Vm* c : children) {
    Span span(tracer, "core", "Host::DestroyVm");
    b.Check(src.DestroyVm(c).ok(), "destroy " + c->name());
  }

  // --- Pre-copy and post-copy migrations of dirtying guests.
  std::vector<double> blackout;
  std::vector<double> total;
  double pages_sent = 0;
  double rounds = 0;
  double fetches = 0;
  double retries = 0;
  for (size_t i = 0; i < migrations_.size(); ++i) {
    const MigrationPlan& plan = migrations_[i];
    hv::core::VmConfig mcfg;
    mcfg.name = "mover" + std::to_string(i);
    mcfg.ram_bytes = kRamBytes;
    mcfg.engine = engine();
    hv::core::Vm* vm = Boot(src, mcfg, images_[plan.image], b, tracer);
    if (vm == nullptr) {
      continue;
    }
    b.Check(vm->memory()
                .Write(kMoverDataGpn * hv::isa::kPageSize,
                       data_.data() + i * kMoverDataPages * hv::isa::kPageSize / 2,
                       kMoverDataPages * hv::isa::kPageSize)
                .ok(),
            "seed " + mcfg.name + " pages");
    meter.Rebase();
    {
      Span span(tracer, "core", "Host::RunFor");
      src.RunFor(2 * kSimTicksPerMs);
    }
    meter.Mark();
    hv::migrate::MigrationReport report;
    hv::migrate::MigrateOptions options;
    hv::Result<hv::core::Vm*> moved = [&] {
      if (plan.post_copy) {
        Span span(tracer, "migrate", "migrate::PostCopyMigrate");
        return hv::migrate::PostCopyMigrate(src, vm, dst, options, &report);
      }
      Span span(tracer, "migrate", "migrate::PreCopyMigrate");
      return hv::migrate::PreCopyMigrate(src, vm, dst, options, &report);
    }();
    // The source ran the pre-copy rounds; the destination VM is new and
    // counts from zero (snapshots do not carry vCPU counters).
    meter.Mark();
    b.Check(moved.ok(), "migration of " + mcfg.name + " failed");
    if (!moved.ok()) {
      continue;
    }
    t_check = Clock::now();
    // Post-copy resumes the guest before the check can run, so the pages it
    // writes (its dirty region and progress word) are left out there.
    uint32_t progress_gpn = hv::guest::ProgressAddress(images_[plan.image]).value_or(0) /
                            hv::isa::kPageSize;
    auto written = [&](uint32_t gpn) {
      return plan.post_copy &&
             ((gpn >= kDirtyGpn && gpn < kDirtyGpn + plan.dirty_pages) || gpn == progress_gpn);
    };
    uint32_t digest = RamDigest(**moved, written);
    b.Check(digest == RamDigest(*vm, written),
            mcfg.name + " RAM differs from its source at switchover");
    crc = hv::Crc32(&digest, sizeof(digest), crc);
    check_s += SecondsBetween(t_check, Clock::now());
    blackout.push_back(report.DowntimeMs());
    total.push_back(report.TotalMs());
    pages_sent += static_cast<double>(report.pages_sent);
    rounds += report.rounds;
    fetches += static_cast<double>(report.demand_fetches);
    retries += static_cast<double>(report.retries);
    {
      Span span(tracer, "core", "Host::DestroyVm");
      b.Check(src.DestroyVm(vm).ok(), "destroy migrated source");
    }
    Span span(tracer, "core", "Host::DestroyVm");
    b.Check(dst.DestroyVm(*moved).ok(), "destroy migrated guest");
  }
  b.timed_s = SecondsBetween(t_timed, Clock::now()) - check_s;
  b.sim_ms = hv::SimTimeToMs(src.clock().now() - src_start + dst.clock().now() - dst_start);
  b.instructions = meter.total();

  m["blackout_ms_p50"] = Percentile(blackout, 50);
  m["blackout_ms_max"] = Percentile(blackout, 100);
  m["migration_ms_p50"] = Percentile(total, 50);
  m["migrate.pages_sent"] = pages_sent;
  m["migrate.rounds"] = rounds;
  m["migrate.demand_fetches"] = fetches;
  m["migrate.retries"] = retries;
  m["snapshot.bytes"] = static_cast<double>(info.bytes);
  m["guest_instructions"] = static_cast<double>(b.instructions);
  AddHostCounts({&src, &dst}, m);
  AddDeviceCounts({&src, &dst}, m);
  m["mem.frames_in_use"] = frames_after_ksm;
  b.digest = DigestMetrics(m, crc);
  SamplePages(*tmpl, 256, b.page_sample);
  return b;
}

}  // namespace

std::unique_ptr<Workload> MakeLifecycle(uint64_t seed) {
  return std::make_unique<Lifecycle>(seed);
}

}  // namespace hvbench

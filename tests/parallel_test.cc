// Staged execution core tests (DESIGN.md §8).
//
// The dispatch→execute→commit pipeline promises that simulation results are
// bit-identical for every worker count: the commit step replays staged side
// effects in dispatch order, so threads only change wall-clock speed, never
// outcomes. These tests hold the pipeline to that promise with a dense
// consolidation scenario (8 VMs mixing compute, timers, dirtying, SMP, disk
// and network I/O) plus a faulty live migration, replayed at worker counts
// {0, 1, 4}, and with a seeded chaos sweep at 4 workers under the runtime
// auditors. They also pin down the DestroyVm lifetime fix: clock events
// owned by a VM (armed timers, in-flight block completions) die with it.

#include <gtest/gtest-spi.h>
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/core/host.h"
#include "tests/test_phase.h"
#include "src/core/worker_pool.h"
#include "src/fault/fault.h"
#include "src/guest/programs.h"
#include "src/migrate/migrate.h"
#include "src/net/network.h"
#include "src/storage/block_store.h"
#include "src/virtio/virtio_net.h"
#include "src/verify/audit.h"
#include "tests/observation.h"
#include "tests/vm_test_util.h"

namespace hyperion {
namespace {

using core::Host;
using core::HostConfig;
using core::IoModel;
using core::Vm;
using core::VmConfig;
using core::VmState;

constexpr char kLinkSite[] = "migrate:link";
constexpr char kHostSite[] = "src:host";

migrate::MigrateOptions FaultyOptions(fault::FaultInjector* inj) {
  migrate::MigrateOptions options;
  options.fault = inj;
  options.fault_site = kLinkSite;
  options.retry_backoff = kSimTicksPerMs;
  options.retry_backoff_cap = 20 * kSimTicksPerMs;
  options.round_timeout = 50 * kSimTicksPerMs;
  options.postcopy_run_limit = 5 * kSimTicksPerSec;
  return options;
}

// A dense consolidation scenario: 8 VMs covering every staged subsystem
// (pure compute, timer sleeps via the clock, page dirtying through the frame
// pool, a 2-vCPU SMP lane, emulated and virtio disks, a virtio-net
// ping/echo pair through the switch), run under an injected host-pause/link
// fault plan, with one VM live-migrating away mid-run. Everything observable
// comes back: both hosts, every VM on each (the migrated one twice), and the
// migration's outcome and report.
Observation RunScenario(int workers, uint64_t seed, bool short_run = false) {
  fault::ChaosProfile profile;
  profile.link_site = kLinkSite;
  profile.host_site = kHostSite;
  profile.horizon = 60 * kSimTicksPerMs;
  fault::FaultInjector inj(fault::FaultPlan::Random(seed, profile));

  HostConfig hc;
  hc.worker_threads = workers;
  Host src(hc), dst(hc);
  src.SetFaultInjector(&inj, kHostSite);

  BootVm(src, VmConfig{.name = "compute"}, guest::ComputeProgram(0));
  BootVm(src, VmConfig{.name = "idle"}, guest::IdleTickProgram(200'000));
  BootVm(src, VmConfig{.name = "dirty"}, guest::DirtyRateProgram(48, 400));
  BootVm(src, VmConfig{.name = "fill"},
         guest::PatternFillProgram(64, 8, static_cast<uint32_t>(seed)));

  VmConfig smp{.name = "smp"};
  smp.num_vcpus = 2;
  BootVm(src, smp, guest::SmpCounterProgram(100'000));

  auto edisk = std::make_shared<storage::MemBlockStore>(256);
  VmConfig eblk{.name = "eblk"};
  eblk.disk_model = IoModel::kEmulated;
  eblk.disk = edisk;
  guest::BlkIoParams ep;
  ep.iterations = 1'000'000;  // effectively forever: I/O flows all scenario
  ep.sectors = 2;
  ep.write = true;
  BootVm(src, eblk, guest::EmulatedBlkProgram(ep));

  auto vdisk = std::make_shared<storage::MemBlockStore>(1024);
  VmConfig vblk{.name = "vblk"};
  vblk.disk_model = IoModel::kParavirt;
  vblk.disk = vdisk;
  guest::BlkIoParams vp;
  vp.iterations = 1'000'000;
  vp.sectors = 4;
  vp.batch = 4;
  vp.write = true;
  BootVm(src, vblk, guest::VirtioBlkProgram(vp));

  guest::NetParams np;
  np.peer_mac = 2;
  np.payload_bytes = 128;
  np.iterations = 0;  // ping forever
  VmConfig ping{.name = "ping"};
  ping.net_model = IoModel::kParavirt;
  ping.mac = 1;
  BootVm(src, ping, guest::VirtioNetPingProgram(np));
  VmConfig echo{.name = "echo"};
  echo.net_model = IoModel::kParavirt;
  echo.mac = 2;
  BootVm(src, echo, guest::VirtioNetEchoProgram(np.payload_bytes));

  // A bulk stream/sink pair with the full coalescing data plane engaged:
  // EVENT_IDX completions, kick-suppressed NAPI polling, burst delivery.
  guest::NetStreamParams sp;
  sp.peer_mac = 4;
  sp.payload_bytes = 256;
  VmConfig stream{.name = "stream"};
  stream.net_model = IoModel::kParavirt;
  stream.mac = 3;
  BootVm(src, stream, guest::VirtioNetStreamProgram(sp));
  VmConfig bulk_sink{.name = "sink"};
  bulk_sink.net_model = IoModel::kParavirt;
  bulk_sink.mac = 4;
  BootVm(src, bulk_sink, guest::VirtioNetSinkProgram(sp));

  SimTime unit = short_run ? 2 * kSimTicksPerMs : 10 * kSimTicksPerMs;
  src.RunFor(3 * unit);

  migrate::MigrationReport report;
  auto moved =
      migrate::PreCopyMigrate(src, src.FindVm("idle"), dst, FaultyOptions(&inj), &report);

  src.RunFor(2 * unit);
  dst.RunFor(2 * unit);

  return ObserveMigration(moved, report, src, dst);
}

// The tentpole guarantee: worker count changes wall-clock speed only. The
// whole observable state — RAM digests, consoles, per-vCPU and host stats,
// the data-plane counters, the MigrationReport, final clocks — must match
// bit-for-bit across {0, 1, 4} workers.
TEST(StagedExecutionTest, ResultsAreIdenticalAcrossWorkerCounts) {
  Observation serial = RunScenario(/*workers=*/0, /*seed=*/42);
  Observation one = RunScenario(/*workers=*/1, /*seed=*/42);
  Observation four = RunScenario(/*workers=*/4, /*seed=*/42);
  // The equality below must not hold vacuously: the stream/sink pair has to
  // actually exercise kick suppression and burst delivery in this scenario.
  uint64_t suppressed = 0;
  uint64_t burst_frames = 0;
  for (const auto& s : serial.All<virtio::VirtioNet::NetStats>()) {
    suppressed += s.kicks_suppressed;
    burst_frames += s.burst_frames;
  }
  EXPECT_GT(suppressed, 0u) << "NAPI polling never engaged";
  EXPECT_GT(burst_frames, 0u) << "no coalesced burst deliveries";
  EXPECT_GT(serial.Get<net::VirtualSwitch::Stats>("src host host switch").bursts_delivered, 0u);
  ExpectSameObservation(serial, one, "1-worker run vs serial");
  ExpectSameObservation(serial, four, "4-worker run vs serial");
  // And the scenario itself replays deterministically at a fixed count.
  ExpectSameObservation(four, RunScenario(/*workers=*/4, /*seed=*/42),
                        "4-worker replay vs 4-worker run");
}

// Ten chaos seeds at 4 workers, with the runtime auditors armed the whole
// time: staging must never let a worker observe (or commit) an incoherent
// MMU, virtio ring, or frame refcount, and every seed must replay the serial
// outcome exactly. One test per seed, so ctest can run the seeds in
// parallel; the instantiation prefix keeps them under StagedExecutionTest.
class ChaosSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChaosSweep, AtFourWorkersMatchesSerialUnderAudit) {
  uint64_t seed = GetParam();
  verify::SetAuditEnabled(true);
  Observation serial = RunScenario(/*workers=*/0, seed, /*short_run=*/true);
  Observation four = RunScenario(/*workers=*/4, seed, /*short_run=*/true);
  verify::SetAuditEnabled(false);
  ExpectSameObservation(serial, four, "4 workers vs serial at seed " + std::to_string(seed));
}

INSTANTIATE_TEST_SUITE_P(StagedExecutionTest, ChaosSweep, ::testing::Range<uint64_t>(1, 11),
                         [](const ::testing::TestParamInfo<uint64_t>& p) {
                           return "Seed" + std::to_string(p.param);
                         });

// ---------------------------------------------------------------------------
// SMP bit-identity
// ---------------------------------------------------------------------------

// Everything a 4-vCPU MCS-lock/shootdown run can observably produce,
// including the whole per-vCPU stat blocks (ipis_sent, ipis_received,
// shootdowns among them) and the lock's progress word.
Observation RunSmpMcsScenario(int workers) {
  HostConfig hc;
  hc.worker_threads = workers;
  hc.num_pcpus = 4;
  Host host(hc);
  guest::SmpLockParams p;
  std::string prog = guest::SmpMcsLockProgram(p);
  VmConfig cfg{.name = "mcs"};
  cfg.ram_bytes = 8u << 20;
  cfg.num_vcpus = p.num_vcpus;
  cfg.paging_mode = mmu::PagingMode::kNested;
  Vm* vm = BootVm(host, cfg, prog);
  // A second VM so multi-worker runs genuinely execute concurrent lanes.
  Vm* other = BootVm(host, VmConfig{.name = "compute"}, guest::ComputeProgram(0));
  // The MCS gauntlet completes in ~20 simulated ms; 50 ms is deterministic
  // headroom without simulating the compute VM for long after.
  host.RunFor(50 * kSimTicksPerMs);

  EXPECT_GT(other->TotalStats().instructions, 0u);
  Observation out = Observe(host);
  out.Add("progress", ReadProgress(vm, prog));
  return out;
}

// An SMP guest whose vCPUs genuinely interact — MCS lock handoffs, IPI
// doorbells, cross-vCPU TLB shootdowns — must replay bit-identically at any
// worker count: same RAM digest, same console, same per-vCPU stat blocks.
TEST(StagedExecutionTest, SmpMcsLockIsIdenticalAcrossWorkerCounts) {
  Observation serial = RunSmpMcsScenario(/*workers=*/0);
  // Non-vacuity: the run finished, held the lock, and actually shot down.
  guest::SmpLockParams p;
  EXPECT_EQ(serial.Get<VmState>("vm mcs state"), VmState::kShutdown);
  EXPECT_EQ(serial.Get<uint32_t>("progress"), p.num_vcpus * p.lock_iters);
  EXPECT_GT(serial.Get<cpu::VcpuStats>("vm mcs vcpu0").ipis_sent, 0u);
  for (uint32_t i = 1; i < p.num_vcpus; ++i) {
    const auto& stats = serial.Get<cpu::VcpuStats>("vm mcs vcpu" + std::to_string(i));
    EXPECT_GT(stats.ipis_received, 0u) << "vcpu " << i;
    EXPECT_GT(stats.shootdowns, 0u) << "vcpu " << i;
  }
  ExpectSameObservation(serial, RunSmpMcsScenario(/*workers=*/1), "1-worker SMP run vs serial");
  ExpectSameObservation(serial, RunSmpMcsScenario(/*workers=*/4), "4-worker SMP run vs serial");
}

// ---------------------------------------------------------------------------
// DestroyVm lifetime
// ---------------------------------------------------------------------------

// Destroying a VM with an armed wfi timer and an in-flight block completion
// must cancel both events. Before owner-tagged events, the queued closures
// captured the freed Vm/device and fired into dead memory (caught by ASan).
TEST(DestroyVmTest, CancelsArmedTimerAndInflightBlockIo) {
  Host host;

  // A guest sleeping in wfi with a timer armed well in the future.
  Vm* sleeper = BootVm(host, VmConfig{.name = "sleeper"}, guest::IdleTickProgram(5'000'000));
  host.RunFor(2 * kSimTicksPerMs);

  // A VM with a block command mid-flight: start it through the register
  // interface so the completion event is deterministically pending.
  auto disk = std::make_shared<storage::MemBlockStore>(64);
  VmConfig cfg{.name = "io"};
  cfg.disk_model = IoModel::kEmulated;
  cfg.disk = disk;
  Vm* io = BootVm(host, cfg, guest::ComputeProgram(0));
  ASSERT_TRUE(io->emulated_blk()->Write(TestPhase(), 0x00, 4, 0).ok());  // LBA
  ASSERT_TRUE(io->emulated_blk()->Write(TestPhase(), 0x04, 4, 8).ok());  // COUNT
  ASSERT_TRUE(io->emulated_blk()->Write(TestPhase(), 0x08, 4, 2).ok());  // CMD: write
  ASSERT_TRUE(host.clock().HasPending());

  ASSERT_TRUE(host.DestroyVm(sleeper).ok());
  ASSERT_TRUE(host.DestroyVm(io).ok());

  // Drain every remaining event, then keep simulating. Without CancelOwner
  // these dereference the destroyed VMs.
  host.clock().RunAll(TestPhase());
  host.RunFor(20 * kSimTicksPerMs);
  EXPECT_TRUE(host.vms().empty());
}

// The virtio completion path stages through the same owner tag.
TEST(DestroyVmTest, CancelsInflightVirtioBlkCompletion) {
  Host host;
  auto disk = std::make_shared<storage::MemBlockStore>(1024);
  VmConfig cfg{.name = "vio"};
  cfg.disk_model = IoModel::kParavirt;
  cfg.disk = disk;
  guest::BlkIoParams p;
  p.iterations = 1'000'000;  // keep I/O flowing until destroyed
  p.sectors = 4;
  p.batch = 2;
  p.write = true;
  Vm* vm = BootVm(host, cfg, guest::VirtioBlkProgram(p));
  host.RunFor(2 * kSimTicksPerMs);
  ASSERT_EQ(vm->state(), VmState::kRunning) << vm->crash_reason().ToString();
  ASSERT_TRUE(host.DestroyVm(vm).ok());
  host.clock().RunAll(TestPhase());
  host.RunFor(10 * kSimTicksPerMs);
  EXPECT_TRUE(host.vms().empty());
}

// ---------------------------------------------------------------------------
// Cluster acceptance scenario (DESIGN.md §13): a 4-host fleet of 64 VMs under
// churn — arrivals and departures, one rolling-maintenance drain, one
// injected host crash with checkpoint respawn, DRS rebalancing, and a
// cross-host ping/echo pair through the fabric. The whole observable cluster
// history must be bit-identical across worker counts: member hosts share one
// TimeDomain, so the same staged-commit argument covers the fleet.
// ---------------------------------------------------------------------------

Observation RunClusterScenario(int workers) {
  cluster::ClusterConfig cc;
  cc.worker_threads = workers;
  cc.cpu_overcommit = 32.0;
  cc.ram_overcommit = 4.0;
  cc.drs.interval = 4 * kSimTicksPerMs;
  cc.drs.hot_busy = 0.45;
  cc.drs.cool_until = 0.40;
  cc.drs.min_gain = 0.05;
  cluster::Cluster cl(cc);
  std::vector<Host*> hosts;
  for (int i = 0; i < 4; ++i) {
    hosts.push_back(cl.AddHost(HostConfig{.num_pcpus = 2}));
  }

  fault::FaultPlan plan;
  plan.AddHostCrash("fleet:h1", 14 * kSimTicksPerMs);
  fault::FaultInjector inj(plan);
  hosts[1]->SetFaultInjector(&inj, "fleet:h1");

  std::string idle = guest::IdleTickProgram(500'000);
  std::string compute = guest::ComputeProgram(0);
  // 62 bulk VMs (every 16th is a cycle burner, the rest tick idly) plus a
  // pinned cross-host ping/echo pair: 64 guests.
  for (int i = 0; i < 62; ++i) {
    char name[8];
    std::snprintf(name, sizeof(name), "vm%02d", i);
    BootVm(cl, VmConfig{.name = name}, i % 16 == 0 ? compute : idle);
  }
  guest::NetParams np;
  np.peer_mac = 2;
  np.payload_bytes = 128;
  np.iterations = 0;
  VmConfig ping{.name = "ping"};
  ping.net_model = IoModel::kParavirt;
  ping.mac = 1;
  BootVm(cl, ping, guest::VirtioNetPingProgram(np), hosts[0]);
  VmConfig echo{.name = "echo"};
  echo.net_model = IoModel::kParavirt;
  echo.mac = 2;
  BootVm(cl, echo, guest::VirtioNetEchoProgram(np.payload_bytes), hosts[2]);

  cl.RunFor(6 * kSimTicksPerMs);

  // Churn: nine departures, nine arrivals.
  for (int i = 0; i < 62; i += 7) {
    char name[8];
    std::snprintf(name, sizeof(name), "vm%02d", i);
    EXPECT_TRUE(cl.DestroyVm(name).ok());
  }
  for (int i = 0; i < 9; ++i) {
    BootVm(cl, VmConfig{.name = "new" + std::to_string(i)}, idle);
  }
  cl.RunFor(6 * kSimTicksPerMs);

  // Fresh respawn templates for everyone, then maintenance begins on h3 and
  // the crash on h1 fires mid-flight (t=14ms).
  cl.CheckpointAll();
  EXPECT_TRUE(cl.DrainHost(hosts[3]).ok());
  cl.RunFor(13 * kSimTicksPerMs);
  return Observe(cl);
}

TEST(ClusterStagedTest, FleetUnderChurnIsIdenticalAcrossWorkerCounts) {
  Observation serial = RunClusterScenario(/*workers=*/0);

  // Non-vacuity: the scenario must actually have exercised every moving
  // part — evacuation, drain, the fabric, and DRS accounting. All 64 guests
  // survive: the 62 bulk VMs less 9 departures, 9 arrivals, ping and echo.
  const auto& stats = serial.Get<cluster::ClusterStats>("cluster stats");
  const auto& fabric = serial.Get<cluster::Fabric::Stats>("fabric");
  EXPECT_EQ(serial.Get<std::vector<std::string>>("guests").size(), 64u);
  EXPECT_EQ(stats.evacuations_lost, 0u);
  EXPECT_GT(stats.evacuations_respawned, 0u);
  EXPECT_GT(stats.drain_migrations, 0u);
  EXPECT_GT(fabric.frames_forwarded, 0u);
  EXPECT_EQ(fabric.frames_no_route, 0u);
  // Every DRS move reconciles against its MigrationReport: a claimed success
  // shipped pages and kept blackout bounded; totals match the stats.
  uint64_t ok_moves = 0;
  for (const cluster::MigrationRecord& rec :
       serial.Get<std::vector<cluster::MigrationRecord>>("migrations")) {
    if (rec.ok) {
      ++ok_moves;
      EXPECT_GT(rec.report.pages_sent, 0u) << rec.vm;
      EXPECT_GT(rec.report.total_time, 0u) << rec.vm;
      EXPECT_LT(rec.report.downtime, 10 * kSimTicksPerMs) << rec.vm;
    }
  }
  EXPECT_EQ(ok_moves, stats.drain_migrations + stats.rebalance_migrations);

  ExpectSameObservation(serial, RunClusterScenario(/*workers=*/1), "1-worker fleet vs serial");
  ExpectSameObservation(serial, RunClusterScenario(/*workers=*/4), "4-worker fleet vs serial");
}

// The oracle is not vacuous: observations of one host 1 simulated ms apart
// differ, and the failure names the VM whose RAM moved.
TEST(ObservationTest, NamesFirstDifferingEntry) {
  Host host;
  BootVm(host, VmConfig{.name = "dirty"}, guest::DirtyRateProgram(48, 400));
  host.RunFor(kSimTicksPerMs);
  Observation before = Observe(host);
  ExpectSameObservation(before, Observe(host));
  host.RunFor(kSimTicksPerMs);
  Observation after = Observe(host);
  EXPECT_NONFATAL_FAILURE(ExpectSameObservation(before, after), "\"vm dirty ram\"");
}

// A host-stats divergence prints named counters, not gtest's byte dump of
// the struct (whose pcpu vector holds heap pointers that differ anyway).
TEST(ObservationTest, HostStatsDifferenceNamesCounters) {
  Host host;
  BootVm(host, VmConfig{.name = "idle"}, guest::IdleTickProgram(200'000));
  host.RunFor(kSimTicksPerMs);
  Host::HostStats changed = host.stats();
  ++changed.idle_picks;
  Observation a;
  a.Add("host stats", host.stats());
  Observation b;
  b.Add("host stats", changed);

  std::string diff = a.FirstDifference(b);
  EXPECT_NE(diff.find("\"host stats\""), std::string::npos) << diff;
  EXPECT_NE(diff.find("idle_picks=" + std::to_string(changed.idle_picks)), std::string::npos)
      << diff;
  EXPECT_NE(diff.find("pcpu=[{busy_cycles="), std::string::npos) << diff;
  EXPECT_EQ(diff.find("-byte object"), std::string::npos) << diff;
}

// ---------------------------------------------------------------------------
// WorkerPool
// ---------------------------------------------------------------------------

TEST(WorkerPoolTest, RunsEveryLaneExactlyOnceAcrossBatches) {
  core::WorkerPool pool(3);
  for (int batch = 0; batch < 50; ++batch) {
    size_t count = 1 + static_cast<size_t>(batch % 7);
    std::vector<std::atomic<int>> hits(count);
    pool.Run(count, [&](size_t i) { hits[i].fetch_add(1); });
    for (size_t i = 0; i < count; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "batch " << batch << " lane " << i;
    }
  }
}

TEST(WorkerPoolTest, ZeroThreadPoolRunsInline) {
  core::WorkerPool pool(0);
  std::vector<int> order;
  pool.Run(4, [&](size_t i) { order.push_back(static_cast<int>(i)); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

}  // namespace
}  // namespace hyperion

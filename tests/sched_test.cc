// Scheduler unit tests: credit accounting, weights, caps, priorities,
// round-robin baseline. The scheduler is driven directly (no VMs), except
// the per-pCPU accounting test at the end, which needs a real Host.

#include <gtest/gtest.h>

#include "src/core/host.h"
#include "src/guest/programs.h"
#include "src/sched/scheduler.h"

namespace hyperion::sched {
namespace {

constexpr uint64_t kPeriod = 1'000'000;

// Simulates `rounds` scheduling decisions of `slice` cycles each, returning
// per-entity granted cycles.
std::map<EntityId, uint64_t> Simulate(Scheduler& sched, uint64_t rounds, uint64_t slice) {
  std::map<EntityId, uint64_t> granted;
  SimTime now = 0;
  for (uint64_t i = 0; i < rounds; ++i) {
    EntityId id = sched.PickNext(now);
    if (id == kIdle) {
      now += slice;
      continue;
    }
    granted[id] += slice;
    now += slice;
    sched.Account(id, slice, /*still_runnable=*/true, now);
  }
  return granted;
}

TEST(CreditSchedulerTest, RegistrationRules) {
  auto s = MakeCreditScheduler(1, kPeriod);
  EXPECT_TRUE(s->AddEntity(1, {}).ok());
  EXPECT_EQ(s->AddEntity(1, {}).code(), StatusCode::kAlreadyExists);
  EXPECT_FALSE(s->AddEntity(2, {.weight = 0}).ok());
  EXPECT_TRUE(s->RemoveEntity(1).ok());
  EXPECT_EQ(s->RemoveEntity(1).code(), StatusCode::kNotFound);
}

TEST(CreditSchedulerTest, IdleWhenNothingRunnable) {
  auto s = MakeCreditScheduler(1, kPeriod);
  ASSERT_TRUE(s->AddEntity(1, {}).ok());
  EXPECT_EQ(s->PickNext(0), kIdle);
  s->SetRunnable(1, true, 0);
  EXPECT_EQ(s->PickNext(0), 1u);
}

TEST(CreditSchedulerTest, EqualWeightsAlternate) {
  auto s = MakeCreditScheduler(1, kPeriod);
  for (EntityId id : {1u, 2u}) {
    ASSERT_TRUE(s->AddEntity(id, {}).ok());
    s->SetRunnable(id, true, 0);
  }
  auto granted = Simulate(*s, 100, kPeriod / 100);
  EXPECT_NEAR(static_cast<double>(granted[1]), static_cast<double>(granted[2]),
              static_cast<double>(kPeriod) / 20);
}

TEST(CreditSchedulerTest, WeightsGiveProportionalShares) {
  auto s = MakeCreditScheduler(1, kPeriod);
  ASSERT_TRUE(s->AddEntity(1, {.weight = 256}).ok());
  ASSERT_TRUE(s->AddEntity(2, {.weight = 768}).ok());
  s->SetRunnable(1, true, 0);
  s->SetRunnable(2, true, 0);
  auto granted = Simulate(*s, 400, kPeriod / 100);
  double ratio = static_cast<double>(granted[2]) / static_cast<double>(granted[1]);
  EXPECT_GT(ratio, 2.0);
  EXPECT_LT(ratio, 4.0);
}

TEST(CreditSchedulerTest, CapParksEntityWithinPeriod) {
  auto s = MakeCreditScheduler(1, kPeriod);
  ASSERT_TRUE(s->AddEntity(1, {.cap_percent = 10}).ok());
  s->SetRunnable(1, true, 0);

  // The lone entity may only consume 10% of the period even when alone.
  uint64_t slice = kPeriod / 100;
  uint64_t granted = 0;
  SimTime now = 0;
  for (int i = 0; i < 50; ++i) {
    EntityId id = s->PickNext(now);
    now += slice;
    if (id == 1) {
      granted += slice;
      s->Account(1, slice, true, now);
    }
  }
  EXPECT_LE(granted, kPeriod / 10);
  EXPECT_GT(granted, 0u);
}

TEST(CreditSchedulerTest, CapResetsNextPeriod) {
  auto s = MakeCreditScheduler(1, kPeriod);
  ASSERT_TRUE(s->AddEntity(1, {.cap_percent = 10}).ok());
  s->SetRunnable(1, true, 0);
  // Exhaust the cap in period 0.
  EXPECT_EQ(s->PickNext(0), 1u);
  s->Account(1, kPeriod / 10, true, kPeriod / 10);
  EXPECT_EQ(s->PickNext(kPeriod / 10), kIdle);
  // A new period refreshes the allowance.
  EXPECT_EQ(s->PickNext(kPeriod + 1), 1u);
}

TEST(CreditSchedulerTest, UnderPriorityBeatsOver) {
  auto s = MakeCreditScheduler(1, kPeriod);
  ASSERT_TRUE(s->AddEntity(1, {}).ok());
  ASSERT_TRUE(s->AddEntity(2, {}).ok());
  s->SetRunnable(1, true, 0);
  // Entity 1 burns through its credits alone.
  EntityId id = s->PickNext(0);
  ASSERT_EQ(id, 1u);
  s->Account(1, kPeriod, true, 10);  // far over budget -> OVER priority

  // Entity 2 wakes with fresh credits: it must preempt in the pick order.
  s->SetRunnable(2, true, 10);
  EXPECT_EQ(s->PickNext(10), 2u);
}

TEST(CreditSchedulerTest, BlockedEntityNotPicked) {
  auto s = MakeCreditScheduler(1, kPeriod);
  ASSERT_TRUE(s->AddEntity(1, {}).ok());
  s->SetRunnable(1, true, 0);
  s->SetRunnable(1, false, 0);
  EXPECT_EQ(s->PickNext(0), kIdle);
}

TEST(CreditSchedulerTest, StatsTrackRunsAndCycles) {
  auto s = MakeCreditScheduler(1, kPeriod);
  ASSERT_TRUE(s->AddEntity(1, {}).ok());
  s->SetRunnable(1, true, 0);
  ASSERT_EQ(s->PickNext(5), 1u);
  s->Account(1, 1000, false, 1005);
  const EntityStats& st = s->stats().at(1);
  EXPECT_EQ(st.runs, 1u);
  EXPECT_EQ(st.cpu_cycles, 1000u);
  EXPECT_EQ(st.total_wait, 5u);
}

TEST(CreditSchedulerTest, BoostedWakerPreemptsPickOrder) {
  auto s = MakeCreditScheduler(1, kPeriod);
  ASSERT_TRUE(s->AddEntity(1, {}).ok());  // CPU hog
  ASSERT_TRUE(s->AddEntity(2, {}).ok());  // sleeper (interactive)
  s->SetRunnable(1, true, 0);

  // The hog runs a couple of slices, staying ahead in the FIFO.
  ASSERT_EQ(s->PickNext(0), 1u);
  s->Account(1, 1000, true, 1000);

  // The sleeper wakes with fresh credit: boosted past the hog.
  s->SetRunnable(2, true, 1000);
  EXPECT_EQ(s->PickNext(1000), 2u);
  s->Account(2, 100, false, 1100);

  // Boost is one-shot: after blocking and re-waking with no credits spent it
  // boosts again, but a requeued-without-wake entity does not.
  EXPECT_EQ(s->PickNext(1100), 1u);
}

TEST(CreditSchedulerTest, NoBoostVariantKeepsFifoOrder) {
  auto s = MakeCreditScheduler(1, kPeriod, /*boost=*/false);
  ASSERT_TRUE(s->AddEntity(1, {}).ok());
  ASSERT_TRUE(s->AddEntity(2, {}).ok());
  s->SetRunnable(1, true, 0);
  ASSERT_EQ(s->PickNext(0), 1u);
  s->Account(1, 1000, true, 1000);
  s->SetRunnable(2, true, 1000);
  // Without boost, the hog re-queued first keeps its position.
  EXPECT_EQ(s->PickNext(1000), 1u);
}

TEST(CreditSchedulerTest, ExhaustedWakerGetsNoBoost) {
  auto s = MakeCreditScheduler(1, kPeriod);
  ASSERT_TRUE(s->AddEntity(1, {}).ok());
  ASSERT_TRUE(s->AddEntity(2, {}).ok());
  s->SetRunnable(2, true, 0);
  ASSERT_EQ(s->PickNext(0), 2u);
  s->Account(2, 2 * kPeriod, false, 100);  // burned far past its credit

  s->SetRunnable(1, true, 100);
  ASSERT_EQ(s->PickNext(100), 1u);
  s->Account(1, 1000, true, 1100);

  // Entity 2 wakes with negative credits: no boost, the hog stays ahead.
  s->SetRunnable(2, true, 1100);
  EXPECT_EQ(s->PickNext(1100), 1u);
}

TEST(RoundRobinTest, CyclesThroughEntities) {
  auto s = MakeRoundRobinScheduler();
  for (EntityId id : {1u, 2u, 3u}) {
    ASSERT_TRUE(s->AddEntity(id, {}).ok());
    s->SetRunnable(id, true, 0);
  }
  std::vector<EntityId> order;
  SimTime now = 0;
  for (int i = 0; i < 6; ++i) {
    EntityId id = s->PickNext(now);
    order.push_back(id);
    s->Account(id, 100, true, ++now);
  }
  EXPECT_EQ(order, (std::vector<EntityId>{1, 2, 3, 1, 2, 3}));
}

TEST(RoundRobinTest, WeightsIgnored) {
  auto s = MakeRoundRobinScheduler();
  ASSERT_TRUE(s->AddEntity(1, {.weight = 10000}).ok());
  ASSERT_TRUE(s->AddEntity(2, {.weight = 1}).ok());
  s->SetRunnable(1, true, 0);
  s->SetRunnable(2, true, 0);
  auto granted = Simulate(*s, 100, 1000);
  EXPECT_EQ(granted[1], granted[2]);
}

TEST(RoundRobinTest, MidSliceWakeDoesNotDuplicate) {
  auto s = MakeRoundRobinScheduler();
  ASSERT_TRUE(s->AddEntity(1, {}).ok());
  s->SetRunnable(1, true, 0);
  ASSERT_EQ(s->PickNext(0), 1u);
  // A device interrupt "wakes" the already-running entity mid-slice.
  s->SetRunnable(1, true, 50);
  s->Account(1, 100, true, 100);
  // It must appear exactly once in the queue.
  EXPECT_EQ(s->PickNext(100), 1u);
  s->Account(1, 100, true, 200);
  EXPECT_EQ(s->PickNext(200), 1u);
}

TEST(RoundRobinTest, RemoveWhileQueued) {
  auto s = MakeRoundRobinScheduler();
  ASSERT_TRUE(s->AddEntity(1, {}).ok());
  ASSERT_TRUE(s->AddEntity(2, {}).ok());
  s->SetRunnable(1, true, 0);
  s->SetRunnable(2, true, 0);
  ASSERT_TRUE(s->RemoveEntity(1).ok());
  EXPECT_EQ(s->PickNext(0), 2u);
  s->Account(2, 10, true, 10);
  EXPECT_EQ(s->PickNext(10), 2u);
}

// --- Gang (co-)scheduling ---------------------------------------------------
// The host gangs the vCPUs of every SMP guest: once one member dispatches in
// a round, its runnable gang-mates jump the pick order for the round's
// remaining pCPUs (lowest entity id first). Boost is disabled below so the
// FIFO baseline order is unambiguous.

TEST(GangSchedulerTest, GangMatesJumpThePickOrderWithinARound) {
  auto s = MakeCreditScheduler(4, kPeriod, /*boost=*/false);
  // Two 2-vCPU "VMs": gang 1 = {1, 2}, gang 2 = {3, 4}.
  ASSERT_TRUE(s->AddEntity(1, {.gang = 1}).ok());
  ASSERT_TRUE(s->AddEntity(2, {.gang = 1}).ok());
  ASSERT_TRUE(s->AddEntity(3, {.gang = 2}).ok());
  ASSERT_TRUE(s->AddEntity(4, {.gang = 2}).ok());
  // Wake order interleaves the gangs: 1, 3, 2, 4.
  for (EntityId id : {1u, 3u, 2u, 4u}) {
    s->SetRunnable(id, true, 0);
  }

  s->BeginRound();
  EXPECT_EQ(s->PickNext(0), 1u);  // queue head
  // Plain FIFO would hand the second pCPU to 3; co-scheduling hands it to
  // 1's gang-mate so both halves of the VM run the same round.
  EXPECT_EQ(s->PickNext(0), 2u);
  EXPECT_EQ(s->PickNext(0), 3u);
  EXPECT_EQ(s->PickNext(0), 4u);
}

TEST(GangSchedulerTest, GangMatesDispatchInEntityIdOrder) {
  auto s = MakeCreditScheduler(4, kPeriod, /*boost=*/false);
  for (EntityId id : {5u, 6u, 7u, 8u}) {
    ASSERT_TRUE(s->AddEntity(id, {.gang = 9}).ok());
  }
  // Wake in scrambled order; 7 sits at the head of the FIFO queue.
  for (EntityId id : {7u, 8u, 5u, 6u}) {
    s->SetRunnable(id, true, 0);
  }

  s->BeginRound();
  EXPECT_EQ(s->PickNext(0), 7u);
  // Once the gang is live its remaining members come in entity-id order, not
  // wake order — the fixed dispatch order the SMP bit-identity oracle
  // depends on (vCPU slices serialize by index within a round).
  EXPECT_EQ(s->PickNext(0), 5u);
  EXPECT_EQ(s->PickNext(0), 6u);
  EXPECT_EQ(s->PickNext(0), 8u);
}

TEST(GangSchedulerTest, BeginRoundResetsGangStateThenReestablishesIt) {
  auto s = MakeCreditScheduler(2, kPeriod, /*boost=*/false);
  ASSERT_TRUE(s->AddEntity(1, {.gang = 1}).ok());
  ASSERT_TRUE(s->AddEntity(2, {.gang = 1}).ok());
  ASSERT_TRUE(s->AddEntity(3, {}).ok());
  for (EntityId id : {3u, 1u, 2u}) {
    s->SetRunnable(id, true, 0);
  }

  // Round 1 (2 pCPUs): 3 leads, then 1 by FIFO; 2 misses the round.
  s->BeginRound();
  EXPECT_EQ(s->PickNext(0), 3u);
  EXPECT_EQ(s->PickNext(0), 1u);
  s->Account(3, 1000, /*still_runnable=*/true, 1000);
  s->Account(1, 1000, /*still_runnable=*/true, 1000);

  // Round 2: the gang state from round 1 is gone, so the queue head (2)
  // opens the round by FIFO — but dispatching it makes gang 1 live again and
  // its mate 1 jumps ahead of 3.
  s->BeginRound();
  EXPECT_EQ(s->PickNext(1000), 2u);
  EXPECT_EQ(s->PickNext(1000), 1u);
}

// Per-pCPU time accounting (the cluster DRS load signal) must be
// non-vacuous and reconcile with the aggregate host counters: busy cycles
// sum to cycles_executed, steal sums to context_switches * world-switch
// cost, and a loaded host accrues busy on more than one pCPU while a parked
// one accrues idle time.
TEST(PcpuStatsTest, PerPcpuAccountingReconcilesWithAggregates) {
  core::HostConfig hc;
  hc.num_pcpus = 3;
  hc.worker_threads = 0;
  core::Host host(hc);
  ASSERT_EQ(host.stats().pcpu.size(), 3u);

  auto boot = [&](const std::string& name, const std::string& source) {
    auto image = guest::Build(source);
    ASSERT_TRUE(image.ok());
    auto vm = host.CreateVm(core::VmConfig{.name = name});
    ASSERT_TRUE(vm.ok());
    ASSERT_TRUE((*vm)->LoadImage(*image).ok());
  };
  // Two busy VMs over three pCPUs: two pCPUs run, the third parks.
  boot("busy0", guest::ComputeProgram(0));
  boot("busy1", guest::ComputeProgram(0));
  host.RunFor(10 * kSimTicksPerMs);

  uint64_t busy = 0;
  uint64_t steal = 0;
  SimTime idle = 0;
  uint32_t busy_pcpus = 0;
  for (const core::Host::PcpuStats& pcpu : host.stats().pcpu) {
    busy += pcpu.busy_cycles;
    steal += pcpu.steal_cycles;
    idle += pcpu.idle_time;
    busy_pcpus += pcpu.busy_cycles > 0 ? 1 : 0;
  }
  EXPECT_GT(busy, 0u);
  EXPECT_EQ(busy, host.stats().cycles_executed);
  EXPECT_EQ(steal, host.stats().context_switches * kCosts.context_switch);
  EXPECT_EQ(busy_pcpus, 2u);
  EXPECT_GT(idle, 0u);  // the third pCPU parked for most of the run
}

}  // namespace
}  // namespace hyperion::sched

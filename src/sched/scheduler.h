// vCPU scheduling over simulated pCPUs.
//
// The host run loop asks the scheduler which entity (vCPU) to run on a free
// pCPU and reports consumed cycles back. Two policies are provided:
//
//  * CreditScheduler — Xen-style proportional share: each accounting period
//    distributes credits by weight; entities with credit remaining (UNDER)
//    run before those that exhausted it (OVER); per-entity caps bound
//    consumption to a fraction of one pCPU.
//  * RoundRobinScheduler — the fairness-oblivious baseline.

#ifndef SRC_SCHED_SCHEDULER_H_
#define SRC_SCHED_SCHEDULER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string_view>
#include <vector>

#include "src/util/sim_clock.h"
#include "src/util/status.h"

namespace hyperion::sched {

using EntityId = uint32_t;
inline constexpr EntityId kIdle = UINT32_MAX;

struct EntityConfig {
  uint32_t weight = 256;   // proportional share (Xen default)
  uint32_t cap_percent = 0;  // max % of one pCPU per period; 0 = uncapped
  // Co-scheduling group, 0 = none. Once one member of a gang is dispatched
  // in a round, its runnable gang-mates jump the pick order for the round's
  // remaining pCPUs (lowest entity id first). The host gangs the vCPUs of
  // every SMP guest so siblings run the same rounds: a descheduled MCS-lock
  // holder otherwise leaves its siblings spinning for whole timeslices
  // (lock-holder preemption), and IPI round-trips stretch across rounds.
  uint32_t gang = 0;
};

struct EntityStats {
  uint64_t cpu_cycles = 0;   // total cycles granted
  uint64_t runs = 0;         // times picked
  uint64_t preemptions = 0;  // budget-exhausted slices
  SimTime total_wait = 0;    // runnable-to-run latency accumulated
};

class Scheduler {
 public:
  // Host-imposed dispatch constraint for batched picks: entities for which
  // the predicate returns false are skipped (they stay queued, in order). An
  // empty function means "everything is eligible".
  using EligibleFn = std::function<bool(EntityId)>;

  virtual ~Scheduler() = default;
  virtual std::string_view name() const = 0;

  virtual Status AddEntity(EntityId id, EntityConfig config) = 0;
  virtual Status RemoveEntity(EntityId id) = 0;

  // Called by the host at the top of every dispatch round. Schedulers that
  // co-schedule gangs reset their per-round gang state here.
  virtual void BeginRound() {}

  // Marks an entity runnable/blocked. `now` timestamps wait-latency tracking.
  virtual void SetRunnable(EntityId id, bool runnable, SimTime now) = 0;

  // Picks the next entity to run at `now` that satisfies `eligible`, or
  // kIdle. An entity whose last slice ends after `now` is not eligible (a
  // vCPU runs on one pCPU at a time, even though the host executes
  // overlapping slices sequentially). The host's round dispatcher calls this
  // once per free pCPU, building a batch; accounting for the whole batch is
  // deferred to the round barrier (Account).
  virtual EntityId PickNext(SimTime now, const EligibleFn& eligible) = 0;

  EntityId PickNext(SimTime now) { return PickNext(now, EligibleFn{}); }

  // Earliest time at which some queued-but-ineligible entity becomes
  // runnable, or SIZE_MAX when none is waiting on time.
  virtual SimTime NextEligibleTime(SimTime now) const = 0;

  // Reports that `id` consumed `cycles`; called after every slice. `still_runnable`
  // tells the scheduler whether to requeue it.
  virtual void Account(EntityId id, uint64_t cycles, bool still_runnable, SimTime now) = 0;

  virtual const std::map<EntityId, EntityStats>& stats() const = 0;
};

// `boost` enables the BOOST priority class: a vCPU waking from sleep with
// credit remaining preempts the pick order once, which keeps I/O-bound and
// interactive vCPUs responsive next to CPU hogs (Xen's credit-scheduler
// BOOST). Disable for the ablation baseline.
std::unique_ptr<Scheduler> MakeCreditScheduler(uint32_t num_pcpus,
                                               uint64_t period_cycles = 30'000'000,
                                               bool boost = true);
std::unique_ptr<Scheduler> MakeRoundRobinScheduler();

enum class SchedPolicy : uint8_t {
  kCredit = 0,
  kRoundRobin = 1,
  kCreditNoBoost = 2,  // ablation: credit without the BOOST wake priority
};

std::unique_ptr<Scheduler> MakeScheduler(SchedPolicy policy, uint32_t num_pcpus);

}  // namespace hyperion::sched

#endif  // SRC_SCHED_SCHEDULER_H_

// A shared simulated-time domain: one SimClock, one event horizon, one
// worker pool, and N member hosts stepped in lockstep.
//
// PR 5 built the staged dispatch→execute→commit round loop inside Host; this
// refactor lifts the round orchestration here so several hosts can share a
// single time domain (a cluster). Each round:
//
//   1. runs every member's fault gate (injected host crash / pause windows),
//   2. anchors at the earliest dispatch time across members and advances the
//      shared clock there, firing due events,
//   3. lets each member dispatch slices against the shared event horizon
//      (the store-veto map spans members, since a BlockStore can be shared
//      across hosts mid-migration),
//   4. executes all members' lanes on one worker pool (a lane never crosses
//      VMs, and a VM never spans hosts),
//   5. commits staged effects in member order, each member's slices in
//      dispatch order — so results stay bit-identical at any worker count.
//
// A standalone Host owns a degenerate TimeDomain of one; a Cluster owns one
// domain for all its members. Either way the run loop is this one code path.

#ifndef SRC_CORE_TIME_DOMAIN_H_
#define SRC_CORE_TIME_DOMAIN_H_

#include <memory>
#include <vector>

#include "src/core/worker_pool.h"
#include "src/util/phase.h"
#include "src/util/sim_clock.h"

namespace hyperion::core {

class Host;

class TimeDomain {
 public:
  // worker_threads: 0 runs every lane on the calling thread; N spawns a
  // persistent pool of N threads; -1 reads HYPERION_WORKERS (default 0).
  // Simulation results are identical for every setting.
  explicit TimeDomain(int worker_threads = -1);
  ~TimeDomain();

  TimeDomain(const TimeDomain&) = delete;
  TimeDomain& operator=(const TimeDomain&) = delete;

  SimClock& clock() { return clock_; }
  const SimClock& clock() const { return clock_; }
  uint32_t worker_threads() const { return worker_threads_; }
  const std::vector<Host*>& members() const { return members_; }

  // Advances the domain by `duration`, stepping every member host's rounds
  // against the shared event horizon.
  void RunFor(SimTime duration);

 private:
  friend class Host;

  void AddMember(Host* host);
  void RemoveMember(Host* host);

  // Runs one lockstep dispatch→execute→commit round toward `end`. Returns
  // false when nothing can happen before `end` (time has been advanced
  // there). Mints the round's CommitPhase for the barrier merge.
  bool RunRound(SimTime end);

  // The domain thread's serial-phase capability, handed to everything the
  // round loop does between rounds (clock pumping, fault gates).
  SerialPhase serial_;
  SimClock clock_;
  std::vector<Host*> members_;
  uint32_t worker_threads_ = 0;
  std::unique_ptr<WorkerPool> workers_;  // created on first parallel round
};

}  // namespace hyperion::core

#endif  // SRC_CORE_TIME_DOMAIN_H_

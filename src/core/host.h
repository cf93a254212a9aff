// The physical host: frames, switch, scheduler, and the per-host half of the
// run loop that time-slices vCPUs over simulated pCPUs.
//
// The run loop is a staged dispatch→execute→commit pipeline (DESIGN.md §8):
// each round dispatches up to num_pcpus slices whose start times fall before
// the next pending clock event, executes them concurrently on a worker pool
// with every cross-VM side effect staged per slice, and commits the staged
// effects at a barrier in dispatch order. The committed state is
// bit-identical for any worker count, including zero.
//
// Simulated time lives in a TimeDomain (src/core/time_domain.h), which also
// orchestrates the rounds: a standalone Host owns a degenerate domain of
// one, while clustered hosts share their Cluster's domain and step in
// lockstep. Host contributes the per-member pieces — fault gate, dispatch,
// slice execution, commit, idle parking — to the domain's round.

#ifndef SRC_CORE_HOST_H_
#define SRC_CORE_HOST_H_

#include <map>
#include <memory>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "src/core/time_domain.h"
#include "src/core/vm.h"
#include "src/core/worker_pool.h"
#include "src/mem/frame_pool.h"
#include "src/net/network.h"
#include "src/sched/scheduler.h"
#include "src/util/phase.h"
#include "src/util/sim_clock.h"

namespace hyperion::fault {
class FaultInjector;
}  // namespace hyperion::fault

namespace hyperion::core {

struct HostConfig {
  std::string name = "host";
  uint32_t num_pcpus = 4;
  uint64_t ram_bytes = 256u << 20;  // host physical memory
  sched::SchedPolicy sched_policy = sched::SchedPolicy::kCredit;
  // Worker threads for the staged execution core. 0 runs every lane on the
  // host thread; N spawns a persistent pool of N threads (the host thread
  // participates too). -1 reads HYPERION_WORKERS at construction (default
  // 0). Simulation results are identical for every setting.
  int worker_threads = -1;
};

class Host {
 public:
  // Standalone: the host owns a degenerate TimeDomain of one.
  explicit Host(HostConfig config = HostConfig{});
  // Clustered: the host joins `domain` (borrowed; must outlive the host) and
  // shares its clock, event horizon, and worker pool with the other members.
  Host(HostConfig config, TimeDomain* domain);
  ~Host();

  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  const HostConfig& config() const { return config_; }
  const std::string& name() const { return config_.name; }
  TimeDomain& domain() { return *domain_; }
  SimClock& clock() { return domain_->clock(); }
  const SimClock& clock() const { return domain_->clock(); }
  mem::FramePool& pool() { return pool_; }
  net::VirtualSwitch& vswitch() { return switch_; }
  sched::Scheduler& scheduler() { return *sched_; }
  uint32_t worker_threads() const { return domain_->worker_threads(); }

  // --- VM management -----------------------------------------------------

  Result<Vm*> CreateVm(VmConfig config);
  Status DestroyVm(Vm* vm);
  Vm* FindVm(const std::string& name);
  const std::vector<std::unique_ptr<Vm>>& vms() const { return vms_; }

  // --- Run loop ------------------------------------------------------------

  // Advances simulated time by `duration`, scheduling vCPUs and firing
  // device events. In a shared domain this advances every member host — time
  // is one fabric-wide quantity.
  void RunFor(SimTime duration);

  // Convenience: run until `vm` leaves the running state (or max_time).
  bool RunUntilVmStops(Vm* vm, SimTime max_time);

  // --- Hooks used by Vm --------------------------------------------------

  // Marks a vCPU runnable (device interrupt, page arrival, resume). Staged
  // when called from inside an executing slice; the phase token is the
  // static evidence the caller is in a legal regime for the route taken.
  void WakeVcpu(const Phase& ph, Vm* vm, uint32_t vcpu);
  // Marks a vCPU not runnable (WFI, stall, halt).
  void BlockVcpu(const Phase& ph, Vm* vm, uint32_t vcpu);

  // --- Fault injection -----------------------------------------------------

  // Subjects this host to the injector's kHostPause/kHostCrash events under
  // `site`. During a pause window the run loop schedules no vCPU slices —
  // simulated time and device events still advance (an SMI-style stall). A
  // crash event crashes every running VM once. Pass nullptr to detach.
  void SetFaultInjector(fault::FaultInjector* injector, std::string site);

  // Sticky: set by an injected kHostCrash. The cluster orchestrator reads it
  // to trigger evacuation and exclude the host from placement; standalone
  // hosts keep running (their VMs were crashed once). MarkRepaired re-admits
  // the host after simulated maintenance.
  bool failed() const { return failed_; }
  void MarkRepaired() { failed_ = false; }

  // Audits FramePool refcounts against every VM's page mappings (KSM share
  // accounting; see src/verify/audit.h). Called automatically at each round
  // barrier when HYPERION_AUDIT is on — a violation crashes every running VM
  // — and directly by tests.
  verify::AuditReport AuditFrameAccounting() const;

  // Per-pCPU time accounting — the DRS load signal, and useful standalone.
  // busy is guest cycles committed on the pCPU; steal is VMM overhead
  // charged against the guest (world-switch cost on vCPU changes); idle is
  // parked time with nothing runnable. All three are committed at the round
  // barrier, so they are bit-identical at any worker count.
  struct PcpuStats {
    uint64_t busy_cycles = 0;
    uint64_t steal_cycles = 0;
    SimTime idle_time = 0;
    bool operator==(const PcpuStats&) const = default;
  };

  struct HostStats {
    uint64_t slices = 0;
    uint64_t idle_picks = 0;
    uint64_t cycles_executed = 0;
    uint64_t context_switches = 0;
    uint64_t rounds = 0;           // dispatch→execute→commit rounds
    SimTime fault_pause_time = 0;  // time spent inside injected pause windows
    std::vector<PcpuStats> pcpu;   // sized num_pcpus at construction
    bool operator==(const HostStats&) const = default;
  };
  const HostStats& stats() const { return stats_; }

 private:
  friend class Vm;
  friend class TimeDomain;

  // Longest slice a vCPU runs before the scheduler picks again: 1 ms.
  static constexpr uint64_t kTimesliceCycles = 1'000'000;

  struct EntityRef {
    Vm* vm = nullptr;
    uint32_t vcpu = 0;
  };

  // A deferred scheduler wake/block captured during slice execution.
  struct WakeOp {
    Vm* vm;
    uint32_t vcpu;
    bool runnable;
  };

  // One dispatched slice plus every side effect it staged while executing.
  struct SliceWork {
    Host* host = nullptr;
    uint32_t pcpu = 0;
    SimTime start = 0;
    sched::EntityId id = sched::kIdle;
    EntityRef ref;
    uint64_t budget = 0;
    SliceResult result;
    SimClock::Stage clock_stage;
    net::VirtualSwitch::TxStage tx_stage;
    mem::FramePool::Stage pool_stage;
    std::vector<WakeOp> wakes;
  };

  // A pCPU that found nothing runnable at `start` and parks until `park`.
  struct IdlePick {
    uint32_t pcpu;
    SimTime start;
    SimTime park;
  };

  // This host's contribution to one domain round: the dispatched slices and
  // idle picks, plus the commit-time bounds the idle-parking clamp needs.
  struct RoundPlan {
    std::vector<SliceWork> slices;
    std::vector<IdlePick> idles;
    bool vetoed = false;                      // lost a store-sharing veto
    SimTime min_done = ~SimTime{0};           // earliest slice completion
    SimTime wake_horizon = ~SimTime{0};       // earliest committed wake
  };

  sched::EntityId EntityOf(Vm* vm, uint32_t vcpu) const;

  // --- Per-member round pieces, called by TimeDomain::RunRound -------------

  // Consumes injected host crash / pause events at the round's start;
  // updates paused_until_ and the pause-time accounting (clamped to `end`).
  void FaultGate(SimTime end);
  // Earliest time this host could dispatch a slice: its earliest-free pCPU,
  // or the end of an active pause window.
  SimTime DispatchAnchor() const;
  // Dispatches slices/idle picks into `plan` up to `window_end` (budgets run
  // to `end`). `store_users` is the round-wide shared-BlockStore veto map —
  // domain-wide, since a store can span hosts mid-migration.
  void DispatchRound(SimTime window_end, SimTime end,
                     std::map<const void*, const Vm*>& store_users, RoundPlan& plan);
  // Merges every staged effect of `plan`'s slices at the barrier, in
  // dispatch order; fills plan.min_done / plan.wake_horizon.
  void CommitSlices(const CommitPhase& commit, RoundPlan& plan);
  // Parks idle pCPUs; a vetoed host's park is clamped by the domain-wide
  // earliest slice completion (the conflicting slice may be on another
  // host), and every park by the next pending clock event as of the barrier
  // (a commit-scheduled delivery may wake a vCPU here long before the
  // dispatch-time window suggested).
  void ParkIdles(const RoundPlan& plan, SimTime domain_min_done, SimTime event_horizon);

  // Mints an ExecutePhase, installs the thread-local stages, runs the
  // slice, clears the stages.
  void ExecuteSlice(SliceWork& work);
  void CrashAllVms(const Status& reason);

  // The body of WakeVcpu/BlockVcpu: a wake also clears the vCPU's waiting
  // flag.
  void SetVcpuRunnable(const Phase& ph, Vm* vm, uint32_t vcpu, bool runnable);

  // Set while this thread executes a slice for this host; WakeVcpu/BlockVcpu
  // append to its wake list instead of touching the scheduler.
  static inline thread_local SliceWork* tls_slice_ = nullptr;

  HostConfig config_;
  // The host thread's serial-phase capability, handed to everything the host
  // does between rounds (VM setup/teardown, crash handling). Host is a
  // friend of SerialPhase; nothing on a worker lane can reach this member.
  SerialPhase serial_;
  mem::FramePool pool_;
  std::unique_ptr<TimeDomain> owned_domain_;  // standalone only
  TimeDomain* domain_;                        // owned or borrowed
  net::VirtualSwitch switch_;
  std::unique_ptr<sched::Scheduler> sched_;
  std::vector<std::unique_ptr<Vm>> vms_;

  std::map<sched::EntityId, EntityRef> entities_;
  std::map<const Vm*, sched::EntityId> vm_base_entity_;
  sched::EntityId next_entity_ = 1;

  std::vector<SimTime> pcpu_free_at_;
  std::vector<sched::EntityId> pcpu_last_entity_;
  // Min-heap over (free_at, pcpu index): dispatch pops pCPUs in deterministic
  // earliest-free order without the former O(P) scan. Every pCPU is in the
  // heap exactly once; pops during dispatch are matched by pushes at commit.
  using PcpuHeap =
      std::priority_queue<std::pair<SimTime, uint32_t>,
                          std::vector<std::pair<SimTime, uint32_t>>, std::greater<>>;
  PcpuHeap pcpu_heap_;

  fault::FaultInjector* fault_injector_ = nullptr;
  std::string fault_site_;
  // Active injected pause window: no dispatch while now < paused_until_.
  // Refreshed by FaultGate each round; accounting is incremental against
  // pause_accounted_until_ because the shared clock may advance less than
  // the window per round (other members still run).
  SimTime paused_until_ = 0;
  SimTime pause_accounted_until_ = 0;
  bool failed_ = false;
  HostStats stats_;
};

}  // namespace hyperion::core

#endif  // SRC_CORE_HOST_H_

// A multi-host cluster: member hosts share one TimeDomain (one clock, one
// event horizon, one worker pool — rounds step in lockstep and results stay
// bit-identical at any worker count), their switches are joined by a Fabric,
// and a DRS-style orchestrator places, rebalances, drains, and evacuates VMs
// across them.
//
// The orchestrator runs between simulated-time chunks, never from inside a
// clock callback: live migrations re-enter the domain's run loop to drive
// their own wire transfers, so DrsTick must own the top of the stack. Every
// decision input (per-pCPU busy/steal deltas, committed resources, member
// order) is committed at round barriers, which makes placement and migration
// choices — and therefore the whole cluster history — deterministic.

#ifndef SRC_CLUSTER_CLUSTER_H_
#define SRC_CLUSTER_CLUSTER_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/cluster/fabric.h"
#include "src/core/host.h"
#include "src/core/time_domain.h"
#include "src/migrate/migrate.h"
#include "src/util/phase.h"
#include "src/util/status.h"

namespace hyperion::cluster {

struct DrsConfig {
  bool enabled = true;
  // Orchestrator cadence: Cluster::RunFor stops the domain at multiples of
  // this interval and runs one DrsTick. 0 disables periodic ticks (tests can
  // still call DrsTick() directly).
  SimTime interval = 10 * kSimTicksPerMs;
  // Hysteresis band: a host whose busy fraction (busy+steal cycles over
  // window * pcpus) reaches hot_busy starts shedding VMs and keeps shedding
  // on later ticks until it drops below cool_until — no flapping between
  // the two thresholds.
  double hot_busy = 0.85;
  double cool_until = 0.60;
  // A migration must move load to a target at least this much cooler than
  // the source, else it isn't worth the copy traffic.
  double min_gain = 0.10;
  // Rebalance budget per tick, cluster-wide. Drains and evacuations are not
  // budgeted — correctness moves, not optimization moves.
  uint32_t max_migrations_per_tick = 1;
};

struct ClusterConfig {
  std::string name = "cluster";
  // Worker threads for the shared TimeDomain; -1 reads HYPERION_WORKERS.
  int worker_threads = -1;
  // Each member's uplink cable to the fabric (both directions).
  net::LinkParams fabric;
  // Admission: committed vCPUs may reach cpu_overcommit * num_pcpus, and
  // committed guest RAM ram_overcommit * host RAM, per host.
  double cpu_overcommit = 4.0;
  double ram_overcommit = 1.0;
  DrsConfig drs;
};

// One orchestrator-initiated migration, successful or not. `report` carries
// the full wire/dirty accounting and is field-by-field comparable, so a
// cluster run's migration history doubles as a determinism oracle.
struct MigrationRecord {
  std::string vm;
  std::string from;
  std::string to;
  std::string reason;  // "rebalance" | "drain"
  bool ok = false;
  migrate::MigrationReport report;
  bool operator==(const MigrationRecord&) const = default;
};

struct ClusterStats {
  uint64_t vms_admitted = 0;
  uint64_t vms_rejected = 0;
  uint64_t vms_departed = 0;
  uint64_t rebalance_migrations = 0;
  uint64_t drain_migrations = 0;
  uint64_t failed_migrations = 0;
  uint64_t evacuations_respawned = 0;
  uint64_t evacuations_lost = 0;  // no checkpoint template or no capacity
  uint64_t checkpoints = 0;
  uint64_t drs_ticks = 0;
  bool operator==(const ClusterStats&) const = default;
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig config = ClusterConfig{});

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  const ClusterConfig& config() const { return config_; }
  core::TimeDomain& domain() { return domain_; }
  SimClock& clock() { return domain_.clock(); }
  Fabric& fabric() { return fabric_; }
  const std::vector<std::unique_ptr<core::Host>>& hosts() const { return hosts_; }

  // Adds a member host. An empty or duplicate name is replaced with
  // "<cluster>-h<index>". The host joins the shared domain and fabric;
  // worker threads come from the domain, not the host config.
  core::Host* AddHost(core::HostConfig config = core::HostConfig{});
  core::Host* FindHost(const std::string& name);

  // --- VM lifecycle --------------------------------------------------------

  // Admission + initial placement: rejects when no schedulable host has
  // overcommit headroom, else places on the least-committed host (fractional
  // vCPU commit, then RAM commit, then member order). Pass `pin` to force a
  // host — still admission-checked.
  Result<core::Vm*> CreateVm(core::VmConfig config, core::Host* pin = nullptr);
  // Departure (churn): destroys the VM wherever it currently lives.
  Status DestroyVm(const std::string& name);
  core::Vm* FindVm(const std::string& name);
  core::Host* HostOf(const std::string& name);
  size_t GuestCount() const { return vm_home_.size(); }

  // --- DR & maintenance ----------------------------------------------------

  // Snapshots the VM (pausing around the save if running) and stores the
  // bytes as its respawn template. A host crash evacuates only VMs that have
  // a template; keep them fresh with CheckpointVm or CheckpointAll.
  Status CheckpointVm(const std::string& name);
  // Checkpoints every running VM; returns how many were saved.
  size_t CheckpointAll();

  // Rolling maintenance: a draining host admits nothing new and DrsTick
  // live-migrates its VMs away until it is empty.
  Status DrainHost(core::Host* host);
  void UndrainHost(core::Host* host);
  bool IsDraining(const core::Host* host) const;

  // --- Run loop ------------------------------------------------------------

  // Advances the shared clock by `duration`, running a DrsTick at every
  // drs.interval boundary. Time spent inside migrations counts.
  void RunFor(SimTime duration);

  // One orchestrator pass: refresh load windows, evacuate failed hosts,
  // drain moves, hot-host rebalance. Moves are pre-copy migrations with
  // default MigrateOptions. Public so tests can force a pass without waiting
  // out the interval.
  void DrsTick();

  // Busy fraction of `host` over the last completed DRS window — the load
  // signal rebalancing acts on.
  double BusyFraction(const core::Host* host) const;

  const std::vector<MigrationRecord>& migrations() const { return migrations_; }
  const ClusterStats& stats() const { return stats_; }

 private:
  struct HostState {
    bool draining = false;
    bool evacuated = false;  // crash already processed (until MarkRepaired)
    bool cooling = false;    // hysteresis latch: shedding until < cool_until
    uint64_t window_base = 0;  // sum of busy+steal cycles at window start
    SimTime window_start = 0;
    double busy_frac = 0;  // last completed window
  };

  bool Schedulable(const core::Host* host) const;
  static uint64_t CommittedVcpus(const core::Host* host);
  static uint64_t CommittedRam(const core::Host* host);
  bool Admits(const core::Host* host, const core::VmConfig& config) const;
  // Least-committed schedulable host admitting `config`, excluding `exclude`;
  // nullptr when none fits.
  core::Host* PickTarget(const core::VmConfig& config, const core::Host* exclude);
  bool MigrateVm(core::Vm* vm, core::Host* from, core::Host* to, const std::string& reason);
  void EvacuateHost(core::Host* host);
  void EvacuateFailedHosts();
  void RefreshLoadWindows();
  void DrainTick();
  void RebalanceTick();

  ClusterConfig config_;
  // The orchestrator's serial-phase capability: runtime-checked at
  // construction, so a Cluster can never be built (or driven) from inside an
  // executing slice.
  ScopedSerialPhase serial_;
  core::TimeDomain domain_;  // before fabric_ and hosts_: outlives both
  Fabric fabric_;
  std::vector<std::unique_ptr<core::Host>> hosts_;
  std::map<const core::Host*, HostState> host_state_;
  std::map<std::string, core::Host*> vm_home_;  // resident VMs, by name
  std::map<std::string, std::vector<uint8_t>> checkpoints_;
  std::vector<MigrationRecord> migrations_;
  SimTime last_tick_ = 0;
  ClusterStats stats_;
};

}  // namespace hyperion::cluster

#endif  // SRC_CLUSTER_CLUSTER_H_

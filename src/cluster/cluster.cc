#include "src/cluster/cluster.h"

#include <algorithm>
#include <utility>

#include "src/snapshot/snapshot.h"

namespace hyperion::cluster {

Cluster::Cluster(ClusterConfig config)
    : config_(std::move(config)),
      domain_(config_.worker_threads),
      fabric_(&domain_.clock(), config_.fabric) {}

core::Host* Cluster::AddHost(core::HostConfig config) {
  if (config.name.empty() || FindHost(config.name) != nullptr) {
    config.name = config_.name + "-h" + std::to_string(hosts_.size());
  }
  hosts_.push_back(std::make_unique<core::Host>(std::move(config), &domain_));
  core::Host* host = hosts_.back().get();
  fabric_.AddHost(host);
  host_state_.emplace(host, HostState{});
  return host;
}

core::Host* Cluster::FindHost(const std::string& name) {
  for (auto& host : hosts_) {
    if (host->name() == name) {
      return host.get();
    }
  }
  return nullptr;
}

// --- Placement & admission -------------------------------------------------

bool Cluster::Schedulable(const core::Host* host) const {
  auto it = host_state_.find(host);
  return !host->failed() && (it == host_state_.end() || !it->second.draining);
}

uint64_t Cluster::CommittedVcpus(const core::Host* host) {
  uint64_t vcpus = 0;
  for (const auto& vm : host->vms()) {
    vcpus += vm->num_vcpus();
  }
  return vcpus;
}

uint64_t Cluster::CommittedRam(const core::Host* host) {
  uint64_t ram = 0;
  for (const auto& vm : host->vms()) {
    ram += vm->config().ram_bytes;
  }
  return ram;
}

bool Cluster::Admits(const core::Host* host, const core::VmConfig& config) const {
  double vcpu_cap = config_.cpu_overcommit * host->config().num_pcpus;
  double ram_cap = config_.ram_overcommit * static_cast<double>(host->config().ram_bytes);
  return static_cast<double>(CommittedVcpus(host) + config.num_vcpus) <= vcpu_cap &&
         static_cast<double>(CommittedRam(host) + config.ram_bytes) <= ram_cap;
}

core::Host* Cluster::PickTarget(const core::VmConfig& config, const core::Host* exclude) {
  core::Host* best = nullptr;
  double best_vcpu_frac = 0;
  uint64_t best_ram = 0;
  for (auto& candidate : hosts_) {
    core::Host* host = candidate.get();
    if (host == exclude || !Schedulable(host) || !Admits(host, config)) {
      continue;
    }
    double vcpu_frac =
        static_cast<double>(CommittedVcpus(host)) / host->config().num_pcpus;
    uint64_t ram = CommittedRam(host);
    // Strictly-less comparisons keep ties on member order: deterministic.
    if (best == nullptr || vcpu_frac < best_vcpu_frac ||
        (vcpu_frac == best_vcpu_frac && ram < best_ram)) {
      best = host;
      best_vcpu_frac = vcpu_frac;
      best_ram = ram;
    }
  }
  return best;
}

// --- VM lifecycle ----------------------------------------------------------

Result<core::Vm*> Cluster::CreateVm(core::VmConfig config, core::Host* pin) {
  if (vm_home_.count(config.name) != 0) {
    return AlreadyExistsError("vm name already placed in cluster: " + config.name);
  }
  core::Host* target = pin;
  if (target == nullptr) {
    target = PickTarget(config, nullptr);
  } else if (!Schedulable(target) || !Admits(target, config)) {
    target = nullptr;
  }
  if (target == nullptr) {
    ++stats_.vms_rejected;
    return ResourceExhaustedError("no schedulable host admits vm: " + config.name);
  }
  std::string name = config.name;
  Result<core::Vm*> vm = target->CreateVm(std::move(config));
  if (!vm.ok()) {
    ++stats_.vms_rejected;
    return vm;
  }
  vm_home_[name] = target;
  ++stats_.vms_admitted;
  return vm;
}

Status Cluster::DestroyVm(const std::string& name) {
  auto it = vm_home_.find(name);
  if (it == vm_home_.end()) {
    return NotFoundError("vm not placed in cluster: " + name);
  }
  core::Host* home = it->second;
  vm_home_.erase(it);
  checkpoints_.erase(name);
  ++stats_.vms_departed;
  core::Vm* vm = home->FindVm(name);
  if (vm == nullptr) {
    return InternalError("placement record with no resident vm: " + name);
  }
  return home->DestroyVm(vm);
}

core::Vm* Cluster::FindVm(const std::string& name) {
  core::Host* home = HostOf(name);
  return home == nullptr ? nullptr : home->FindVm(name);
}

core::Host* Cluster::HostOf(const std::string& name) {
  auto it = vm_home_.find(name);
  return it == vm_home_.end() ? nullptr : it->second;
}

// --- DR & maintenance ------------------------------------------------------

Status Cluster::CheckpointVm(const std::string& name) {
  core::Vm* vm = FindVm(name);
  if (vm == nullptr) {
    return NotFoundError("vm not placed in cluster: " + name);
  }
  if (vm->state() != core::VmState::kRunning && vm->state() != core::VmState::kPaused) {
    return FailedPreconditionError("vm is not checkpointable: " + name);
  }
  bool was_running = vm->state() == core::VmState::kRunning;
  if (was_running) {
    vm->Pause(serial_.get());
  }
  Result<std::vector<uint8_t>> bytes = snapshot::SaveVm(*vm);
  if (was_running) {
    vm->Resume(serial_.get());
  }
  if (!bytes.ok()) {
    return bytes.status();
  }
  checkpoints_[name] = std::move(*bytes);
  ++stats_.checkpoints;
  return OkStatus();
}

size_t Cluster::CheckpointAll() {
  size_t saved = 0;
  // vm_home_ is name-ordered, so the pause/save sequence is deterministic.
  std::vector<std::string> names;
  names.reserve(vm_home_.size());
  for (const auto& [name, home] : vm_home_) {
    names.push_back(name);
  }
  for (const std::string& name : names) {
    core::Vm* vm = FindVm(name);
    if (vm != nullptr && vm->state() == core::VmState::kRunning &&
        CheckpointVm(name).ok()) {
      ++saved;
    }
  }
  return saved;
}

Status Cluster::DrainHost(core::Host* host) {
  auto it = host_state_.find(host);
  if (it == host_state_.end()) {
    return NotFoundError("host is not a cluster member");
  }
  it->second.draining = true;
  return OkStatus();
}

void Cluster::UndrainHost(core::Host* host) {
  auto it = host_state_.find(host);
  if (it != host_state_.end()) {
    it->second.draining = false;
  }
}

bool Cluster::IsDraining(const core::Host* host) const {
  auto it = host_state_.find(host);
  return it != host_state_.end() && it->second.draining;
}

// --- Migration & evacuation ------------------------------------------------

bool Cluster::MigrateVm(core::Vm* vm, core::Host* from, core::Host* to,
                        const std::string& reason) {
  MigrationRecord record;
  record.vm = vm->name();
  record.from = from->name();
  record.to = to->name();
  record.reason = reason;
  Result<core::Vm*> moved =
      migrate::PreCopyMigrate(*from, vm, *to, migrate::MigrateOptions{}, &record.report);
  record.ok = moved.ok();
  bool ok = record.ok;
  if (ok) {
    // Contract: the source instance is left paused for the caller.
    (void)from->DestroyVm(vm);
    vm_home_[record.vm] = to;
    if (reason == "drain") {
      ++stats_.drain_migrations;
    } else {
      ++stats_.rebalance_migrations;
    }
  } else {
    ++stats_.failed_migrations;
  }
  migrations_.push_back(std::move(record));
  return ok;
}

void Cluster::EvacuateHost(core::Host* host) {
  HostState& state = host_state_[host];
  state.evacuated = true;
  state.cooling = false;
  // Victims are the crashed instances (an injected host crash crashes every
  // running VM); shut-down VMs already finished and keep their results
  // readable in place. Name order keeps respawn placement deterministic.
  std::vector<std::string> victims;
  for (const auto& vm : host->vms()) {
    if (vm->state() == core::VmState::kCrashed && vm_home_.count(vm->name()) != 0) {
      victims.push_back(vm->name());
    }
  }
  std::sort(victims.begin(), victims.end());
  for (const std::string& name : victims) {
    core::Vm* dead = host->FindVm(name);
    core::VmConfig config = dead->config();
    (void)host->DestroyVm(dead);
    vm_home_.erase(name);
    auto checkpoint = checkpoints_.find(name);
    if (checkpoint == checkpoints_.end()) {
      ++stats_.evacuations_lost;  // nothing to respawn from
      continue;
    }
    core::Host* target = PickTarget(config, host);
    if (target == nullptr) {
      ++stats_.evacuations_lost;  // no capacity anywhere
      continue;
    }
    // CloneVm restores memory and vCPU state and comes back running.
    Result<core::Vm*> revived = snapshot::CloneVm(*target, std::move(config),
                                                  checkpoint->second);
    if (!revived.ok()) {
      ++stats_.evacuations_lost;
      continue;
    }
    vm_home_[name] = target;
    ++stats_.evacuations_respawned;
  }
}

// --- DRS -------------------------------------------------------------------

double Cluster::BusyFraction(const core::Host* host) const {
  auto it = host_state_.find(host);
  return it == host_state_.end() ? 0.0 : it->second.busy_frac;
}

void Cluster::RefreshLoadWindows() {
  SimTime now = clock().now();
  for (auto& member : hosts_) {
    core::Host* host = member.get();
    HostState& state = host_state_[host];
    uint64_t used = 0;
    for (const core::Host::PcpuStats& pcpu : host->stats().pcpu) {
      used += pcpu.busy_cycles + pcpu.steal_cycles;
    }
    SimTime window = now - state.window_start;
    if (window > 0) {
      double capacity = static_cast<double>(window) * host->config().num_pcpus;
      state.busy_frac = static_cast<double>(used - state.window_base) / capacity;
    }
    state.window_base = used;
    state.window_start = now;
  }
}

void Cluster::DrainTick() {
  for (auto& member : hosts_) {
    core::Host* host = member.get();
    if (!IsDraining(host) || host->failed()) {
      continue;
    }
    std::vector<std::string> names;
    for (const auto& vm : host->vms()) {
      if (vm->state() == core::VmState::kRunning) {
        names.push_back(vm->name());
      }
    }
    std::sort(names.begin(), names.end());
    for (const std::string& name : names) {
      core::Vm* vm = host->FindVm(name);
      core::Host* target = PickTarget(vm->config(), host);
      if (target == nullptr) {
        break;  // no capacity this tick; retry next tick
      }
      MigrateVm(vm, host, target, "drain");
    }
  }
}

void Cluster::RebalanceTick() {
  if (!config_.drs.enabled) {
    return;
  }
  for (auto& member : hosts_) {
    HostState& state = host_state_[member.get()];
    if (!Schedulable(member.get())) {
      state.cooling = false;
    } else if (state.busy_frac >= config_.drs.hot_busy) {
      state.cooling = true;
    } else if (state.busy_frac < config_.drs.cool_until) {
      state.cooling = false;
    }
  }
  uint32_t budget = config_.drs.max_migrations_per_tick;
  for (auto& member : hosts_) {
    core::Host* hot = member.get();
    if (budget == 0) {
      break;
    }
    if (!host_state_[hot].cooling || !Schedulable(hot)) {
      continue;
    }
    // Victim: the cheapest-to-move running VM (smallest RAM, then name).
    std::vector<core::Vm*> victims;
    for (const auto& vm : hot->vms()) {
      if (vm->state() == core::VmState::kRunning) {
        victims.push_back(vm.get());
      }
    }
    std::sort(victims.begin(), victims.end(), [](const core::Vm* a, const core::Vm* b) {
      if (a->config().ram_bytes != b->config().ram_bytes) {
        return a->config().ram_bytes < b->config().ram_bytes;
      }
      return a->name() < b->name();
    });
    for (core::Vm* victim : victims) {
      // Coldest schedulable target that admits the victim.
      core::Host* target = nullptr;
      for (auto& other : hosts_) {
        core::Host* candidate = other.get();
        if (candidate == hot || !Schedulable(candidate) ||
            !Admits(candidate, victim->config())) {
          continue;
        }
        if (target == nullptr ||
            host_state_[candidate].busy_frac < host_state_[target].busy_frac) {
          target = candidate;
        }
      }
      if (target == nullptr ||
          host_state_[hot].busy_frac - host_state_[target].busy_frac <
              config_.drs.min_gain) {
        break;  // nowhere meaningfully cooler — stop shedding this tick
      }
      if (MigrateVm(victim, hot, target, "rebalance")) {
        --budget;
      }
      break;  // at most one move per hot host per tick
    }
  }
}

void Cluster::EvacuateFailedHosts() {
  for (auto& member : hosts_) {
    if (member->failed() && !host_state_[member.get()].evacuated) {
      EvacuateHost(member.get());
    }
  }
}

void Cluster::DrsTick() {
  ++stats_.drs_ticks;
  RefreshLoadWindows();
  EvacuateFailedHosts();
  DrainTick();
  RebalanceTick();
  // Drain/rebalance migrations advance shared time, possibly past an injected
  // crash — and possibly past the caller's RunFor horizon, in which case no
  // later tick would see the casualty. Sweep again before returning.
  EvacuateFailedHosts();
}

// --- Run loop --------------------------------------------------------------

void Cluster::RunFor(SimTime duration) {
  SimTime end = clock().now() + duration;
  while (clock().now() < end) {
    if (config_.drs.interval != 0 && clock().now() >= last_tick_ + config_.drs.interval) {
      DrsTick();
      last_tick_ = clock().now();
      continue;  // migrations advance time; re-check against end
    }
    SimTime stop = end;
    if (config_.drs.interval != 0) {
      stop = std::min(stop, last_tick_ + config_.drs.interval);
    }
    domain_.RunFor(stop - clock().now());
  }
}

}  // namespace hyperion::cluster

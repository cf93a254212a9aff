// The determinism oracle shared by every test that replays a run and demands
// the same result: everything a host or cluster run can observe, recorded as
// an ordered list of named entries, and a comparison that names the first
// entry that differs.

#ifndef TESTS_OBSERVATION_H_
#define TESTS_OBSERVATION_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <any>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/core/host.h"
#include "src/migrate/migrate.h"
#include "src/virtio/virtio_net.h"
#include "tests/vm_test_util.h"

namespace hyperion {

namespace core {

// Named counters for divergence messages: without these, gtest prints the
// structs as byte dumps that include the pcpu vector's heap pointers.
inline void PrintTo(const Host::PcpuStats& s, std::ostream* os) {
  *os << "{busy_cycles=" << s.busy_cycles << " steal_cycles=" << s.steal_cycles
      << " idle_time=" << s.idle_time << "}";
}

inline void PrintTo(const Host::HostStats& s, std::ostream* os) {
  *os << "{slices=" << s.slices << " idle_picks=" << s.idle_picks
      << " cycles_executed=" << s.cycles_executed << " context_switches=" << s.context_switches
      << " rounds=" << s.rounds << " fault_pause_time=" << s.fault_pause_time << " pcpu=[";
  for (size_t i = 0; i < s.pcpu.size(); ++i) {
    *os << (i == 0 ? "" : ", ");
    PrintTo(s.pcpu[i], os);
  }
  *os << "]}";
}

}  // namespace core

class Observation {
 public:
  // Appends entry `name`; `value` compares with its own operator==.
  template <typename T>
  void Add(std::string name, T value) {
    entries_.push_back(Entry{
        std::move(name), std::move(value),
        [](const std::any& a, const std::any& b) {
          return a.type() == b.type() && *std::any_cast<T>(&a) == *std::any_cast<T>(&b);
        },
        [](const std::any& a) { return ::testing::PrintToString(*std::any_cast<T>(&a)); }});
  }

  // Appends every entry of `other`, its name prefixed with `prefix`.
  void Append(const std::string& prefix, const Observation& other) {
    for (Entry e : other.entries_) {
      e.name = prefix + e.name;
      entries_.push_back(std::move(e));
    }
  }

  // The value of the first entry called `name`, which must hold a T.
  template <typename T>
  const T& Get(const std::string& name) const {
    for (const Entry& e : entries_) {
      if (const T* value = std::any_cast<T>(&e.value); value != nullptr && e.name == name) {
        return *value;
      }
    }
    ADD_FAILURE() << "observation has no entry \"" << name << "\" of the asked type";
    static const T kMissing{};
    return kMissing;
  }

  // Every value of type T, in entry order.
  template <typename T>
  std::vector<T> All() const {
    std::vector<T> out;
    for (const Entry& e : entries_) {
      if (const T* value = std::any_cast<T>(&e.value)) {
        out.push_back(*value);
      }
    }
    return out;
  }

  // The first entry where this and `other` differ, in name or value, both
  // printed; empty when every entry matches.
  std::string FirstDifference(const Observation& other) const {
    for (size_t i = 0; i < std::min(entries_.size(), other.entries_.size()); ++i) {
      const Entry& x = entries_[i];
      const Entry& y = other.entries_[i];
      if (x.name != y.name || !x.equals(x.value, y.value)) {
        return "first differing entry \"" + x.name + "\": " + x.print(x.value) + "\nvs \"" +
               y.name + "\": " + y.print(y.value);
      }
    }
    if (entries_.size() != other.entries_.size()) {
      return "one run has " + std::to_string(entries_.size()) + " entries, the other " +
             std::to_string(other.entries_.size());
    }
    return "";
  }

 private:
  struct Entry {
    std::string name;
    std::any value;
    bool (*equals)(const std::any&, const std::any&);
    std::string (*print)(const std::any&);
  };

  std::vector<Entry> entries_;
};

// Adds a non-fatal failure, led by `what`, naming the first entry where `a`
// and `b` differ.
inline void ExpectSameObservation(const Observation& a, const Observation& b,
                                  const std::string& what = "") {
  std::string diff = a.FirstDifference(b);
  if (!diff.empty()) {
    ADD_FAILURE() << (what.empty() ? "" : what + ": ") << diff;
  }
}

namespace observation_internal {

// The guest names, then every VM on `hosts` in name order (ties in host
// order): where it runs, its state, RAM, console, every vCPU's stats and its
// virtio-net NIC's counters. Then each host's accounting, switch counters,
// clock and health.
inline void AddHosts(Observation& obs, const std::vector<core::Host*>& hosts) {
  std::vector<std::pair<core::Vm*, core::Host*>> vms;
  for (core::Host* host : hosts) {
    for (const auto& vm : host->vms()) {
      vms.emplace_back(vm.get(), host);
    }
  }
  std::stable_sort(vms.begin(), vms.end(),
                   [](const auto& a, const auto& b) { return a.first->name() < b.first->name(); });
  std::vector<std::string> guests;
  for (const auto& [vm, host] : vms) {
    guests.push_back(vm->name());
  }
  obs.Add("guests", std::move(guests));
  for (const auto& [vm, host] : vms) {
    const std::string key = "vm " + vm->name() + " ";
    obs.Add(key + "host", host->name());
    obs.Add(key + "state", vm->state());
    obs.Add(key + "ram", RamDigest(*vm));
    obs.Add(key + "console", vm->console());
    for (uint32_t i = 0; i < vm->num_vcpus(); ++i) {
      obs.Add(key + "vcpu" + std::to_string(i), vm->vcpu(i).stats);
    }
    if (const virtio::VirtioNet* nic = vm->virtio_net()) {
      obs.Add(key + "nic", nic->net_stats());
      obs.Add(key + "nic device", nic->stats());
    }
  }
  for (core::Host* host : hosts) {
    const std::string key = "host " + host->name() + " ";
    obs.Add(key + "stats", host->stats());
    obs.Add(key + "switch", host->vswitch().stats());
    obs.Add(key + "clock", host->clock().now());
    obs.Add(key + "failed", host->failed());
  }
}

}  // namespace observation_internal

// Everything a standalone host's run can observe.
inline Observation Observe(core::Host& host) {
  Observation obs;
  observation_internal::AddHosts(obs, {&host});
  return obs;
}

// Everything a cluster run can observe: every member host and its VMs, then
// the fabric, the cluster's accounting and its migration history.
inline Observation Observe(cluster::Cluster& cl) {
  Observation obs;
  std::vector<core::Host*> hosts;
  for (const auto& host : cl.hosts()) {
    hosts.push_back(host.get());
  }
  observation_internal::AddHosts(obs, hosts);
  obs.Add("fabric", cl.fabric().stats());
  obs.Add("cluster stats", cl.stats());
  obs.Add("migrations", cl.migrations());
  obs.Add("clock", cl.clock().now());
  return obs;
}

// A migration's outcome and report, then everything observable on `src` and
// on `dst`.
inline Observation ObserveMigration(const Result<core::Vm*>& moved,
                                    const migrate::MigrationReport& report, core::Host& src,
                                    core::Host& dst) {
  Observation obs;
  obs.Add("migration ok", moved.ok());
  obs.Add("migration code", moved.status().code());
  obs.Add("migration report", report);
  obs.Append("src ", Observe(src));
  obs.Append("dst ", Observe(dst));
  return obs;
}

}  // namespace hyperion

#endif  // TESTS_OBSERVATION_H_

// The inter-host interconnect: every member host's VirtualSwitch gets an
// uplink port attached here, joined by a pair of net::Links (tx toward the
// fabric, rx toward the host) so cross-host frames pay realistic
// serialization and propagation costs in both directions.
//
// Forwarding is learning-free and self-updating: a unicast frame is resolved
// at ingress by asking each member switch (in member order) whether it
// currently owns the destination port. Live migration moves the port between
// switches, so the very next frame routes to the new host with no FDB to
// invalidate. Broadcasts flood every other member; the receiving switch
// delivers locally only (split horizon in DeliverFromFabric), so a broadcast
// crosses the fabric at most once.
//
// All delivery happens on the shared TimeDomain clock with the serial-phase
// token, i.e. between rounds — an executing slice can stage frames at its
// own switch but can never reach the fabric directly.

#ifndef SRC_CLUSTER_FABRIC_H_
#define SRC_CLUSTER_FABRIC_H_

#include <memory>
#include <string>
#include <vector>

#include "src/core/host.h"
#include "src/net/network.h"
#include "src/util/phase.h"
#include "src/util/sim_clock.h"

namespace hyperion::fault {
class FaultInjector;
}  // namespace hyperion::fault

namespace hyperion::cluster {

class Fabric {
 public:
  struct Stats {
    uint64_t frames_forwarded = 0;  // unicast host-to-host crossings
    uint64_t frames_flooded = 0;    // broadcast ingresses (one per source frame)
    uint64_t frames_no_route = 0;   // unicast with no member owning the dst
    uint64_t frames_injected_dropped = 0;
    uint64_t frames_injected_duplicated = 0;
    uint64_t bytes_forwarded = 0;
    bool operator==(const Stats&) const = default;
  };

  // `port_params` describes each member's uplink cable (applied to both
  // directions independently, like a full-duplex NIC).
  Fabric(SimClock* clock, net::LinkParams port_params)
      : clock_(clock), params_(port_params) {}

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  // Attaches `host`'s switch to the fabric. The host must share the fabric's
  // clock (same TimeDomain) and must outlive frame deliveries — the Cluster
  // guarantees both: its hosts join its domain, and no pending delivery runs
  // once teardown starts (the queue dies with the domain, unrun).
  void AddHost(core::Host* host);

  // Subjects every fabric crossing to injected drop/duplicate/delay faults
  // under `site`. Pass nullptr to detach.
  void SetFaultInjector(fault::FaultInjector* injector, std::string site);

  const Stats& stats() const { return stats_; }

 private:
  struct Attachment final : public net::UplinkPort {
    Attachment(Fabric* owner, core::Host* member)
        : fabric(owner),
          host(member),
          tx(owner->clock_, owner->params_),
          rx(owner->clock_, owner->params_) {}

    void OnUplinkFrame(const DirectPhase& ph, net::Frame frame, SimTime at) override {
      fabric->Forward(ph, *this, std::move(frame), at);
    }

    Fabric* fabric;
    core::Host* host;
    net::Link tx;  // host switch -> fabric
    net::Link rx;  // fabric -> host switch
  };

  void Forward(const DirectPhase& ph, Attachment& from, net::Frame frame, SimTime at);
  void Relay(const DirectPhase& ph, Attachment& to, net::Frame frame, SimTime at);

  SimClock* clock_;
  net::LinkParams params_;
  std::vector<std::unique_ptr<Attachment>> members_;
  fault::FaultInjector* injector_ = nullptr;
  std::string fault_site_;
  Stats stats_;
};

}  // namespace hyperion::cluster

#endif  // SRC_CLUSTER_FABRIC_H_

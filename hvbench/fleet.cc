// fleet: the T5 lifecycle on a cluster::Cluster.
//
// Eight 4-pCPU hosts, ~200 guests on the default VmConfig (so the
// interpreter runs them), one in eight compute-bound and the rest idle
// tickers, plus a virtio ping/echo pair across the fabric. The batch starts
// from a skewed placement onto four hosts, then goes through churn,
// CheckpointAll, a drain and one injected host crash, with DRS on. This is
// the scenario a user of the system sees: many light lanes per round, so
// round overhead, interpreter decode, checkpoint CRC and the control plane
// carry it. The benchmark drives DrsTick() itself between RunFor chunks so
// the control plane gets its own spans.

#include <algorithm>
#include <cstdio>

#include "hvbench/common.h"
#include "src/cluster/cluster.h"
#include "src/fault/fault.h"
#include "src/guest/programs.h"
#include "src/util/crc32.h"
#include "src/util/rng.h"

namespace hvbench {
namespace {

using hv::kSimTicksPerMs;
using hv::SimTime;

constexpr int kHosts = 8;
constexpr int kSkewedHosts = 4;
constexpr int kGuests = 200;
constexpr int kChurn = 23;
constexpr int kChurnCompute = 3;
// Guests keep the default VmConfig (and so the interpreter) except for RAM:
// guest RAM is allocated up front, and at the default 4 MiB the 2 GiB of
// host frames made checkpoint and migration page scans memory-bound, which
// spread fleet timings by a quarter between runs on a shared machine. The
// programs use the first 192 KiB.
constexpr uint32_t kGuestRam = 1u << 20;
constexpr uint64_t kHostRam = 96u << 20;  // room for ~90 guests per host
constexpr SimTime kDrsInterval = 4 * kSimTicksPerMs;
constexpr SimTime kSkewPhase = 10 * kSimTicksPerMs;
constexpr SimTime kChurnPhase = 8 * kSimTicksPerMs;
constexpr SimTime kMaintenancePhase = 14 * kSimTicksPerMs;
// One tick period for every idle guest, as in T5: mixed periods spread
// their timer events and changed the number of rounds by a fifth from seed
// to seed.
constexpr uint32_t kIdlePeriod = 500'000;

struct GuestPlan {
  std::string name;
  size_t image = 0;
  int host = -1;  // -1: let the cluster place it
};

class Fleet final : public Workload {
 public:
  explicit Fleet(uint64_t seed);
  BatchResult Run(int workers, Tracer& tracer) override;

 private:
  // Runs `duration` of simulated time in DRS-interval chunks, with one
  // DrsTick at every interval boundary, as Cluster::RunFor would.
  void Drive(hv::cluster::Cluster& cl, SimTime duration, SimTime& last_tick,
             InstructionMeter& meter, Tracer& tracer);

  std::vector<GuestPlan> initial_;
  std::vector<std::string> victims_;
  std::vector<GuestPlan> arrivals_;
  int crash_host_ = 0;
  int drain_host_ = 0;
  SimTime crash_at_ = 0;
  size_t ping_image_ = 0;
  size_t echo_image_ = 0;
  int ping_host_ = 0;
  int echo_host_ = 0;
};

Fleet::Fleet(uint64_t seed) : Workload(hv::core::VmConfig{}.engine) {
  hv::Xoshiro256 rng(seed ^ 0xF1EE7ull);
  std::vector<int> hosts(kHosts);
  for (int i = 0; i < kHosts; ++i) {
    hosts[i] = i;
  }
  std::shuffle(hosts.begin(), hosts.end(), rng);
  // As in T5: hosts [0, kSkewedHosts) of the permutation take every initial
  // guest, and the first of them every compute-bound one, so DRS starts
  // from one saturated host. The ping runs on that host and the echo on the
  // third loaded one (moving it changed the round count by a quarter); the
  // crash and the drain hit two hosts that start empty.
  crash_host_ = hosts[kSkewedHosts];
  drain_host_ = hosts[kSkewedHosts + 1];
  crash_at_ = (20 + rng.NextBelow(5)) * kSimTicksPerMs;
  ping_host_ = hosts[0];
  echo_host_ = hosts[2];

  size_t busy = Assemble(hv::guest::ComputeProgram(0));
  size_t idle = Assemble(hv::guest::IdleTickProgram(kIdlePeriod));
  hv::guest::NetParams np;
  np.peer_mac = 2;
  np.payload_bytes = 128;
  np.iterations = 0;
  ping_image_ = Assemble(hv::guest::VirtioNetPingProgram(np));
  echo_image_ = Assemble(hv::guest::VirtioNetEchoProgram(np.payload_bytes));

  // T5's layout: guest i lands on loaded host i % 4 and every eighth guest
  // is compute-bound, so each loaded host holds 50 guests (a host's frame
  // pool backs at most 64 default-sized ones) and DRS, which moves the
  // lowest-named guest first, alternates compute and idle moves off the
  // hot host whatever the seed.
  std::vector<int> late_compute;  // churn candidates that DRS reaches late
  std::vector<int> cold_idle;
  for (int i = 0; i < kGuests; ++i) {
    char name[8];
    std::snprintf(name, sizeof(name), "vm%03d", i);
    bool compute = i % 8 == 0;
    initial_.push_back(GuestPlan{name, compute ? busy : idle, hosts[i % kSkewedHosts]});
    if (compute && i >= kGuests / 2) {
      late_compute.push_back(i);
    } else if (i % kSkewedHosts != 0) {
      cold_idle.push_back(i);
    }
  }
  // Churn: the seed picks kChurnCompute compute-bound guests from the
  // second half of the hot host and the idle departures from the other
  // loaded hosts, so the work left and DRS's first moves do not depend on
  // it; as many idle guests arrive unpinned.
  std::shuffle(late_compute.begin(), late_compute.end(), rng);
  std::shuffle(cold_idle.begin(), cold_idle.end(), rng);
  for (int i = 0; i < kChurn; ++i) {
    int victim = i < kChurnCompute ? late_compute[i] : cold_idle[i - kChurnCompute];
    victims_.push_back(initial_[victim].name);
  }
  for (int i = 0; i < kChurn; ++i) {
    arrivals_.push_back(
        GuestPlan{"new" + std::to_string(i), idle, -1});
  }
}

void Fleet::Drive(hv::cluster::Cluster& cl, SimTime duration, SimTime& last_tick,
                  InstructionMeter& meter, Tracer& tracer) {
  SimTime end = cl.clock().now() + duration;
  while (cl.clock().now() < end) {
    if (cl.clock().now() >= last_tick + kDrsInterval) {
      {
        Span span(tracer, "cluster", "Cluster::DrsTick");
        cl.DrsTick();
      }
      meter.Rebase();
      last_tick = cl.clock().now();
      continue;  // migrations advance time; re-check against end
    }
    SimTime stop = std::min(end, last_tick + kDrsInterval);
    {
      // DRS ticks are off in the config, so this only steps the shared
      // TimeDomain: the core's run loop.
      Span span(tracer, "core", "Cluster::RunFor");
      cl.RunFor(stop - cl.clock().now());
    }
    meter.Mark();
  }
}

BatchResult Fleet::Run(int workers, Tracer& tracer) {
  BatchResult b;
  auto t_setup = Clock::now();

  hv::fault::FaultPlan plan;
  plan.AddHostCrash("fleet:crash", crash_at_);
  hv::fault::FaultInjector injector(plan);

  hv::cluster::ClusterConfig cc;
  cc.worker_threads = workers;
  cc.cpu_overcommit = 32.0;
  cc.ram_overcommit = 4.0;
  cc.drs.interval = 0;  // ticks are driven by Drive()
  cc.drs.hot_busy = 0.45;
  cc.drs.cool_until = 0.40;
  cc.drs.min_gain = 0.05;
  hv::cluster::Cluster cl(cc);
  std::vector<hv::core::Host*> hosts;
  for (int i = 0; i < kHosts; ++i) {
    Span span(tracer, "cluster", "Cluster::AddHost");
    char name[8];
    std::snprintf(name, sizeof(name), "h%d", i);
    hosts.push_back(cl.AddHost(
        hv::core::HostConfig{.name = name, .num_pcpus = 4, .ram_bytes = kHostRam}));
  }
  hosts[crash_host_]->SetFaultInjector(&injector, "fleet:crash");

  std::vector<std::string> alive;
  auto create = [&](hv::core::VmConfig config, size_t image, hv::core::Host* pin) {
    std::string name = config.name;
    config.ram_bytes = kGuestRam;
    hv::Result<hv::core::Vm*> vm = [&] {
      Span span(tracer, "cluster", "Cluster::CreateVm");
      return cl.CreateVm(std::move(config), pin);
    }();
    b.Check(vm.ok(), "create " + name);
    if (vm.ok()) {
      Span span(tracer, "core", "Vm::LoadImage");
      b.Check((*vm)->LoadImage(images_[image]).ok(), "load image into " + name);
      alive.push_back(name);
    }
  };
  for (const GuestPlan& g : initial_) {
    create(hv::core::VmConfig{.name = g.name}, g.image, hosts[g.host]);
  }
  hv::core::VmConfig ping{.name = "ping"};
  ping.net_model = hv::core::IoModel::kParavirt;
  ping.mac = 1;
  create(std::move(ping), ping_image_, hosts[ping_host_]);
  hv::core::VmConfig echo{.name = "echo"};
  echo.net_model = hv::core::IoModel::kParavirt;
  echo.mac = 2;
  create(std::move(echo), echo_image_, hosts[echo_host_]);

  auto t_timed = Clock::now();
  b.setup_s = SecondsBetween(t_setup, t_timed);

  InstructionMeter meter(hosts);
  SimTime last_tick = cl.clock().now();
  SimTime start = cl.clock().now();
  Drive(cl, kSkewPhase, last_tick, meter, tracer);
  for (const std::string& name : victims_) {
    Span span(tracer, "cluster", "Cluster::DestroyVm");
    b.Check(cl.DestroyVm(name).ok(), "destroy " + name);
    alive.erase(std::find(alive.begin(), alive.end(), name));
  }
  for (const GuestPlan& g : arrivals_) {
    create(hv::core::VmConfig{.name = g.name}, g.image, nullptr);
  }
  meter.Rebase();
  Drive(cl, kChurnPhase, last_tick, meter, tracer);
  {
    Span span(tracer, "cluster", "Cluster::CheckpointAll");
    cl.CheckpointAll();
  }
  {
    Span span(tracer, "cluster", "Cluster::DrainHost");
    b.Check(cl.DrainHost(hosts[drain_host_]).ok(), "drain host");
  }
  Drive(cl, kMaintenancePhase, last_tick, meter, tracer);
  b.timed_s = SecondsBetween(t_timed, Clock::now());
  b.sim_ms = hv::SimTimeToMs(cl.clock().now() - start);
  b.instructions = meter.total();

  // --- Output checks: every guest is conserved, every migration reconciles
  // against its MigrationReport (the bench_cluster --gate checks).
  std::sort(alive.begin(), alive.end());
  uint32_t crc = 0;
  for (const std::string& name : alive) {
    hv::core::Vm* vm = cl.FindVm(name);
    b.Check(vm != nullptr, "guest " + name + " lost");
    if (vm == nullptr) {
      continue;
    }
    std::string line = name + "@" + cl.HostOf(name)->name() + " " +
                       std::to_string(static_cast<int>(vm->state())) + " " +
                       std::to_string(RamDigest(*vm)) + " " +
                       std::to_string(vm->TotalStats().instructions);
    crc = hv::Crc32(line.data(), line.size(), crc);
  }
  const hv::cluster::ClusterStats& st = cl.stats();
  b.Check(st.evacuations_lost == 0, "crash evacuation lost guests");
  std::vector<double> blackout;
  std::vector<double> total;
  double pages = 0;
  double rounds = 0;
  double fetches = 0;
  double retries = 0;
  for (const hv::cluster::MigrationRecord& rec : cl.migrations()) {
    b.Check(rec.ok, "migration of " + rec.vm + " failed");
    if (!rec.ok) {
      continue;
    }
    const hv::migrate::MigrationReport& r = rec.report;
    b.Check(r.pages_sent > 0 && r.total_time > 0 && r.downtime < 10 * kSimTicksPerMs &&
                r.downtime <= r.total_time,
            "migration of " + rec.vm + " does not reconcile");
    blackout.push_back(r.DowntimeMs());
    total.push_back(r.TotalMs());
    pages += static_cast<double>(r.pages_sent);
    rounds += r.rounds;
    fetches += static_cast<double>(r.demand_fetches);
    retries += static_cast<double>(r.retries);
  }

  double spread_lo = 1;
  double spread_hi = 0;
  for (hv::core::Host* h : hosts) {
    if (!h->failed() && !cl.IsDraining(h)) {
      spread_lo = std::min(spread_lo, cl.BusyFraction(h));
      spread_hi = std::max(spread_hi, cl.BusyFraction(h));
    }
  }
  Metrics& m = b.sim;
  m["blackout_ms_p50"] = Percentile(blackout, 50);
  m["blackout_ms_max"] = Percentile(blackout, 100);
  m["migration_ms_p50"] = Percentile(total, 50);
  m["busy_spread"] = spread_hi - spread_lo;
  hv::core::Vm* pinger = cl.FindVm("ping");
  uint32_t trips = pinger != nullptr ? Progress(*pinger, images_[ping_image_]) : 0;
  b.Check(trips > 0, "ping pair completed no round trip");
  m["net_rtt_us"] = trips > 0 ? b.sim_ms * 1e3 / trips : 0;
  m["migrate.pages_sent"] = pages;
  m["migrate.rounds"] = rounds;
  m["migrate.demand_fetches"] = fetches;
  m["migrate.retries"] = retries;
  m["cluster.rebalance_migrations"] = static_cast<double>(st.rebalance_migrations);
  m["cluster.drain_migrations"] = static_cast<double>(st.drain_migrations);
  m["cluster.evacuations_respawned"] = static_cast<double>(st.evacuations_respawned);
  m["cluster.evacuations_lost"] = static_cast<double>(st.evacuations_lost);
  m["cluster.fabric_frames"] = static_cast<double>(cl.fabric().stats().frames_forwarded);
  m["guest_instructions"] = static_cast<double>(b.instructions);
  AddHostCounts(hosts, m);
  AddVcpuCounts(VmsOf(hosts), m);
  AddDeviceCounts(hosts, m);

  crc = hv::Crc32(&st, sizeof(st), crc);
  SimTime end = cl.clock().now();
  crc = hv::Crc32(&end, sizeof(end), crc);
  b.digest = DigestMetrics(m, crc);
  for (size_t i = 0; i < 4 && i < alive.size(); ++i) {
    if (hv::core::Vm* vm = cl.FindVm(alive[i])) {
      SamplePages(*vm, 64, b.page_sample);
    }
  }
  // Guests go before their hosts: a guest's virtio-net RX backlog can hold
  // frames allocated from another member's frame pool, and ~Cluster tears
  // members down one at a time.
  std::vector<std::string> resident;
  for (hv::core::Host* h : hosts) {
    for (const auto& vm : h->vms()) {
      resident.push_back(vm->name());
    }
  }
  for (const std::string& name : resident) {
    (void)cl.DestroyVm(name);
  }
  return b;
}

}  // namespace

std::unique_ptr<Workload> MakeFleet(uint64_t seed) { return std::make_unique<Fleet>(seed); }

}  // namespace hvbench

// io: one host running two virtio-net pairs and two virtio-blk guests.
//
// A batched stream->sink pair shares the switch with a ping/echo pair, so
// bulk traffic meets request/response traffic. A writer and a reader each
// sit on an HVD copy-on-write overlay of one seeded base disk, so writes
// land beside reads. This is the only workload where virtio, net, devices
// and storage do most of the work.

#include <algorithm>
#include <cstring>

#include "hvbench/common.h"
#include "src/guest/programs.h"
#include "src/storage/block_store.h"
#include "src/storage/byte_store.h"
#include "src/storage/hvd.h"
#include "src/util/crc32.h"
#include "src/util/rng.h"

namespace hvbench {
namespace {

using hv::kSimTicksPerMs;
using hv::SimTime;

constexpr SimTime kWarmup = 2 * kSimTicksPerMs;
constexpr SimTime kTimed = 10 * kSimTicksPerMs;
constexpr SimTime kChunk = kSimTicksPerMs;
constexpr uint32_t kBaseSectors = 2048;  // 1 MiB base disk
constexpr uint32_t kBlkSectors = 4;      // per request
constexpr uint32_t kBlkBatch = 4;        // requests per kick
constexpr uint32_t kBlkData = 0x22000;   // VirtioBlkProgram's data buffers
constexpr uint32_t kOverlayClusterBits = 12;

enum class Role { kStream, kSink, kPing, kEcho, kWriter, kReader };

// Clients boot after the other guests have run for kServerBoot: an echo or
// sink guest whose first frame arrives before its driver posts RX buffers
// never sees that frame (the device queues it, the driver never kicks RX),
// and the ping guest does not retransmit, so the pair would stall.
bool IsClient(Role role) { return role == Role::kStream || role == Role::kPing; }
constexpr SimTime kServerBoot = kSimTicksPerMs;

struct GuestPlan {
  Role role;
  std::string name;
  size_t image = 0;
};

class Io final : public Workload {
 public:
  explicit Io(uint64_t seed);
  BatchResult Run(int workers, Tracer& tracer) override;

 private:
  std::vector<GuestPlan> guests_;  // creation order (seeded)
  std::vector<uint8_t> base_data_;
  size_t ping_image_ = 0;
};

Io::Io(uint64_t seed) : Workload(hv::cpu::EngineKind::kDbt) {
  hv::Xoshiro256 rng(seed ^ 0x10D15Cull);
  base_data_.resize(size_t{kBaseSectors} * hv::storage::kSectorSize);
  for (size_t i = 0; i < base_data_.size(); i += 8) {
    uint64_t word = rng.Next();
    std::memcpy(&base_data_[i], &word, 8);
  }

  hv::guest::NetStreamParams stream;
  stream.peer_mac = 2;
  stream.payload_bytes = 256;
  stream.batch = 32;
  hv::guest::NetParams ping;
  ping.peer_mac = 4;
  ping.payload_bytes = 128;
  ping.iterations = 0;
  hv::guest::BlkIoParams blk;
  blk.iterations = 1'000'000'000;  // runs through the whole batch
  blk.sectors = kBlkSectors;
  blk.batch = kBlkBatch;
  blk.write = true;
  guests_.push_back({Role::kStream, "stream", Assemble(hv::guest::VirtioNetStreamProgram(stream))});
  guests_.push_back({Role::kSink, "sink", Assemble(hv::guest::VirtioNetSinkProgram(stream))});
  ping_image_ = Assemble(hv::guest::VirtioNetPingProgram(ping));
  guests_.push_back({Role::kPing, "ping", ping_image_});
  guests_.push_back(
      {Role::kEcho, "echo", Assemble(hv::guest::VirtioNetEchoProgram(ping.payload_bytes))});
  guests_.push_back({Role::kWriter, "writer", Assemble(hv::guest::VirtioBlkProgram(blk))});
  blk.write = false;
  guests_.push_back({Role::kReader, "reader", Assemble(hv::guest::VirtioBlkProgram(blk))});
  std::shuffle(guests_.begin(), guests_.end(), rng);
  std::stable_partition(guests_.begin(), guests_.end(),
                        [](const GuestPlan& g) { return !IsClient(g.role); });
}

// The words VirtioBlkProgram writes: word w of its buffers is 0xB10C0000 + w.
std::vector<uint8_t> WriterPattern() {
  std::vector<uint8_t> out(size_t{kBlkBatch} * kBlkSectors * hv::storage::kSectorSize);
  for (size_t w = 0; w < out.size() / 4; ++w) {
    uint32_t word = 0xB10C0000u + static_cast<uint32_t>(w);
    std::memcpy(&out[w * 4], &word, 4);
  }
  return out;
}

BatchResult Io::Run(int workers, Tracer& tracer) {
  BatchResult b;
  auto t_setup = Clock::now();
  hv::core::Host host(hv::core::HostConfig{
      .name = "io", .num_pcpus = 4, .ram_bytes = 64u << 20, .worker_threads = workers});

  auto base = std::make_shared<hv::storage::MemBlockStore>(kBaseSectors);
  b.Check(base->WriteSectors(0, kBaseSectors, base_data_.data()).ok(), "seed base disk");
  std::vector<hv::storage::HvdImage*> overlays;
  std::map<Role, hv::core::Vm*> vms;
  bool servers_up = false;
  for (const GuestPlan& g : guests_) {
    if (IsClient(g.role) && !servers_up) {
      Span span(tracer, "core", "Host::RunFor");
      host.RunFor(kServerBoot);
      servers_up = true;
    }
    hv::core::VmConfig cfg;
    cfg.name = g.name;
    cfg.engine = engine();
    switch (g.role) {
      case Role::kStream:
      case Role::kSink:
      case Role::kPing:
      case Role::kEcho:
        cfg.net_model = hv::core::IoModel::kParavirt;
        cfg.mac = 1 + static_cast<hv::net::MacAddr>(g.role);
        break;
      case Role::kWriter:
      case Role::kReader: {
        Span span(tracer, "storage", "storage::CreateOverlay");
        auto overlay = hv::storage::CreateOverlay(
            base, "base", std::make_unique<hv::storage::MemByteStore>(), kOverlayClusterBits);
        b.Check(overlay.ok(), "overlay for " + g.name);
        if (overlay.ok()) {
          overlays.push_back(overlay->get());
          cfg.disk = std::move(*overlay);
          cfg.disk_model = hv::core::IoModel::kParavirt;
        }
        break;
      }
    }
    vms[g.role] = Boot(host, std::move(cfg), images_[g.image], b, tracer);
  }
  {
    Span span(tracer, "core", "Host::RunFor");
    host.RunFor(kWarmup);
  }
  auto t_timed = Clock::now();
  b.setup_s = SecondsBetween(t_setup, t_timed);

  InstructionMeter meter({&host});
  hv::virtio::VirtioNet* sink_net = vms[Role::kSink] ? vms[Role::kSink]->virtio_net() : nullptr;
  uint64_t frames0 = sink_net ? sink_net->net_stats().rx_frames : 0;
  uint64_t sectors0 = 0;
  for (Role r : {Role::kWriter, Role::kReader}) {
    if (vms[r] != nullptr) {
      sectors0 += vms[r]->virtio_blk()->blk_stats().sectors;
    }
  }
  uint32_t trips0 = vms[Role::kPing] ? Progress(*vms[Role::kPing], images_[ping_image_]) : 0;
  SimTime start = host.clock().now();
  for (SimTime done = 0; done < kTimed; done += kChunk) {
    Span span(tracer, "core", "Host::RunFor");
    host.RunFor(kChunk);
  }
  meter.Mark();
  b.timed_s = SecondsBetween(t_timed, Clock::now());
  b.sim_ms = hv::SimTimeToMs(host.clock().now() - start);
  b.instructions = meter.total();

  for (const auto& [role, vm] : vms) {
    b.Check(vm != nullptr && vm->state() == hv::core::VmState::kRunning,
            "io guest stopped or missing");
  }
  if (b.failures.size() > 0) {
    return b;
  }
  // --- Output checks: the sink saw no chain errors, the reader read back
  // the seeded base, the writer's data landed in its own overlay only.
  double sim_s = b.sim_ms / 1e3;
  uint64_t frames = sink_net->net_stats().rx_frames - frames0;
  b.Check(frames > 0 && sink_net->net_stats().rx_chain_errors == 0, "sink chain errors");
  uint32_t trips = Progress(*vms[Role::kPing], images_[ping_image_]) - trips0;
  b.Check(trips > 0, "ping pair completed no round trip");
  uint64_t sectors = 0;
  for (Role r : {Role::kWriter, Role::kReader}) {
    const auto& st = vms[r]->virtio_blk()->blk_stats();
    sectors += st.sectors;
    b.Check(st.requests > 0 && st.errors == 0, "block requests failed");
  }
  sectors -= sectors0;
  const size_t span_bytes = size_t{kBlkBatch} * kBlkSectors * hv::storage::kSectorSize;
  std::vector<uint8_t> buf(span_bytes);
  b.Check(vms[Role::kReader]->memory().Read(kBlkData, buf.data(), buf.size()).ok() &&
              std::memcmp(buf.data(), base_data_.data(), span_bytes) == 0,
          "reader did not read back the seeded base");
  hv::storage::HvdImage* writer_disk =
      static_cast<hv::storage::HvdImage*>(vms[Role::kWriter]->config().disk.get());
  b.Check(writer_disk->ReadSectors(0, kBlkBatch * kBlkSectors, buf.data()).ok() &&
              buf == WriterPattern(),
          "writer overlay does not hold the written data");
  std::vector<uint8_t> base_now(base_data_.size());
  b.Check(base->ReadSectors(0, kBaseSectors, base_now.data()).ok() && base_now == base_data_,
          "base disk changed under its overlays");

  Metrics& m = b.sim;
  m["net_frames_per_sim_s"] = static_cast<double>(frames) / sim_s;
  m["net_rtt_us"] = trips > 0 ? b.sim_ms * 1e3 / trips : 0;
  m["blk_mib_per_sim_s"] =
      static_cast<double>(sectors * hv::storage::kSectorSize) / (1 << 20) / sim_s;
  double cow = 0;
  for (hv::storage::HvdImage* o : overlays) {
    cow += static_cast<double>(o->allocated_clusters());
  }
  m["storage.cow_clusters"] = cow;
  m["guest_instructions"] = static_cast<double>(b.instructions);
  AddHostCounts({&host}, m);
  AddVcpuCounts(VmsOf({&host}), m);
  AddDeviceCounts({&host}, m);
  uint32_t crc = 0;
  for (const auto& [role, vm] : vms) {
    uint32_t digest = RamDigest(*vm);
    crc = hv::Crc32(&digest, sizeof(digest), crc);
  }
  b.digest = DigestMetrics(m, crc);
  SamplePages(*vms[Role::kReader], 64, b.page_sample);
  return b;
}

}  // namespace

std::unique_ptr<Workload> MakeIo(uint64_t seed) { return std::make_unique<Io>(seed); }

}  // namespace hvbench

#include "hvbench/common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>

#include "src/guest/programs.h"
#include "src/util/crc32.h"

namespace hvbench {

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMib() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0;
      status >> kib;
      return kib / 1024.0;
    }
    status.ignore(1 << 16, '\n');
  }
  return 0;
}

// --- Tracer -----------------------------------------------------------------

int Tracer::Begin(const char* layer, std::string name) {
  SpanRecord rec;
  rec.layer = layer;
  rec.name = std::move(name);
  rec.parent = current_;
  rec.cpu_s = ProcessCpuSeconds();
  rec.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
  spans_.push_back(std::move(rec));
  current_ = static_cast<int>(spans_.size()) - 1;
  return current_;
}

void Tracer::End(int id) {
  SpanRecord& rec = spans_[static_cast<size_t>(id)];
  rec.end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
  rec.cpu_s = ProcessCpuSeconds() - rec.cpu_s;
  current_ = rec.parent;
}

std::vector<double> Tracer::DurationsMs(const std::string& name) const {
  std::vector<double> out;
  for (const SpanRecord& s : spans_) {
    if (s.name == name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-6);
    }
  }
  return out;
}

Metrics Tracer::SelfMsByLayer() const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const SpanRecord& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  Metrics out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    out[s.layer] += static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) * 1e-6;
  }
  return out;
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,\"cpu_ms\":%.3f}}\n",
                 i == 0 ? "" : ",", s.name.c_str(), s.layer.c_str(),
                 static_cast<double>(s.start_ns) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i, s.parent, s.cpu_s * 1e3);
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

// --- Workload ----------------------------------------------------------------

size_t Workload::Assemble(const std::string& source) {
  auto t0 = Clock::now();
  auto image = hv::guest::Build(source);
  build_ms_ += SecondsBetween(t0, Clock::now()) * 1e3;
  if (!image.ok()) {
    std::fprintf(stderr, "guest program failed to assemble: %s\n",
                 image.status().ToString().c_str());
    std::exit(2);
  }
  images_.push_back(std::move(*image));
  return images_.size() - 1;
}

// --- Simulator-state helpers --------------------------------------------------

uint32_t RamDigest(const hv::core::Vm& vm, const std::function<bool(uint32_t)>& skip) {
  const hv::mem::GuestMemory& mem = vm.memory();
  uint32_t crc = 0;
  for (uint32_t gpn = 0; gpn < mem.num_pages(); ++gpn) {
    if (skip && skip(gpn)) {
      continue;
    }
    // 0 absent, 1 present and all zero, 2 present with data.
    uint8_t kind = !mem.IsPresent(gpn) ? 0 : mem.PageIsZero(gpn) ? 1 : 2;
    crc = hv::Crc32(&kind, 1, crc);
    if (kind == 2) {
      crc = hv::Crc32(mem.PageData(gpn), hv::isa::kPageSize, crc);
    }
  }
  return crc;
}

uint32_t Progress(const hv::core::Vm& vm, const hv::assembler::Image& image) {
  auto addr = hv::guest::ProgressAddress(image);
  if (!addr.ok()) {
    return 0;
  }
  return vm.memory().ReadU32(*addr).value_or(0);
}

hv::core::Vm* Boot(hv::core::Host& host, hv::core::VmConfig config,
                   const hv::assembler::Image& image, BatchResult& batch, Tracer& tracer) {
  std::string name = config.name;
  hv::Result<hv::core::Vm*> vm = [&] {
    Span span(tracer, "core", "Host::CreateVm");
    return host.CreateVm(std::move(config));
  }();
  batch.Check(vm.ok(), "create " + name);
  if (!vm.ok()) {
    return nullptr;
  }
  Span span(tracer, "core", "Vm::LoadImage");
  bool loaded = (*vm)->LoadImage(image).ok();
  batch.Check(loaded, "load image into " + name);
  return loaded ? *vm : nullptr;
}

void SamplePages(const hv::core::Vm& vm, size_t max_pages, std::vector<uint8_t>& out) {
  const hv::mem::GuestMemory& mem = vm.memory();
  size_t taken = 0;
  for (uint32_t gpn = 0; gpn < mem.num_pages() && taken < max_pages; ++gpn) {
    if (mem.IsPresent(gpn) && !mem.PageIsZero(gpn)) {
      const uint8_t* page = mem.PageData(gpn);
      out.insert(out.end(), page, page + hv::isa::kPageSize);
      ++taken;
    }
  }
}

void InstructionMeter::Mark() {
  for (hv::core::Host* host : hosts_) {
    for (const auto& vm : host->vms()) {
      auto it = base_.find(vm.get());
      total_ += vm->TotalStats().instructions - (it != base_.end() ? it->second : 0);
    }
  }
  Rebase();
}

void InstructionMeter::Rebase() {
  base_.clear();
  for (hv::core::Host* host : hosts_) {
    for (const auto& vm : host->vms()) {
      base_[vm.get()] = vm->TotalStats().instructions;
    }
  }
}

void AddHostCounts(const std::vector<hv::core::Host*>& hosts, Metrics& sim) {
  double rounds = 0;
  double slices = 0;
  double switches = 0;
  double busy = 0;
  double steal = 0;
  double idle = 0;
  double pcpu_time = 0;
  double frames = 0;
  for (hv::core::Host* host : hosts) {
    const hv::core::Host::HostStats& st = host->stats();
    rounds += static_cast<double>(st.rounds);
    slices += static_cast<double>(st.slices);
    switches += static_cast<double>(st.context_switches);
    for (const auto& p : st.pcpu) {
      busy += static_cast<double>(p.busy_cycles);
      steal += static_cast<double>(p.steal_cycles);
      idle += static_cast<double>(p.idle_time);
    }
    pcpu_time += static_cast<double>(host->config().num_pcpus) *
                 static_cast<double>(host->clock().now());
    frames += static_cast<double>(host->pool().used_frames());
  }
  sim["core.rounds"] = rounds;
  sim["core.slices"] = slices;
  sim["sched.context_switches"] = switches;
  sim["sched.steal_frac"] = busy + steal > 0 ? steal / (busy + steal) : 0;
  sim["sched.idle_frac"] = pcpu_time > 0 ? idle / pcpu_time : 0;
  sim["mem.frames_in_use"] = frames;
}

void AddVcpuCounts(const std::vector<const hv::core::Vm*>& vms, Metrics& sim) {
  hv::cpu::VcpuStats v;
  // Per vCPU: Vm::TotalStats() leaves the tier-2 and persist counters out.
  for (const hv::core::Vm* vm : vms) {
    for (uint32_t i = 0; i < vm->num_vcpus(); ++i) {
      const hv::cpu::VcpuStats& s = vm->vcpu(i).stats;
      v.instructions += s.instructions;
      v.blocks_translated += s.blocks_translated;
      v.tier2_promotions += s.tier2_promotions;
      v.deopts += s.deopts;
      v.persist_hits += s.persist_hits;
      v.persist_misses += s.persist_misses;
      v.mem_fastpath_hits += s.mem_fastpath_hits;
      v.mem_fastpath_misses += s.mem_fastpath_misses;
      v.mmio_exits += s.mmio_exits;
      v.hypercalls += s.hypercalls;
      v.pt_write_exits += s.pt_write_exits;
      v.cow_breaks += s.cow_breaks;
      v.priv_emulations += s.priv_emulations;
    }
  }
  auto frac = [](uint64_t num, uint64_t den) {
    return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
  };
  sim["cpu.blocks_translated"] = static_cast<double>(v.blocks_translated);
  sim["cpu.tier2_promotions"] = static_cast<double>(v.tier2_promotions);
  sim["cpu.deopts"] = static_cast<double>(v.deopts);
  sim["cpu.persist_hit_frac"] = frac(v.persist_hits, v.persist_hits + v.persist_misses);
  sim["cpu.fastpath_hit_frac"] =
      frac(v.mem_fastpath_hits, v.mem_fastpath_hits + v.mem_fastpath_misses);
  sim["cpu.exits_per_minstr"] = frac(v.TotalExits() * 1'000'000, v.instructions);
}

void AddDeviceCounts(const std::vector<hv::core::Host*>& hosts, Metrics& sim) {
  uint64_t interrupts = 0;
  uint64_t rx_frames = 0;
  uint64_t kicks_suppressed = 0;
  uint64_t dropped = 0;
  uint64_t backlog_hwm = 0;
  uint64_t bursts = 0;
  uint64_t blk_requests = 0;
  for (hv::core::Host* host : hosts) {
    bursts += host->vswitch().stats().bursts_delivered;
    dropped += host->vswitch().stats().frames_dropped;
    for (const auto& vm : host->vms()) {
      if (const hv::virtio::VirtioNet* net = vm->virtio_net()) {
        interrupts += net->stats().interrupts;
        rx_frames += net->net_stats().rx_frames;
        kicks_suppressed += net->net_stats().kicks_suppressed;
        dropped += net->net_stats().rx_dropped;
        backlog_hwm = std::max(backlog_hwm, net->net_stats().rx_backlog_hwm);
      }
      if (const hv::virtio::VirtioBlk* blk = vm->virtio_blk()) {
        blk_requests += blk->blk_stats().requests;
      }
    }
  }
  sim["virtio.intr_per_1k_frames"] =
      rx_frames > 0 ? 1000.0 * static_cast<double>(interrupts) / static_cast<double>(rx_frames)
                    : 0;
  sim["virtio.kicks_suppressed"] = static_cast<double>(kicks_suppressed);
  sim["net.bursts"] = static_cast<double>(bursts);
  sim["net.frames_dropped"] = static_cast<double>(dropped);
  sim["net.rx_backlog_hwm"] = static_cast<double>(backlog_hwm);
  sim["storage.blk_requests"] = static_cast<double>(blk_requests);
}

std::vector<const hv::core::Vm*> VmsOf(const std::vector<hv::core::Host*>& hosts) {
  std::vector<const hv::core::Vm*> out;
  for (hv::core::Host* host : hosts) {
    for (const auto& vm : host->vms()) {
      out.push_back(vm.get());
    }
  }
  return out;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(values.size())));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

uint32_t DigestMetrics(const Metrics& m, uint32_t seed) {
  uint32_t crc = seed;
  for (const auto& [name, value] : m) {
    crc = hv::Crc32(name.data(), name.size(), crc);
    crc = hv::Crc32(&value, sizeof(value), crc);
  }
  return crc;
}

}  // namespace hvbench

// Shared pieces of the Hyperion benchmark: wall clocks, the span tracer,
// the per-batch result every workload returns, and helpers that read
// simulator state (RAM digests, counters, percentiles).
//
// Everything here runs on the benchmark's main thread, between the
// simulator's run-loop calls; nothing is touched from a worker lane.

#ifndef HVBENCH_COMMON_H_
#define HVBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/asm/assembler.h"
#include "src/core/host.h"
#include "src/core/vm.h"

namespace hvbench {

namespace hv = hyperion;

using Clock = std::chrono::steady_clock;
using Metrics = std::map<std::string, double>;

double SecondsBetween(Clock::time_point a, Clock::time_point b);
// CPU seconds consumed by every thread of this process so far.
double ProcessCpuSeconds();
// Peak resident set of this process in MiB (VmHWM).
double PeakRssMib();

// ---------------------------------------------------------------------------
// Tracing: spans around the benchmark's calls into the simulator's modules.
// Kept in memory and written as Chrome trace-event JSON at the end. A
// disabled tracer records nothing; the Span guard then costs one branch.
// ---------------------------------------------------------------------------

struct SpanRecord {
  std::string layer;  // module the call enters ("core", "snapshot", ...)
  std::string name;   // the public function, e.g. "snapshot::CloneVm"
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;    // index of the enclosing span, -1 at top level
  double cpu_s = 0;   // process CPU seconds inside the span
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  int Begin(const char* layer, std::string name);
  void End(int id);

  const std::vector<SpanRecord>& spans() const { return spans_; }
  // Durations in ms of every finished span called `name`.
  std::vector<double> DurationsMs(const std::string& name) const;
  // Span duration minus the part covered by its child spans, summed per
  // layer, in ms.
  Metrics SelfMsByLayer() const;
  bool WriteChromeJson(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<SpanRecord> spans_;
  int current_ = -1;
};

// RAII span; a no-op when the tracer is disabled.
class Span {
 public:
  Span(Tracer& tracer, const char* layer, std::string name)
      : tracer_(tracer),
        id_(tracer.enabled() ? tracer.Begin(layer, std::move(name)) : -1) {}
  ~Span() {
    if (id_ >= 0) {
      tracer_.End(id_);
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

// ---------------------------------------------------------------------------
// One closed batch of a workload.
// ---------------------------------------------------------------------------

struct BatchResult {
  double setup_s = 0;           // first host construction -> timed phase start
  double timed_s = 0;           // wall time of the timed phase
  double sim_ms = 0;            // simulated ms advanced in the timed phase
  uint64_t instructions = 0;    // guest instructions retired in the timed phase
  Metrics sim;                  // simulated metrics: exact for a fixed seed
  std::vector<double> clone_ready_ms;  // host-time samples (lifecycle)
  uint32_t digest = 0;          // final simulator state, crushed to one word
  uint64_t attempted = 0;       // operations + output checks
  std::vector<std::string> failures;
  // Bytes of guest pages left by the batch, for the CRC layer probe.
  std::vector<uint8_t> page_sample;

  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      failures.push_back(what);
    }
  }
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Runs one closed batch with `workers` worker threads (0 = host thread
  // only). Every batch of one Workload object replays the same inputs.
  virtual BatchResult Run(int workers, Tracer& tracer) = 0;
  // The distinct guest images the generator assembled (for the isa probe).
  const std::vector<hv::assembler::Image>& images() const { return images_; }
  double build_ms() const { return build_ms_; }
  // The engine the workload's guests run on.
  hv::cpu::EngineKind engine() const { return engine_; }

 protected:
  explicit Workload(hv::cpu::EngineKind engine) : engine_(engine) {}
  // Assembles `source` once and returns its index in images().
  size_t Assemble(const std::string& source);
  std::vector<hv::assembler::Image> images_;
  double build_ms_ = 0;

 private:
  hv::cpu::EngineKind engine_;
};

std::unique_ptr<Workload> MakeFleet(uint64_t seed);
std::unique_ptr<Workload> MakeCompute(uint64_t seed);
std::unique_ptr<Workload> MakeLifecycle(uint64_t seed);
std::unique_ptr<Workload> MakeIo(uint64_t seed);

// Layer probes that call cpu, isa and util directly, outside any Host.
Metrics RunProbes(const Workload& workload, const BatchResult& batch);

// ---------------------------------------------------------------------------
// Helpers over simulator state.
// ---------------------------------------------------------------------------

// CRC of the presence map and every present page that is not all zero.
// Pages for which `skip(gpn)` is true are left out.
uint32_t RamDigest(const hv::core::Vm& vm,
                   const std::function<bool(uint32_t)>& skip = nullptr);
// Reads the guest's "progress" word; 0 when the image has none.
uint32_t Progress(const hv::core::Vm& vm, const hv::assembler::Image& image);
// Creates a VM on `host` and loads `image`; records any failure in `batch`.
hv::core::Vm* Boot(hv::core::Host& host, hv::core::VmConfig config,
                   const hv::assembler::Image& image, BatchResult& batch, Tracer& tracer);
// Appends the bytes of up to `max_pages` present, non-zero pages of `vm`.
void SamplePages(const hv::core::Vm& vm, size_t max_pages, std::vector<uint8_t>& out);

// Counts guest instructions retired by the VMs of a set of hosts. Call
// Mark() after each call that runs guests, and Rebase() after each call
// that destroys a VM and may then create one at its address, so no VM is
// matched against another one's baseline. Instructions run inside a call
// that is followed by Rebase() (a DRS tick) are not counted.
class InstructionMeter {
 public:
  explicit InstructionMeter(std::vector<hv::core::Host*> hosts) : hosts_(std::move(hosts)) {
    Rebase();
  }
  // Adds what every VM retired since the baseline, then rebases.
  void Mark();
  // Takes every VM's current count as its baseline.
  void Rebase();
  uint64_t total() const { return total_; }

 private:
  std::vector<hv::core::Host*> hosts_;
  std::map<const hv::core::Vm*, uint64_t> base_;
  uint64_t total_ = 0;
};

// Sets the per-layer counts of `hosts` (core rounds, scheduler, frames) in
// `sim`. They are committed at round barriers, so they are exact. Hosts
// count from their construction.
void AddHostCounts(const std::vector<hv::core::Host*>& hosts, Metrics& sim);
// Sets the vCPU engine counts summed over `vms` in `sim`.
void AddVcpuCounts(const std::vector<const hv::core::Vm*>& vms, Metrics& sim);
// Sets the virtio, virtual-switch and block counts of `hosts` and the VMs
// on them in `sim`.
void AddDeviceCounts(const std::vector<hv::core::Host*>& hosts, Metrics& sim);
// Every VM currently on `hosts`.
std::vector<const hv::core::Vm*> VmsOf(const std::vector<hv::core::Host*>& hosts);

// Nearest-rank percentile, p in [0, 100]; 0 for an empty sample.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);

// Folds the metrics map into a digest so batches can be compared exactly.
uint32_t DigestMetrics(const Metrics& m, uint32_t seed);

}  // namespace hvbench

#endif  // HVBENCH_COMMON_H_

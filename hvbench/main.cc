// hvbench: runs one seeded workload of the Hyperion benchmark and prints one
// JSON record on stdout. hvbench/run.py builds this binary, runs it and
// turns the record into the benchmark's report.
//
//   hvbench --workload fleet|compute|lifecycle|io --seed N --seconds S
//           --trace 0|1 [--trace-out PATH]
//
// A run repeats closed batches of the workload, every batch on the same
// generated inputs, until the timed phases add up to S seconds. Host-time
// metrics are medians over the batches; simulated metrics must be identical
// in every batch. After the timed batches one more batch runs with 0
// worker threads: its simulated metrics and state digest must equal those
// of the first batch (the determinism mode), or the run is not correct.
// With --trace 1, batches alternate between untraced and traced, the
// traced ones record spans around every call into the simulator, and the
// layer probes run at the end.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cmath>
#include <cstring>
#include <string>
#include <thread>

#include "hvbench/common.h"

#ifndef HVBENCH_BUILD_TYPE
#define HVBENCH_BUILD_TYPE "unknown"
#endif

namespace hvbench {
namespace {

constexpr int kMinBatches = 3;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "hvbench: %s\nusage: hvbench --workload fleet|compute|lifecycle|io --seed N "
               "--seconds S --trace 0|1 [--trace-out PATH]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage("missing value");
    }
    std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      a.trace = value == "1";
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else {
      Usage("unknown flag");
    }
  }
  if (a.workload.empty() || a.seconds <= 0) {
    Usage("--workload and a positive --seconds are required");
  }
  return a;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "fleet") return MakeFleet(seed);
  if (name == "compute") return MakeCompute(seed);
  if (name == "lifecycle") return MakeLifecycle(seed);
  if (name == "io") return MakeIo(seed);
  Usage("unknown workload");
}

std::string Escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += (c >= 0x20) ? c : ' ';
  }
  return out;
}

void PrintMetrics(const Metrics& m) {
  std::printf("{");
  const char* sep = "";
  for (const auto& [name, value] : m) {
    // JSON has no inf or nan; run.py reports a null metric as missing.
    if (std::isfinite(value)) {
      std::printf("%s\"%s\":%.17g", sep, name.c_str(), value);
    } else {
      std::printf("%s\"%s\":null", sep, name.c_str());
    }
    sep = ",";
  }
  std::printf("}");
}

double SimMsPerS(const BatchResult& b) { return b.timed_s > 0 ? b.sim_ms / b.timed_s : 0; }
double GuestMips(const BatchResult& b) {
  return b.timed_s > 0 ? static_cast<double>(b.instructions) / (b.timed_s * 1e6) : 0;
}

template <typename F>
double MedianOf(const std::vector<const BatchResult*>& batches, F&& f) {
  std::vector<double> v;
  for (const BatchResult* b : batches) {
    v.push_back(f(*b));
  }
  return Median(v);
}

int Main(int argc, char** argv) {
  Args args = ParseArgs(argc, argv);
  // The host thread runs a lane of its own next to the pool's workers, so
  // min(nproc, 4) lanes take one worker fewer. One more thread than cores
  // stalls the round barrier whenever a lane is descheduled, which made
  // fleet timings spread by a third from run to run on a 4-core machine.
  const int lanes = static_cast<int>(std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
  const int workers = std::max(1, lanes - 1);

  std::unique_ptr<Workload> workload = MakeWorkload(args.workload, args.seed);
  Tracer tracer(false);

  std::vector<BatchResult> batches;
  std::vector<bool> traced;
  double timed_s = 0;
  size_t untraced_n = 0;
  size_t traced_n = 0;
  auto run_start = Clock::now();
  // Stops early only if batches are far slower than planned, so a run
  // still ends well inside its time limit.
  while ((timed_s < args.seconds || untraced_n < kMinBatches ||
          (args.trace && traced_n < kMinBatches)) &&
         SecondsBetween(run_start, Clock::now()) < 4 * args.seconds + 20) {
    bool trace_this = args.trace && batches.size() % 2 == 1;
    tracer.set_enabled(trace_this);
    batches.push_back(workload->Run(workers, tracer));
    traced.push_back(trace_this);
    const BatchResult& b = batches.back();
    std::fprintf(stderr, "batch %zu%s: setup %.3f s, timed %.3f s, %.1f sim-ms, %.1f guest-MIPS\n",
                 batches.size() - 1, trace_this ? " (traced)" : "", b.setup_s, b.timed_s,
                 b.sim_ms, GuestMips(b));
    timed_s += batches.back().timed_s;
    (trace_this ? traced_n : untraced_n) += 1;
  }
  tracer.set_enabled(false);
  double peak_rss = PeakRssMib();

  // Determinism mode: the same inputs on the host thread alone.
  Tracer off(false);
  BatchResult serial = workload->Run(0, off);

  const BatchResult& first = batches.front();
  bool consistent = true;
  uint64_t attempted = serial.attempted;
  std::vector<std::string> failures = serial.failures;
  std::vector<const BatchResult*> plain;
  std::vector<const BatchResult*> with_trace;
  for (size_t i = 0; i < batches.size(); ++i) {
    const BatchResult& b = batches[i];
    consistent = consistent && b.sim == first.sim && b.digest == first.digest;
    attempted += b.attempted;
    failures.insert(failures.end(), b.failures.begin(), b.failures.end());
    (traced[i] ? with_trace : plain).push_back(&b);
  }
  bool deterministic = serial.sim == first.sim && serial.digest == first.digest;
  // Names what differs, for the batches that do not match the first one.
  auto report_diff = [&](const BatchResult& b, const std::string& label) {
    for (const auto& [name, value] : b.sim) {
      auto it = first.sim.find(name);
      if (it == first.sim.end() || it->second != value) {
        std::fprintf(stderr, "%s: %s = %.17g, first batch %.17g\n", label.c_str(), name.c_str(),
                     value, it == first.sim.end() ? 0.0 : it->second);
      }
    }
    if (b.digest != first.digest) {
      std::fprintf(stderr, "%s: state digest %u, first batch %u\n", label.c_str(), b.digest,
                   first.digest);
    }
  };
  for (size_t i = 1; i < batches.size(); ++i) {
    report_diff(batches[i], "batch " + std::to_string(i));
  }
  report_diff(serial, "0-worker batch");
  // Each of the two comparisons is one more output check.
  attempted += 2;
  if (!consistent) {
    failures.push_back("batches of one run disagree on simulated results");
  }
  if (!deterministic) {
    failures.push_back("0-worker batch differs from the " + std::to_string(workers) +
                       "-worker batches");
  }

  Metrics m = first.sim;
  std::vector<double> ready;
  for (const BatchResult* b : plain) {
    ready.insert(ready.end(), b->clone_ready_ms.begin(), b->clone_ready_ms.end());
  }
  m["setup_s"] = MedianOf(plain, [](const BatchResult& b) { return b.setup_s; });
  m["sim_ms_per_s"] = MedianOf(plain, SimMsPerS);
  m["guest_mips"] = MedianOf(plain, GuestMips);
  m["peak_rss_mib"] = peak_rss;
  m["failed_frac"] = static_cast<double>(failures.size()) / static_cast<double>(attempted);
  if (!ready.empty()) {
    m["clone_ready_ms_p50"] = Percentile(ready, 50);
    m["clone_ready_ms_p95"] = Percentile(ready, 95);
    m["clone_ready_samples"] = static_cast<double>(ready.size());
  }

  if (args.trace) {
    m["asm.build_ms"] = workload->build_ms();
    auto durations = [&](std::initializer_list<const char*> spans) {
      std::vector<double> out;
      for (const char* span : spans) {
        std::vector<double> d = tracer.DurationsMs(span);
        out.insert(out.end(), d.begin(), d.end());
      }
      return out;
    };
    m["core.create_vm_us_p50"] =
        Percentile(durations({"Host::CreateVm", "Cluster::CreateVm"}), 50) * 1e3;
    double loop_wall_ms = 0;
    double loop_cpu_s = 0;
    for (const SpanRecord& s : tracer.spans()) {
      if (s.layer == "core" && s.name.find("Run") != std::string::npos) {
        loop_wall_ms += static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
        loop_cpu_s += s.cpu_s;
      }
    }
    double rounds = first.sim.at("core.rounds") * static_cast<double>(with_trace.size());
    m["core.wall_per_round_us"] = rounds > 0 ? loop_wall_ms * 1e3 / rounds : 0;
    m["core.cpu_per_wall"] = loop_wall_ms > 0 ? loop_cpu_s / (loop_wall_ms * 1e-3) : 0;
    for (const auto& [layer, self_ms] : tracer.SelfMsByLayer()) {
      m[layer + ".self_ms"] = self_ms / static_cast<double>(with_trace.size());
    }
    // Layers only some workloads call: reported where their spans exist.
    const std::pair<const char*, std::vector<double>> kSpanMedians[] = {
        {"snapshot.save_ms_p50", durations({"snapshot::SaveVm"})},
        {"snapshot.clone_ms_p50", durations({"snapshot::CloneVm"})},
        {"snapshot.fork_ms_p50", durations({"snapshot::ForkVm"})},
        {"cluster.checkpoint_all_ms", durations({"Cluster::CheckpointAll"})},
        {"cluster.drs_tick_ms", durations({"Cluster::DrsTick"})},
        {"ksm.scan_ms", durations({"KsmDaemon::ScanOnce"})},
        {"migrate.wall_ms_p50",
         durations({"migrate::PreCopyMigrate", "migrate::PostCopyMigrate"})},
    };
    for (const auto& [metric, samples] : kSpanMedians) {
      if (!samples.empty()) {
        m[metric] = Percentile(samples, 50);
      }
    }
    double untraced_rate = MedianOf(plain, SimMsPerS);
    double traced_rate = MedianOf(with_trace, SimMsPerS);
    m["trace.overhead_frac"] = untraced_rate > 0 ? 1.0 - traced_rate / untraced_rate : 0;

    Metrics probes = RunProbes(*workload, first);
    m.insert(probes.begin(), probes.end());
    double engine_mips = workload->engine() == hv::cpu::EngineKind::kInterpreter
                             ? probes["cpu.interp_mips"]
                             : probes["cpu.tier2_mips"];
    m["cpu.integration_ratio"] =
        engine_mips > 0 ? m["guest_mips"] / (engine_mips * lanes) : 0;
    if (!args.trace_out.empty() && !tracer.WriteChromeJson(args.trace_out)) {
      std::fprintf(stderr, "hvbench: cannot write %s\n", args.trace_out.c_str());
      return 1;
    }
  }

  std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"trace\":%d,\"workers\":%d,\"lanes\":%d,"
              "\"batches\":%zu,\"traced_batches\":%zu,\"attempted\":%llu,\"failed\":%zu,"
              "\"consistent\":%s,\"deterministic\":%s,\"digest\":%u,",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.trace ? 1 : 0, workers, lanes, plain.size(), with_trace.size(),
              static_cast<unsigned long long>(attempted), failures.size(),
              consistent ? "true" : "false", deterministic ? "true" : "false", first.digest);
#ifdef __clang__
  const char* compiler = "clang " __clang_version__;
#else
  const char* compiler = "gcc " __VERSION__;
#endif
  std::printf("\"machine\":{\"nproc\":%u,\"compiler\":\"%s\",\"build_type\":\"%s\"},",
              std::thread::hardware_concurrency(), Escape(compiler).c_str(),
              HVBENCH_BUILD_TYPE);
  std::printf("\"failures\":[");
  for (size_t i = 0; i < failures.size() && i < 20; ++i) {
    std::printf("%s\"%s\"", i ? "," : "", Escape(failures[i]).c_str());
  }
  std::printf("],\"metrics\":");
  PrintMetrics(m);
  std::printf("}\n");
  return 0;
}

}  // namespace
}  // namespace hvbench

int main(int argc, char** argv) { return hvbench::Main(argc, argv); }

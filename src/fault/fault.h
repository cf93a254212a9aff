// Deterministic fault injection (DESIGN.md §7).
//
// A FaultPlan is a declarative schedule of fault events keyed to simulated
// time and/or per-site operation counts. A FaultInjector interprets the plan
// at runtime: instrumented sites (links, switches, stores, hosts) ask it
// "does a fault hit this operation?" and apply the answer locally. All
// probabilistic decisions draw from per-event xoshiro streams derived from
// the plan seed, so a given (plan, workload) pair replays bit-identically —
// faults are reproducible inputs, not flaky noise.
//
// Sites are free-form strings chosen by the integration point (e.g.
// "migrate:link", "vm1:disk"). An event with an empty site matches every
// site; an event with a site string matches only queries from that site.

#ifndef SRC_FAULT_FAULT_H_
#define SRC_FAULT_FAULT_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/util/rng.h"
#include "src/util/sim_clock.h"
#include "src/util/status.h"
#include "src/util/thread_annotations.h"

namespace hyperion::fault {

// "Forever" for event windows.
inline constexpr SimTime kNever = ~SimTime{0};
inline constexpr uint64_t kAnyOp = ~uint64_t{0};

// What goes wrong. Frame-level kinds apply to switch frame delivery;
// kFrameDrop/kLatencySpike/kLinkDown also apply to bulk transfers
// (migration chunks, demand-fetch pages) over a Link.
enum class FaultKind : uint8_t {
  kFrameDrop = 0,   // frame/transfer vanishes in flight
  kFrameDuplicate,  // frame delivered param+1 times (default 2)
  kFrameReorder,    // frame delayed by param cycles, overtaken by later traffic
  kLatencySpike,    // param extra cycles of one-off latency
  kLinkDown,        // link dead for the whole [from, until) window
  kReadError,       // block read fails with kUnavailable
  kWriteError,      // block write fails with kUnavailable
  kTornWrite,       // byte-store write applies a sector-aligned prefix, then
                    // the device dies (simulated power loss)
  kHostPause,       // host runs no vCPUs during [from, until) (SMI/stall)
  kHostCrash,       // every VM on the host crashes at `from` (one-shot)
};

// Operation classes whose per-site counters drive op-keyed events.
enum class OpClass : uint8_t {
  kFrame = 0,   // one switch frame delivery attempt
  kTransfer,    // one bulk link transfer (migration chunk, page fetch)
  kBlockRead,   // one BlockStore::ReadSectors
  kBlockWrite,  // one BlockStore::WriteSectors
  kByteWrite,   // one ByteStore::WriteAt
};
inline constexpr size_t kNumOpClasses = 5;

// One scheduled fault. An event fires for an operation when every arming
// condition holds: the site matches, `now` falls in [from, until), the
// site's op counter falls in [first_op, last_op], address filters (frames
// only) match, and the per-event Bernoulli draw passes.
struct FaultEvent {
  std::string site;              // empty = any site
  FaultKind kind = FaultKind::kFrameDrop;
  SimTime from = 0;              // window start (inclusive)
  SimTime until = kNever;        // window end (exclusive)
  uint64_t first_op = 0;         // op-count window (inclusive both ends)
  uint64_t last_op = kAnyOp;
  double probability = 1.0;      // Bernoulli per matching operation
  uint64_t param = 0;            // kind-specific: extra latency, dup count
  // Frame address filters (empty = any). A partition is a pair of drop
  // events with src/dst filters for each direction.
  std::vector<uint32_t> src_filter;
  std::vector<uint32_t> dst_filter;
};

// Profile for FaultPlan::Random: which sites exist and how long the
// workload runs, so generated windows land somewhere interesting.
struct ChaosProfile {
  std::string link_site;          // bulk-transfer site (migration link)
  std::string host_site;          // optional: host pause windows
  SimTime horizon = kSimTicksPerSec;
  uint32_t max_events = 4;
};

struct FaultPlan {
  uint64_t seed = 1;
  std::vector<FaultEvent> events;

  FaultEvent& Add(FaultEvent event) {
    events.push_back(std::move(event));
    return events.back();
  }

  // --- Convenience constructors for common shapes -------------------------
  void AddLinkDown(std::string site, SimTime from, SimTime until);
  void AddTransferLoss(std::string site, double probability, SimTime from = 0,
                       SimTime until = kNever);
  // Deterministically lose exactly the op_index-th transfer at `site`.
  void AddDropOnce(std::string site, uint64_t op_index);
  void AddLatencySpike(std::string site, SimTime extra, double probability,
                       SimTime from = 0, SimTime until = kNever);
  void AddReadError(std::string site, uint64_t first_op, uint64_t count = 1);
  void AddWriteError(std::string site, uint64_t first_op, uint64_t count = 1);
  // Tear the op_index-th byte-store write at `site` (then the device dies).
  void AddTornWrite(std::string site, uint64_t op_index);
  void AddHostPause(std::string site, SimTime from, SimTime until);
  void AddHostCrash(std::string site, SimTime at);
  // Bidirectional partition between address sets a and b during the window.
  void AddPartition(std::string site, std::vector<uint32_t> a,
                    std::vector<uint32_t> b, SimTime from, SimTime until);

  // A reproducible random plan for chaos testing: 1..max_events events drawn
  // from the taxonomy above, with windows inside [0, horizon). The same
  // (seed, profile) always yields the same plan.
  static FaultPlan Random(uint64_t seed, const ChaosProfile& profile);
};

// The answer to "does a fault hit this frame?".
struct FrameFault {
  bool drop = false;
  uint32_t duplicates = 0;     // extra copies to deliver
  SimTime extra_latency = 0;   // added to the delivery time
};

// The answer to "does a fault hit this bulk transfer?".
struct TransferFault {
  bool lost = false;
  SimTime extra_latency = 0;
};

// Interprets a FaultPlan. One injector instance may serve many sites; each
// query advances the per-site op counter for its class, and probabilistic
// events consume draws from their own rng stream, so queries from unrelated
// sites never perturb each other's outcomes.
//
// Thread safety: op-counter/stream/stats mutation is serialized by an
// internal mutex, so instrumented sites may query from concurrent vCPU
// slices (DESIGN.md §8). Determinism additionally requires that each *site*
// is queried from at most one slice per round — which holds by construction
// when sites are per-VM (disks) or barrier-scoped (hosts, migration links).
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  const FaultPlan& plan() const { return plan_; }

  // --- Network ------------------------------------------------------------

  // One switch frame delivery from `src` to `dst`.
  FrameFault OnFrame(const std::string& site, SimTime now, uint32_t src,
                     uint32_t dst);

  // One bulk transfer occupying [start, start + base_duration). Link-down
  // windows intersecting the (possibly latency-extended) transfer lose it.
  TransferFault OnTransfer(const std::string& site, SimTime start,
                           SimTime base_duration);

  // True when a kLinkDown window covers `now`.
  bool LinkDown(const std::string& site, SimTime now) const;

  // --- Storage ------------------------------------------------------------

  Status OnBlockRead(const std::string& site, SimTime now);
  Status OnBlockWrite(const std::string& site, SimTime now);

  // One ByteStore::WriteAt of `len` bytes at `offset`. Returns the number of
  // bytes that actually reach the medium when the write tears (a
  // sector-aligned prefix, possibly zero), or nullopt for a clean write.
  std::optional<uint64_t> OnByteWrite(const std::string& site, SimTime now,
                                      uint64_t offset, uint64_t len);

  // --- Host ---------------------------------------------------------------

  // When `now` falls in a kHostPause window, the exclusive end of the
  // latest such window; nullopt otherwise.
  std::optional<SimTime> PauseUntil(const std::string& site, SimTime now) const;

  // True once per kHostCrash event whose trigger time has passed (the event
  // is consumed; later queries return false).
  bool TakeCrash(const std::string& site, SimTime now);

  // --- Introspection ------------------------------------------------------

  struct Stats {
    uint64_t frames_dropped = 0;
    uint64_t frames_duplicated = 0;
    uint64_t frames_delayed = 0;
    uint64_t transfers_lost = 0;
    uint64_t transfers_delayed = 0;
    uint64_t read_errors = 0;
    uint64_t write_errors = 0;
    uint64_t torn_writes = 0;
    uint64_t host_crashes = 0;
  };
  // Deliberately lockless: read for reporting after the run quiesces, when
  // no instrumented site can be mid-query.
  const Stats& stats() const HYP_NO_THREAD_SAFETY_ANALYSIS { return stats_; }

  uint64_t OpCount(const std::string& site, OpClass cls) const;

 private:
  // Non-probabilistic arming check (site/time/op window/filters).
  bool Armed(const FaultEvent& event, const std::string& site, SimTime now,
             uint64_t op) const;
  // Armed + Bernoulli draw from the event's stream.
  bool Fires(size_t event_index, const std::string& site, SimTime now,
             uint64_t op) HYP_REQUIRES(mu_);
  uint64_t BumpOp(const std::string& site, OpClass cls) HYP_REQUIRES(mu_);

  mutable std::mutex mu_;
  FaultPlan plan_;
  // one per event, seeded from plan.seed
  std::vector<Xoshiro256> streams_ HYP_GUARDED_BY(mu_);
  // one-shot events (kHostCrash)
  std::vector<bool> consumed_ HYP_GUARDED_BY(mu_);
  std::map<std::pair<std::string, uint8_t>, uint64_t> op_counts_ HYP_GUARDED_BY(mu_);
  Stats stats_ HYP_GUARDED_BY(mu_);
};

}  // namespace hyperion::fault

#endif  // SRC_FAULT_FAULT_H_

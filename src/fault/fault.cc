#include "src/fault/fault.h"

#include <algorithm>

namespace hyperion::fault {

namespace {

// Stream-splitting constant (golden-ratio based, same family as splitmix64):
// event i draws from seed ^ (i+1)*kStreamSalt so sibling streams decorrelate.
constexpr uint64_t kStreamSalt = 0x9E3779B97F4A7C15ull;

bool AddrMatches(const std::vector<uint32_t>& filter, uint32_t addr) {
  if (filter.empty()) {
    return true;
  }
  return std::find(filter.begin(), filter.end(), addr) != filter.end();
}

constexpr uint64_t kTearSector = 512;

}  // namespace

// --- FaultPlan helpers ------------------------------------------------------

void FaultPlan::AddLinkDown(std::string site, SimTime from, SimTime until) {
  FaultEvent e;
  e.site = std::move(site);
  e.kind = FaultKind::kLinkDown;
  e.from = from;
  e.until = until;
  Add(std::move(e));
}

void FaultPlan::AddTransferLoss(std::string site, double probability,
                                SimTime from, SimTime until) {
  FaultEvent e;
  e.site = std::move(site);
  e.kind = FaultKind::kFrameDrop;
  e.from = from;
  e.until = until;
  e.probability = probability;
  Add(std::move(e));
}

void FaultPlan::AddDropOnce(std::string site, uint64_t op_index) {
  FaultEvent e;
  e.site = std::move(site);
  e.kind = FaultKind::kFrameDrop;
  e.first_op = op_index;
  e.last_op = op_index;
  Add(std::move(e));
}

void FaultPlan::AddLatencySpike(std::string site, SimTime extra,
                                double probability, SimTime from,
                                SimTime until) {
  FaultEvent e;
  e.site = std::move(site);
  e.kind = FaultKind::kLatencySpike;
  e.from = from;
  e.until = until;
  e.probability = probability;
  e.param = extra;
  Add(std::move(e));
}

void FaultPlan::AddReadError(std::string site, uint64_t first_op,
                             uint64_t count) {
  FaultEvent e;
  e.site = std::move(site);
  e.kind = FaultKind::kReadError;
  e.first_op = first_op;
  e.last_op = first_op + count - 1;
  Add(std::move(e));
}

void FaultPlan::AddWriteError(std::string site, uint64_t first_op,
                              uint64_t count) {
  FaultEvent e;
  e.site = std::move(site);
  e.kind = FaultKind::kWriteError;
  e.first_op = first_op;
  e.last_op = first_op + count - 1;
  Add(std::move(e));
}

void FaultPlan::AddTornWrite(std::string site, uint64_t op_index) {
  FaultEvent e;
  e.site = std::move(site);
  e.kind = FaultKind::kTornWrite;
  e.first_op = op_index;
  e.last_op = op_index;
  Add(std::move(e));
}

void FaultPlan::AddHostPause(std::string site, SimTime from, SimTime until) {
  FaultEvent e;
  e.site = std::move(site);
  e.kind = FaultKind::kHostPause;
  e.from = from;
  e.until = until;
  Add(std::move(e));
}

void FaultPlan::AddHostCrash(std::string site, SimTime at) {
  FaultEvent e;
  e.site = std::move(site);
  e.kind = FaultKind::kHostCrash;
  e.from = at;
  Add(std::move(e));
}

void FaultPlan::AddPartition(std::string site, std::vector<uint32_t> a,
                             std::vector<uint32_t> b, SimTime from,
                             SimTime until) {
  FaultEvent fwd;
  fwd.site = site;
  fwd.kind = FaultKind::kFrameDrop;
  fwd.from = from;
  fwd.until = until;
  fwd.src_filter = a;
  fwd.dst_filter = b;
  Add(std::move(fwd));
  FaultEvent rev;
  rev.site = std::move(site);
  rev.kind = FaultKind::kFrameDrop;
  rev.from = from;
  rev.until = until;
  rev.src_filter = std::move(b);
  rev.dst_filter = std::move(a);
  Add(std::move(rev));
}

FaultPlan FaultPlan::Random(uint64_t seed, const ChaosProfile& profile) {
  FaultPlan plan;
  plan.seed = seed;
  Xoshiro256 rng(seed ^ kStreamSalt);
  uint32_t n = 1 + static_cast<uint32_t>(rng.NextBelow(profile.max_events));
  for (uint32_t i = 0; i < n; ++i) {
    uint64_t shapes = profile.host_site.empty() ? 4 : 5;
    uint64_t shape = rng.NextBelow(shapes);
    SimTime from = rng.NextBelow(profile.horizon);
    switch (shape) {
      case 0: {  // sustained random transfer loss
        double p = 0.02 + 0.33 * rng.NextDouble();
        SimTime dur = rng.NextInRange(10 * kSimTicksPerMs, profile.horizon);
        plan.AddTransferLoss(profile.link_site, p, from, from + dur);
        break;
      }
      case 1: {  // link outage
        SimTime dur = rng.NextInRange(kSimTicksPerMs, 300 * kSimTicksPerMs);
        plan.AddLinkDown(profile.link_site, from, from + dur);
        break;
      }
      case 2: {  // latency spikes
        SimTime extra = rng.NextInRange(10 * kSimTicksPerUs, 5 * kSimTicksPerMs);
        double p = 0.05 + 0.45 * rng.NextDouble();
        plan.AddLatencySpike(profile.link_site, extra, p);
        break;
      }
      case 3: {  // lose one specific early transfer
        plan.AddDropOnce(profile.link_site, rng.NextBelow(400));
        break;
      }
      default: {  // host stall window
        SimTime dur = rng.NextInRange(kSimTicksPerMs, 100 * kSimTicksPerMs);
        plan.AddHostPause(profile.host_site, from, from + dur);
        break;
      }
    }
  }
  return plan;
}

// --- FaultInjector ----------------------------------------------------------

FaultInjector::FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {
  streams_.reserve(plan_.events.size());
  for (size_t i = 0; i < plan_.events.size(); ++i) {
    streams_.emplace_back(plan_.seed ^ ((i + 1) * kStreamSalt));
  }
  consumed_.assign(plan_.events.size(), false);
}

bool FaultInjector::Armed(const FaultEvent& event, const std::string& site,
                          SimTime now, uint64_t op) const {
  if (!event.site.empty() && event.site != site) {
    return false;
  }
  if (now < event.from || now >= event.until) {
    return false;
  }
  return op >= event.first_op && op <= event.last_op;
}

bool FaultInjector::Fires(size_t event_index, const std::string& site,
                          SimTime now, uint64_t op) {
  const FaultEvent& event = plan_.events[event_index];
  if (!Armed(event, site, now, op)) {
    return false;
  }
  if (event.probability >= 1.0) {
    return true;
  }
  return streams_[event_index].NextBool(event.probability);
}

uint64_t FaultInjector::BumpOp(const std::string& site, OpClass cls) {
  return op_counts_[{site, static_cast<uint8_t>(cls)}]++;
}

uint64_t FaultInjector::OpCount(const std::string& site, OpClass cls) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = op_counts_.find({site, static_cast<uint8_t>(cls)});
  return it == op_counts_.end() ? 0 : it->second;
}

FrameFault FaultInjector::OnFrame(const std::string& site, SimTime now,
                                  uint32_t src, uint32_t dst) {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t op = BumpOp(site, OpClass::kFrame);
  FrameFault out;
  for (size_t i = 0; i < plan_.events.size(); ++i) {
    const FaultEvent& event = plan_.events[i];
    switch (event.kind) {
      case FaultKind::kFrameDrop:
        if (AddrMatches(event.src_filter, src) &&
            AddrMatches(event.dst_filter, dst) && Fires(i, site, now, op)) {
          out.drop = true;
        }
        break;
      case FaultKind::kLinkDown:
        if (Armed(event, site, now, op)) {
          out.drop = true;
        }
        break;
      case FaultKind::kFrameDuplicate:
        if (AddrMatches(event.src_filter, src) &&
            AddrMatches(event.dst_filter, dst) && Fires(i, site, now, op)) {
          out.duplicates += event.param != 0 ? static_cast<uint32_t>(event.param) : 1;
        }
        break;
      case FaultKind::kFrameReorder:
      case FaultKind::kLatencySpike:
        if (AddrMatches(event.src_filter, src) &&
            AddrMatches(event.dst_filter, dst) && Fires(i, site, now, op)) {
          out.extra_latency += event.param;
        }
        break;
      default:
        break;
    }
  }
  if (out.drop) {
    ++stats_.frames_dropped;
    // A dropped frame is dropped; the other effects are moot.
    out.duplicates = 0;
    out.extra_latency = 0;
  } else {
    if (out.duplicates != 0) {
      stats_.frames_duplicated += out.duplicates;
    }
    if (out.extra_latency != 0) {
      ++stats_.frames_delayed;
    }
  }
  return out;
}

TransferFault FaultInjector::OnTransfer(const std::string& site, SimTime start,
                                        SimTime base_duration) {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t op = BumpOp(site, OpClass::kTransfer);
  TransferFault out;
  for (size_t i = 0; i < plan_.events.size(); ++i) {
    const FaultEvent& event = plan_.events[i];
    if (event.kind == FaultKind::kLatencySpike && Fires(i, site, start, op)) {
      out.extra_latency += event.param;
    }
  }
  SimTime end = start + base_duration + out.extra_latency;
  for (size_t i = 0; i < plan_.events.size(); ++i) {
    const FaultEvent& event = plan_.events[i];
    switch (event.kind) {
      case FaultKind::kFrameDrop:
        if (Fires(i, site, start, op)) {
          out.lost = true;
        }
        break;
      case FaultKind::kLinkDown:
        // The outage intersects the transfer's time on the wire.
        if (op >= event.first_op && op <= event.last_op &&
            (event.site.empty() || event.site == site) &&
            start < event.until && end > event.from) {
          out.lost = true;
        }
        break;
      default:
        break;
    }
  }
  if (out.lost) {
    ++stats_.transfers_lost;
  } else if (out.extra_latency != 0) {
    ++stats_.transfers_delayed;
  }
  return out;
}

bool FaultInjector::LinkDown(const std::string& site, SimTime now) const {
  for (const FaultEvent& event : plan_.events) {
    if (event.kind == FaultKind::kLinkDown &&
        (event.site.empty() || event.site == site) && now >= event.from &&
        now < event.until) {
      return true;
    }
  }
  return false;
}

Status FaultInjector::OnBlockRead(const std::string& site, SimTime now) {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t op = BumpOp(site, OpClass::kBlockRead);
  for (size_t i = 0; i < plan_.events.size(); ++i) {
    if (plan_.events[i].kind == FaultKind::kReadError &&
        Fires(i, site, now, op)) {
      ++stats_.read_errors;
      return UnavailableError("injected read error at " + site + " (op " +
                              std::to_string(op) + ")");
    }
  }
  return OkStatus();
}

Status FaultInjector::OnBlockWrite(const std::string& site, SimTime now) {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t op = BumpOp(site, OpClass::kBlockWrite);
  for (size_t i = 0; i < plan_.events.size(); ++i) {
    if (plan_.events[i].kind == FaultKind::kWriteError &&
        Fires(i, site, now, op)) {
      ++stats_.write_errors;
      return UnavailableError("injected write error at " + site + " (op " +
                              std::to_string(op) + ")");
    }
  }
  return OkStatus();
}

std::optional<uint64_t> FaultInjector::OnByteWrite(const std::string& site,
                                                   SimTime now, uint64_t offset,
                                                   uint64_t len) {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t op = BumpOp(site, OpClass::kByteWrite);
  for (size_t i = 0; i < plan_.events.size(); ++i) {
    if (plan_.events[i].kind != FaultKind::kTornWrite ||
        !Fires(i, site, now, op)) {
      continue;
    }
    ++stats_.torn_writes;
    // Tear at a sector boundary strictly inside the write: the medium
    // persists whole sectors atomically, so the landed prefix covers the
    // sectors fully written before power failed (possibly none).
    uint64_t first_cut = (offset + kTearSector - 1) / kTearSector * kTearSector;
    std::vector<uint64_t> cuts;
    for (uint64_t cut = std::max(first_cut, offset); cut < offset + len;
         cut += kTearSector) {
      if (cut > offset) {
        cuts.push_back(cut - offset);
      }
    }
    cuts.push_back(0);  // "no sector completed" is always possible
    return cuts[streams_[i].NextBelow(cuts.size())];
  }
  return std::nullopt;
}

std::optional<SimTime> FaultInjector::PauseUntil(const std::string& site,
                                                 SimTime now) const {
  std::optional<SimTime> until;
  for (const FaultEvent& event : plan_.events) {
    if (event.kind == FaultKind::kHostPause &&
        (event.site.empty() || event.site == site) && now >= event.from &&
        now < event.until) {
      until = std::max(until.value_or(0), event.until);
    }
  }
  return until;
}

bool FaultInjector::TakeCrash(const std::string& site, SimTime now) {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < plan_.events.size(); ++i) {
    const FaultEvent& event = plan_.events[i];
    if (event.kind == FaultKind::kHostCrash && !consumed_[i] &&
        (event.site.empty() || event.site == site) && now >= event.from) {
      consumed_[i] = true;
      ++stats_.host_crashes;
      return true;
    }
  }
  return false;
}

}  // namespace hyperion::fault

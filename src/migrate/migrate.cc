#include "src/migrate/migrate.h"

#include <algorithm>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "src/fault/fault.h"
#include "src/snapshot/snapshot.h"

namespace hyperion::migrate {

namespace {

constexpr uint64_t kPageWireBytes = isa::kPageSize + kPageMetaBytes;

// Conservative size of the non-RAM machine state on the wire.
uint64_t MachineStateBytes(core::Vm& vm) {
  return 4096 + static_cast<uint64_t>(vm.num_vcpus()) * 256;
}

// The source side of the migration wire: sends chunks while the source host
// (and the guest, unless paused) keeps running, retrying lost chunks with
// exponential backoff. Each attempt spends real wire time, so the guest
// dirties more memory during retries — the robustness cost the report's
// retry counters make visible.
class WireSender {
 public:
  WireSender(core::Host& src, const MigrateOptions& options, MigrationReport& rep)
      : src_(src), options_(options), rep_(rep) {}

  // Sends one chunk of `bytes` covering `pages` page transfers. Returns
  // false when the chunk was lost kMaxChunkRetries times. The caller
  // accounts the first attempt; retries account themselves.
  bool SendChunk(uint64_t bytes, uint64_t pages) {
    SimTime backoff = options_.retry_backoff;
    for (uint32_t attempt = 0;; ++attempt) {
      SimTime start = src_.clock().now();
      SimTime duration = options_.link.TransmitTime(bytes) + options_.link.latency;
      bool lost = false;
      if (options_.fault != nullptr) {
        fault::TransferFault f =
            options_.fault->OnTransfer(options_.fault_site, start, duration);
        duration += f.extra_latency;
        lost = f.lost;
      }
      src_.RunFor(duration);  // wall time passes whether or not the chunk lands
      if (!lost) {
        return true;
      }
      if (attempt + 1 >= kMaxChunkRetries) {
        return false;
      }
      ++rep_.retries;
      rep_.pages_resent += pages;
      rep_.pages_sent += pages;
      rep_.bytes_sent += bytes;
      src_.RunFor(backoff);
      backoff = std::min(backoff * 2, options_.retry_backoff_cap);
    }
  }

 private:
  core::Host& src_;
  const MigrateOptions& options_;
  MigrationReport& rep_;
};

void Publish(MigrationReport* report, const MigrationReport& rep) {
  if (report != nullptr) {
    *report = rep;
  }
}

}  // namespace

Result<core::Vm*> PreCopyMigrate(core::Host& src, core::Vm* vm, core::Host& dst,
                                 const MigrateOptions& options, MigrationReport* report) {
  if (vm->state() != core::VmState::kRunning && vm->state() != core::VmState::kPaused) {
    return FailedPreconditionError("vm is not migratable in its current state");
  }
  bool was_running = vm->state() == core::VmState::kRunning;
  // The migration driver runs between rounds on the caller's thread.
  ScopedSerialPhase serial;
  MigrationReport rep;
  SimTime t0 = src.clock().now();
  mem::GuestMemory& mem = vm->memory();
  mem.EnableDirtyLog();
  WireSender wire(src, options, rep);
  uint32_t chunk_pages = std::max<uint32_t>(1, options.chunk_pages);

  // The resumable-transfer state: pages the destination copy does not have
  // yet. A chunk leaves the set only once its transfer is acked, so an
  // aborted round resends exactly the unacked remainder, never the pages
  // that already made it.
  std::vector<uint32_t> pending;
  for (uint32_t gpn = 0; gpn < mem.num_pages(); ++gpn) {
    if (mem.IsPresent(gpn)) {
      pending.push_back(gpn);
    }
  }

  // Abort during the iterative phase: the guest never stopped; just turn
  // off dirty tracking and leave it running.
  auto abort_rounds = [&](Status st) {
    mem.DisableDirtyLog();
    Publish(report, rep);
    return st;
  };

  for (uint32_t round = 1; round <= kMaxPrecopyRounds; ++round) {
    rep.rounds = round;
    SimTime round_start = src.clock().now();
    bool timed_out = false;
    size_t sent = 0;
    while (sent < pending.size()) {
      size_t n = std::min<size_t>(chunk_pages, pending.size() - sent);
      uint64_t zero_pages = 0;
      if (options.skip_zero_pages) {
        for (size_t k = 0; k < n; ++k) {
          uint32_t gpn = pending[sent + k];
          if (!mem.IsPresent(gpn) || mem.PageIsZero(gpn)) {
            ++zero_pages;
          }
        }
      }
      uint64_t bytes = (n - zero_pages) * kPageWireBytes + zero_pages * kPageMetaBytes;
      rep.pages_sent += n;
      rep.bytes_sent += bytes;
      if (!wire.SendChunk(bytes, n)) {
        return abort_rounds(AbortedError(
            "pre-copy chunk lost " + std::to_string(kMaxChunkRetries) +
            " times; migration aborted with the source vm untouched"));
      }
      sent += n;
      if (options.round_timeout != 0 && sent < pending.size() &&
          src.clock().now() - round_start >= options.round_timeout) {
        ++rep.timeouts;
        timed_out = true;
        break;
      }
    }
    pending.erase(pending.begin(), pending.begin() + static_cast<ptrdiff_t>(sent));

    // Next round: the unsent remainder plus everything the guest re-dirtied
    // while this round was on the wire.
    Bitmap dirty = mem.HarvestDirty();
    for (size_t gpn : dirty.SetBits()) {
      pending.push_back(static_cast<uint32_t>(gpn));
    }
    std::sort(pending.begin(), pending.end());
    pending.erase(std::unique(pending.begin(), pending.end()), pending.end());

    if (vm->state() == core::VmState::kCrashed) {
      return abort_rounds(AbortedError("source vm crashed mid-migration: " +
                                       vm->crash_reason().ToString()));
    }
    if (!timed_out && pending.size() <= kStopCopyThresholdPages) {
      break;
    }
    if (vm->state() != core::VmState::kRunning) {
      // Guest shut down mid-migration; whatever is left goes in the final copy.
      break;
    }
  }

  // Stop-and-copy: pause, ship the remainder plus machine state. From here
  // a permanent loss rolls the switchover back: the source resumes.
  vm->Pause(serial);
  SimTime pause_start = src.clock().now();
  auto abort_switchover = [&](Status st) {
    mem.DisableDirtyLog();
    if (was_running) {
      vm->Resume(serial);
    }
    Publish(report, rep);
    return st;
  };
  size_t sent = 0;
  while (sent < pending.size()) {
    size_t n = std::min<size_t>(chunk_pages, pending.size() - sent);
    uint64_t bytes = n * kPageWireBytes;
    rep.pages_sent += n;
    rep.bytes_sent += bytes;
    if (!wire.SendChunk(bytes, n)) {
      return abort_switchover(
          AbortedError("stop-and-copy chunk lost past the retry budget; "
                       "source vm resumed"));
    }
    sent += n;
  }
  uint64_t state_bytes = MachineStateBytes(*vm);
  rep.bytes_sent += state_bytes;
  if (!wire.SendChunk(state_bytes, 0)) {
    return abort_switchover(
        AbortedError("machine-state transfer lost past the retry budget; "
                     "source vm resumed"));
  }
  rep.downtime = src.clock().now() - pause_start;
  mem.DisableDirtyLog();

  // Materialize the destination from the (now consistent) source state. Any
  // failure from here on also rolls back: no half-VM survives on either side.
  // The disk is shared storage, so the config's shared_ptr simply attaches
  // at the destination too.
  auto image = snapshot::SaveVm(*vm);
  if (!image.ok()) {
    return abort_switchover(image.status());
  }
  auto created = snapshot::CloneVm(dst, vm->config(), *image);
  if (!created.ok()) {
    return abort_switchover(created.status());
  }
  core::Vm* dvm = *created;
  dvm->Pause(serial);   // align lifecycle state, then resume cleanly
  dvm->Resume(serial);

  rep.total_time = src.clock().now() - t0;
  Publish(report, rep);
  return dvm;
}

namespace {

// Post-copy machinery living on the destination host: serves demand faults
// from the paused source VM's memory and pushes the rest in the background.
// Lost transfers (injected) are retried with exponential backoff for as long
// as the caller keeps driving the destination; the postcopy_run_limit bounds
// the whole phase.
class PostCopyServer : public std::enable_shared_from_this<PostCopyServer> {
 public:
  PostCopyServer(core::Vm* src_vm, core::Vm* dst_vm, core::Host* dst_host,
                 const MigrateOptions& options, MigrationReport* rep)
      : src_vm_(src_vm),
        dst_vm_(dst_vm),
        dst_host_(dst_host),
        options_(options),
        link_(&dst_host->clock(), options.link),
        rep_(rep) {
    link_.SetFault(options_.fault, options_.fault_site);
    for (uint32_t gpn = 0; gpn < src_vm_->memory().num_pages(); ++gpn) {
      if (src_vm_->memory().IsPresent(gpn)) {
        missing_.insert(gpn);
      }
    }
    dst_vm_->SetMissingPageHandler(
        [this](const ExecutePhase& ph, uint32_t vcpu, uint32_t gpn) {
          return OnFault(ph, vcpu, gpn);
        });
  }

  bool Done() const { return missing_.empty() && in_flight_.empty(); }

  void StartBackgroundPush(const DirectPhase& ph) { PushNextBatch(ph); }

  // Called when the caller abandons the migration: stop touching its report.
  void DetachReport() {
    static MigrationReport sink;
    rep_ = &sink;
  }

 private:
  // Runs after a transfer's pages are delivered.
  using Step = void (PostCopyServer::*)(const DirectPhase&);

  // Runs inside the faulting vCPU's slice: everything it schedules stages
  // through the ExecutePhase until the round barrier.
  bool OnFault(const ExecutePhase& ph, uint32_t vcpu, uint32_t gpn) {
    if (!missing_.count(gpn) && !in_flight_.count(gpn)) {
      return false;  // truly absent page (ballooned) — a real guest bug
    }
    waiters_[gpn].push_back(vcpu);
    SimTime start = dst_host_->clock().now();
    ++rep_->demand_fetches;
    if (in_flight_.count(gpn)) {
      // Already on the wire (background batch or an earlier fault); wait.
      stall_started_[gpn] = std::min(stall_started_.count(gpn) ? stall_started_[gpn] : start,
                                     start);
      return true;
    }
    missing_.erase(gpn);
    in_flight_.insert(gpn);
    stall_started_[gpn] = start;
    SendPages(ph, {gpn}, nullptr, options_.retry_backoff);
    return true;
  }

  // Sends `pages` as one transfer; on arrival each page is delivered, then
  // `then` runs if set. A lost transfer reschedules itself after `backoff`
  // (doubling up to the cap); a demand-faulting vCPU stays stalled
  // throughout — exactly the self-healing the chaos harness measures as
  // demand stall. Dual-regime: a demand fetch's first attempt fires from the
  // faulting slice (staged); background batches and every retry fire from
  // serial clock callbacks (direct).
  void SendPages(const Phase& ph, std::vector<uint32_t> pages, Step then, SimTime backoff) {
    uint64_t bytes = pages.size() * kPageWireBytes;
    rep_->pages_sent += pages.size();
    rep_->bytes_sent += bytes;
    auto self = weak_from_this();
    link_.TransferFaulty(
        ph, bytes,
        [self, pages, then](const SerialPhase& sp) {
          auto s = self.lock();
          if (s == nullptr) {
            return;
          }
          for (uint32_t gpn : pages) {
            s->DeliverPage(sp, gpn);
          }
          if (then != nullptr) {
            (s.get()->*then)(sp);
          }
        },
        [self, pages, then, backoff](const SerialPhase& sp) {
          auto s = self.lock();
          if (s == nullptr) {
            return;
          }
          ++s->rep_->retries;
          s->rep_->pages_resent += pages.size();
          SimTime next = std::min(backoff * 2, s->options_.retry_backoff_cap);
          s->dst_host_->clock().ScheduleAfter(
              sp, backoff, [self, pages, then, next](const SerialPhase& sp2) {
                if (auto s2 = self.lock()) {
                  s2->SendPages(sp2, pages, then, next);
                }
              });
        });
  }

  void DeliverPage(const SerialPhase& ph, uint32_t gpn) {
    in_flight_.erase(gpn);
    // Copy the bytes from the (paused) source.
    mem::GuestMemory& dmem = dst_vm_->memory();
    if (!dmem.IsPresent(gpn)) {
      (void)dmem.PopulatePage(gpn);
    }
    const uint8_t* from = src_vm_->memory().PageData(gpn);
    if (from != nullptr) {
      std::memcpy(dmem.PageData(gpn), from, isa::kPageSize);
    }
    dst_vm_->InvalidateGpn(gpn);

    auto stall_it = stall_started_.find(gpn);
    if (stall_it != stall_started_.end()) {
      rep_->demand_stall_total += dst_host_->clock().now() - stall_it->second;
      stall_started_.erase(stall_it);
    }
    auto waiter_it = waiters_.find(gpn);
    if (waiter_it != waiters_.end()) {
      for (uint32_t vcpu : waiter_it->second) {
        dst_host_->WakeVcpu(ph, dst_vm_, vcpu);
      }
      waiters_.erase(waiter_it);
    }
  }

  void PushNextBatch(const DirectPhase& ph) {
    if (missing_.empty()) {
      return;
    }
    std::vector<uint32_t> batch;
    for (uint32_t gpn : missing_) {
      batch.push_back(gpn);
      if (batch.size() >= kBackgroundBatchPages) {
        break;
      }
    }
    for (uint32_t gpn : batch) {
      missing_.erase(gpn);
      in_flight_.insert(gpn);
    }
    SendPages(ph, std::move(batch), &PostCopyServer::PushNextBatch, options_.retry_backoff);
  }

  core::Vm* src_vm_;
  core::Vm* dst_vm_;
  core::Host* dst_host_;
  MigrateOptions options_;
  net::Link link_;
  MigrationReport* rep_;

  std::set<uint32_t> missing_;
  std::set<uint32_t> in_flight_;
  std::map<uint32_t, std::vector<uint32_t>> waiters_;
  std::map<uint32_t, SimTime> stall_started_;
};

}  // namespace

Result<core::Vm*> PostCopyMigrate(core::Host& src, core::Vm* vm, core::Host& dst,
                                  const MigrateOptions& options, MigrationReport* report) {
  if (vm->state() != core::VmState::kRunning && vm->state() != core::VmState::kPaused) {
    return FailedPreconditionError("vm is not migratable in its current state");
  }
  bool was_running = vm->state() == core::VmState::kRunning;
  ScopedSerialPhase serial;
  MigrationReport rep;
  WireSender wire(src, options, rep);

  // Switchover: only the machine state crosses before the guest resumes. A
  // permanent loss here rolls back — the source simply resumes.
  vm->Pause(serial);
  SimTime pause_start = src.clock().now();
  auto abort_switchover = [&](Status st) {
    if (was_running) {
      vm->Resume(serial);
    }
    Publish(report, rep);
    return st;
  };
  uint64_t state_bytes = MachineStateBytes(*vm);
  rep.bytes_sent += state_bytes;
  if (!wire.SendChunk(state_bytes, 0)) {
    return abort_switchover(
        AbortedError("post-copy machine-state transfer lost past the retry "
                     "budget; source vm resumed"));
  }
  rep.downtime = src.clock().now() - pause_start;

  auto image = snapshot::SaveVm(*vm);
  if (!image.ok()) {
    return abort_switchover(image.status());
  }
  auto created = snapshot::CloneVm(dst, vm->config(), *image);
  if (!created.ok()) {
    return abort_switchover(created.status());
  }
  core::Vm* dvm = *created;
  // Strip all RAM: pages fault over on demand.
  for (uint32_t gpn = 0; gpn < dvm->memory().num_pages(); ++gpn) {
    if (dvm->memory().IsPresent(gpn)) {
      Status rs = dvm->memory().ReleasePage(serial, gpn);
      if (!rs.ok()) {
        (void)dst.DestroyVm(dvm);
        return abort_switchover(rs);
      }
    }
  }
  dvm->virt().FlushAll();

  auto server = std::make_shared<PostCopyServer>(vm, dvm, &dst, options, &rep);
  dvm->Pause(serial);
  dvm->Resume(serial);
  server->StartBackgroundPush(serial);

  // Rolls the failed switchover back: tear the destination down and hand
  // the guest back to the source. (The guest may have executed at the
  // destination; in the simulation the source's RAM is authoritative and
  // post-switchover destination writes exist only in destination pages, so
  // resuming the source replays from the switchover point. Chaos tests use
  // quiescent guests where the two are indistinguishable.)
  auto abort_postcopy = [&](Status fail) {
    dvm->SetMissingPageHandler(nullptr);
    server->DetachReport();
    server.reset();  // pending wire callbacks hold weak_ptrs; now inert
    (void)dst.DestroyVm(dvm);
    if (was_running) {
      vm->Resume(serial);
    }
    Publish(report, rep);
    return fail;
  };

  // Drive the destination until fully resident.
  SimTime run_start = dst.clock().now();
  while (!server->Done() && dst.clock().now() - run_start < options.postcopy_run_limit) {
    dst.RunFor(kSimTicksPerMs);
    if (dvm->state() == core::VmState::kCrashed) {
      return abort_postcopy(InternalError("destination vm crashed during post-copy: " +
                                          dvm->crash_reason().ToString()));
    }
  }
  if (!server->Done()) {
    ++rep.timeouts;
    return abort_postcopy(
        AbortedError("post-copy did not reach residency within the run "
                     "limit; destination destroyed, source vm resumed"));
  }
  dvm->SetMissingPageHandler(nullptr);

  rep.total_time = rep.downtime + (dst.clock().now() - run_start);
  Publish(report, rep);
  return dvm;
}

}  // namespace hyperion::migrate

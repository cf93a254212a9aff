#include "src/core/time_domain.h"

#include <algorithm>
#include <cstdlib>
#include <map>

#include "src/core/host.h"

namespace hyperion::core {

namespace {

// -1 reads HYPERION_WORKERS (unset or non-positive: 0). The process
// environment is read-only for the whole run; this is the one place the
// core consults it.
uint32_t ResolveWorkerThreads(int configured) {
  if (configured >= 0) {
    return static_cast<uint32_t>(configured);
  }
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  const char* env = std::getenv("HYPERION_WORKERS");
  int parsed = env != nullptr ? std::atoi(env) : 0;
  return parsed > 0 ? static_cast<uint32_t>(parsed) : 0;
}

}  // namespace

TimeDomain::TimeDomain(int worker_threads)
    : worker_threads_(ResolveWorkerThreads(worker_threads)) {}

TimeDomain::~TimeDomain() = default;

void TimeDomain::AddMember(Host* host) { members_.push_back(host); }

void TimeDomain::RemoveMember(Host* host) {
  members_.erase(std::remove(members_.begin(), members_.end(), host), members_.end());
}

void TimeDomain::RunFor(SimTime duration) {
  SimTime end = clock_.now() + duration;
  if (workers_ == nullptr && worker_threads_ > 0) {
    workers_ = std::make_unique<WorkerPool>(worker_threads_);
  }
  while (clock_.now() < end) {
    if (!RunRound(end)) {
      return;
    }
  }
}

bool TimeDomain::RunRound(SimTime end) {
  // Fault gates first: injected crashes and pause windows are consumed at
  // the round's start, exactly where the old single-host loop checked them.
  for (Host* h : members_) {
    h->FaultGate(end);
  }

  // The earliest member anchor opens the round; everything due on the way
  // fires with the domain's serial token.
  SimTime t0 = ~SimTime{0};
  for (Host* h : members_) {
    t0 = std::min(t0, h->DispatchAnchor());
  }
  t0 = std::max(t0, clock_.now());
  if (t0 >= end) {
    clock_.RunUntil(serial_, end);
    return false;
  }
  clock_.RunUntil(serial_, t0);

  // Conservative window: no slice may start at or after the next pending
  // clock event — that event could wake a vCPU that deserves a pCPU first.
  // The horizon is shared: any member's event bounds every member's round.
  SimTime window_end = end;
  if (clock_.HasPending()) {
    window_end = std::min(window_end, clock_.NextEventTime());
  }

  // --- Dispatch: per member, in member order -------------------------------
  std::map<const void*, const Vm*> store_users;
  std::vector<Host::RoundPlan> plans(members_.size());
  for (size_t i = 0; i < members_.size(); ++i) {
    members_[i]->DispatchRound(window_end, end, store_users, plans[i]);
  }

  // --- Execute -------------------------------------------------------------
  // Same-VM slices form one lane, run sequentially in dispatch order (guest
  // state is never touched by two threads at once — their simulated slices
  // still overlap in time, as on real SMP). Distinct lanes run concurrently
  // on the shared pool; a VM never spans hosts, so lanes don't either.
  std::vector<std::vector<Host::SliceWork*>> lanes;
  {
    std::map<const Vm*, size_t> lane_of;
    for (Host::RoundPlan& plan : plans) {
      for (Host::SliceWork& work : plan.slices) {
        auto [it, inserted] = lane_of.try_emplace(work.ref.vm, lanes.size());
        if (inserted) {
          lanes.emplace_back();
        }
        lanes[it->second].push_back(&work);
      }
    }
  }
  auto run_lane = [&](size_t lane) {
    for (Host::SliceWork* work : lanes[lane]) {
      work->host->ExecuteSlice(*work);
    }
  };
  if (workers_ == nullptr || lanes.size() <= 1) {
    for (size_t lane = 0; lane < lanes.size(); ++lane) {
      run_lane(lane);
    }
  } else {
    workers_->Run(lanes.size(), run_lane);
  }

  // --- Commit --------------------------------------------------------------
  // Member order, each member's slices in dispatch order: one deterministic
  // total order over every staged effect in the domain. The CommitPhase
  // minted here is the only way to reach the CommitStage entry points.
  CommitPhase commit;
  SimTime domain_min_done = ~SimTime{0};
  for (size_t i = 0; i < members_.size(); ++i) {
    members_[i]->CommitSlices(commit, plans[i]);
    domain_min_done = std::min(domain_min_done, plans[i].min_done);
  }
  // Post-commit event horizon: commits above may have scheduled deliveries
  // (frames crossing switches or the fabric) due before the dispatch-time
  // window; no idle pCPU may park past them.
  SimTime event_horizon = ~SimTime{0};
  if (clock_.HasPending()) {
    event_horizon = clock_.NextEventTime();
  }
  for (size_t i = 0; i < members_.size(); ++i) {
    members_[i]->ParkIdles(plans[i], domain_min_done, event_horizon);
  }
  return true;
}

}  // namespace hyperion::core

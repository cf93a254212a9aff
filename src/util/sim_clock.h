// Simulated time.
//
// Hyperion is an event-driven simulation: all durations are expressed in
// simulated cycles of a nominal 1 GHz machine, so 1 cycle == 1 ns. The clock
// only moves when the simulation advances it, which makes every run
// deterministic regardless of host speed.
//
// Staged execution (DESIGN.md §8): while the host run loop executes vCPU
// slices on worker threads, the shared event queue must not be touched
// concurrently. A worker installs a thread-local SimClock::Stage for the
// duration of a slice; now() then reads the slice's start time (the value the
// serial loop would have seen, since the clock never moves mid-slice) and
// scheduling calls append to the stage instead of the queue. The host thread
// merges stages at the round barrier with CommitStage, in deterministic
// dispatch order, so the final queue contents are identical for any worker
// count — including zero.
//
// Phase discipline (DESIGN.md §9): the direct-effect entry points
// (ScheduleOwned/ScheduleAt/ScheduleAfter, RunUntil/RunAll, CommitStage)
// demand a direct-phase capability token that worker lanes can never hold;
// lanes schedule through ClockRef, whose entries take `const Phase&`. Both
// reach one leaf, which routes by the thread-local stage: a call against
// the staged clock is staged, and a call against a *different* clock (the
// two-host migration case) goes straight to that clock's queue.

#ifndef SRC_UTIL_SIM_CLOCK_H_
#define SRC_UTIL_SIM_CLOCK_H_

#include <cassert>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/util/event_queue.h"
#include "src/util/phase.h"

namespace hyperion {

constexpr SimTime kSimTicksPerUs = 1000;
constexpr SimTime kSimTicksPerMs = 1000 * kSimTicksPerUs;
constexpr SimTime kSimTicksPerSec = 1000 * kSimTicksPerMs;

inline double SimTimeToMs(SimTime t) { return static_cast<double>(t) / kSimTicksPerMs; }
inline double SimTimeToUs(SimTime t) { return static_cast<double>(t) / kSimTicksPerUs; }
inline double SimTimeToSec(SimTime t) { return static_cast<double>(t) / kSimTicksPerSec; }

// A monotonically advancing simulated clock with a pending-event queue.
// Events scheduled at the same time fire in scheduling order (stable).
class SimClock {
 public:
  using Callback = EventQueue::Callback;

  // Normalizes a callable into a Callback: phase-taking lambdas pass
  // through; zero-argument lambdas (events that perform no direct effects
  // themselves) are wrapped so existing call sites stay terse.
  template <typename F>
  static Callback WrapCallback(F&& fn) {
    if constexpr (std::is_invocable_v<std::decay_t<F>&, const SerialPhase&>) {
      return Callback(std::forward<F>(fn));
    } else {
      return Callback(
          [f = std::forward<F>(fn)](const SerialPhase&) mutable { f(); });
    }
  }

  // Per-slice staging buffer (see the file comment). `clock` names the
  // instance being staged for — two hosts coexist during live migration, and
  // only calls against the staged instance are intercepted.
  struct Stage {
    SimClock* clock = nullptr;
    SimTime vnow = 0;  // the slice's start time, frozen for the whole slice
    struct Staged {
      SimTime when;
      uint64_t owner;
      Callback fn;
    };
    std::vector<Staged> events;
  };

  // Installs `stage` as the current thread's staging buffer (nullptr to
  // clear). Only the host run loop does this, around each slice.
  static void SetStage(const ExecutePhase&, Stage* stage) { tls_stage_ = stage; }

  SimTime now() const {
    const Stage* s = tls_stage_;
    return (s != nullptr && s->clock == this) ? s->vnow : now_;
  }

  // --- Direct scheduling (serial / commit phases only) --------------------

  // Schedules `fn` to run at absolute time `when` (>= now), tagged with
  // `owner` (see EventQueue; 0 = uncancellable).
  template <typename F>
  void ScheduleOwned(const DirectPhase&, SimTime when, uint64_t owner, F fn) {
    ScheduleOwnedAny(when, owner, WrapCallback(std::move(fn)));
  }

  // Schedules `fn` to run at absolute time `when` (>= now).
  template <typename F>
  void ScheduleAt(const DirectPhase& ph, SimTime when, F fn) {
    ScheduleOwned(ph, when, 0, std::move(fn));
  }

  // Schedules `fn` to run `delay` cycles from now.
  template <typename F>
  void ScheduleAfter(const DirectPhase& ph, SimTime delay, F fn) {
    ScheduleOwned(ph, now() + delay, 0, std::move(fn));
  }

  // Merges a slice's staged events into the queue, in staging order. Called
  // at the round barrier; each staged `when` was validated against the
  // slice's vnow, which is never before the queue's current time.
  void CommitStage(const CommitPhase&, Stage& stage) {
    for (Stage::Staged& ev : stage.events) {
      assert(ev.when >= now_);
      queue_.Push(ev.when, ev.owner, std::move(ev.fn));
    }
    stage.events.clear();
  }

  // Returns a fresh nonzero owner id for event tagging.
  uint64_t NewOwner() { return ++last_owner_; }

  // Drops every pending event tagged with `owner` (VM teardown). Staged
  // events never survive to a teardown point: teardown only happens between
  // rounds, after every stage has been committed.
  size_t CancelOwner(const DirectPhase&, uint64_t owner) {
    return owner == 0 ? 0 : queue_.CancelOwner(owner);
  }

  // Moves time forward by `delta` without running events (callers that manage
  // their own event dispatch, e.g. the vCPU run loop, use this).
  void Advance(const DirectPhase&, SimTime delta) { now_ += delta; }

  // Advances to `when`, firing every event due on the way, in order. The
  // caller's serial token is handed to each callback.
  void RunUntil(const SerialPhase& ph, SimTime when) {
    while (!queue_.empty() && queue_.top_time() <= when) {
      EventQueue::Event ev = queue_.Pop();
      now_ = ev.when;
      ev.fn(ph);
    }
    if (when > now_) {
      now_ = when;
    }
  }

  // Runs events until the queue drains.
  void RunAll(const SerialPhase& ph) {
    while (!queue_.empty()) {
      EventQueue::Event ev = queue_.Pop();
      now_ = ev.when;
      ev.fn(ph);
    }
  }

  bool HasPending() const { return !queue_.empty(); }
  SimTime NextEventTime() const {
    assert(!queue_.empty());
    return queue_.top_time();
  }

 private:
  friend class ClockRef;

  // Shared leaf under ScheduleOwned and ClockRef::ScheduleAt: stage when the
  // current thread is staging for this clock, push directly otherwise.
  void ScheduleOwnedAny(SimTime when, uint64_t owner, Callback fn) {
    Stage* s = tls_stage_;
    if (s != nullptr && s->clock == this) {
      assert(when >= s->vnow);
      s->events.push_back(Stage::Staged{when, owner, std::move(fn)});
      return;
    }
    assert(when >= now_);
    queue_.Push(when, owner, std::move(fn));
  }

  static inline thread_local Stage* tls_stage_ = nullptr;

  SimTime now_ = 0;
  uint64_t last_owner_ = 0;
  EventQueue queue_;
};

// A clock handle that tags everything it schedules with a fixed owner id.
// Devices hold one instead of a raw SimClock* so that their completion
// events die with the VM that owns them (Vm::~Vm cancels the owner).
// Implicitly convertible from SimClock* — an untagged ref behaves exactly
// like the raw pointer did.
//
// ClockRef is the entry for dual-context code: device completion paths run
// both inside slices (doorbell MMIO from a worker lane) and from serial
// callbacks (snapshot restore, tests), so its Schedule* methods take
// `const Phase&` and call the clock's leaf, which stages or pushes by the
// thread-local stage.
class ClockRef {
 public:
  ClockRef() = default;
  // NOLINTNEXTLINE(google-explicit-constructor): drop-in for SimClock*.
  ClockRef(SimClock* clock, uint64_t owner = 0) : clock_(clock), owner_(owner) {}

  SimClock* clock() const { return clock_; }
  uint64_t owner() const { return owner_; }

  SimTime now() const { return clock_->now(); }

  template <typename F>
  void ScheduleAt(const Phase&, SimTime when, F fn) {
    clock_->ScheduleOwnedAny(when, owner_, SimClock::WrapCallback(std::move(fn)));
  }

  template <typename F>
  void ScheduleAfter(const Phase& ph, SimTime delay, F fn) {
    ScheduleAt(ph, clock_->now() + delay, std::move(fn));
  }

 private:
  SimClock* clock_ = nullptr;
  uint64_t owner_ = 0;
};

}  // namespace hyperion

#endif  // SRC_UTIL_SIM_CLOCK_H_

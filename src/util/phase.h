// Phase-capability tokens for the staged execution core (DESIGN.md §8/§9).
//
// The run loop alternates between three regimes:
//
//   * execute — vCPU slices running concurrently on worker lanes. All
//     cross-VM side effects (clock events, switch frames, frame decrefs,
//     wakes) must be *staged* into per-slice buffers.
//   * commit  — the host thread merging staged buffers at the round barrier,
//     in deterministic dispatch order.
//   * serial  — everything else: setup, teardown, clock callbacks, the
//     inter-round portions of Host::RunFor, tests.
//
// PR 5 enforced this split dynamically (thread-local stages + TSan). The
// token types below turn it into a *compile-time* discipline: direct-effect
// APIs demand `const DirectPhase&` (of which CommitPhase and SerialPhase are
// the only concrete kinds), and the constructors are private to the host
// run loop — code running on a worker lane holds an ExecutePhase and has no
// way to manufacture the direct token that `SimClock::ScheduleOwned` or
// `VirtualSwitch::Send` require, so a forgotten staging call is a type error
// instead of a latent race. tests/negcompile/ pins this property.
//
// Tokens are evidence, not mechanism: the thread-local stage routing from
// PR 5 is unchanged underneath, and TSan still guards what the type system
// cannot see (see DESIGN.md §9 for the split).
//
// Lanes, and dual-context code (device completions, migrate demand-fetch)
// that runs both inside slices and from serial callbacks, take
// `const Phase&` and call the `const Phase&` entry of each effect
// (ClockRef::ScheduleAt, VirtualSwitch::Transmit, FramePool::DecRef,
// Host::WakeVcpu). It shares one leaf with the direct-only entry, and the
// leaf stages or acts by the thread-local stage.
//
// The one sanctioned acquisition point outside the run loop is
// ScopedSerialPhase, whose constructor asserts at runtime that the thread is
// not inside an execute phase: the capability is checked once where it is
// minted, and propagated statically everywhere else.

#ifndef SRC_UTIL_PHASE_H_
#define SRC_UTIL_PHASE_H_

#include <cassert>

namespace hyperion {

namespace core {
class Host;
class TimeDomain;
}  // namespace core

class ExecutePhase;
class DirectPhase;

// Common base: carries only the execute/direct discriminator so
// dual-context code can dispatch. Non-copyable — a token names the dynamic
// extent of a phase, it is not a value.
class Phase {
 public:
  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;

  bool execute() const { return execute_; }

  // Downcasts for code that checks its regime; exactly one is non-null.
  const ExecutePhase* AsExecute() const;
  const DirectPhase* AsDirect() const;

 protected:
  explicit Phase(bool execute) : execute_(execute) {}
  ~Phase() = default;

 private:
  const bool execute_;
};

// Held by a worker lane for the duration of one vCPU slice. Grants access to
// staging APIs only. Minted exclusively by Host::ExecuteSlice; its lifetime
// also marks the thread as "inside execute" so ScopedSerialPhase can reject
// acquisition from a lane.
class ExecutePhase final : public Phase {
 private:
  ExecutePhase() : Phase(true) {
    assert(!tls_in_execute_);
    tls_in_execute_ = true;
  }
  ~ExecutePhase() { tls_in_execute_ = false; }

  static inline thread_local bool tls_in_execute_ = false;

  friend class core::Host;
  friend class ScopedSerialPhase;
};

// Base for the two direct-effect tokens. APIs that mutate shared state
// immediately (schedule on the live queue, deliver a frame, drop a frame
// refcount in place) take `const DirectPhase&`; worker lanes can never
// obtain one.
class DirectPhase : public Phase {
 protected:
  DirectPhase() : Phase(false) {}
  ~DirectPhase() = default;
};

// Held by the host thread while merging staged buffers at the round barrier.
// Minted exclusively by the domain round loop (TimeDomain::RunRound; Host
// retains friendship for its commit helpers).
class CommitPhase final : public DirectPhase {
 private:
  CommitPhase() = default;
  friend class core::Host;
  friend class core::TimeDomain;
};

// Held by single-threaded code between rounds: clock callbacks (every
// EventQueue::Callback receives one), setup/teardown, tests. Minted by the
// domain run loop, by Host, and by ScopedSerialPhase.
class SerialPhase final : public DirectPhase {
 private:
  SerialPhase() = default;
  friend class core::Host;
  friend class core::TimeDomain;
  friend class ScopedSerialPhase;
};

// Runtime-checked acquisition of a SerialPhase for code that is serial by
// construction but outside the run loop's static reach: test bodies,
// example mains, teardown paths, and the transparent-COW fallback in
// GuestMemory::Write. The assert is the single dynamic check backing the
// otherwise-static discipline — constructing one on a worker lane (inside
// an ExecutePhase) is a bug.
class ScopedSerialPhase {
 public:
  ScopedSerialPhase() { assert(!ExecutePhase::tls_in_execute_); }

  ScopedSerialPhase(const ScopedSerialPhase&) = delete;
  ScopedSerialPhase& operator=(const ScopedSerialPhase&) = delete;

  const SerialPhase& get() const { return phase_; }
  // NOLINTNEXTLINE(google-explicit-constructor): reads as the token itself.
  operator const SerialPhase&() const { return phase_; }

 private:
  SerialPhase phase_;
};

inline const ExecutePhase* Phase::AsExecute() const {
  return execute_ ? static_cast<const ExecutePhase*>(this) : nullptr;
}

inline const DirectPhase* Phase::AsDirect() const {
  return execute_ ? nullptr : static_cast<const DirectPhase*>(this);
}

}  // namespace hyperion

#endif  // SRC_UTIL_PHASE_H_

// MUST NOT COMPILE: direct clock scheduling from inside an execute slice.
//
// SimClock::ScheduleAt demands a DirectPhase token. The only phase evidence
// code running on a worker lane holds is the slice's ExecutePhase, which is
// deliberately not convertible — slice code must stage via the dual-context
// ClockRef::ScheduleAt(const Phase&, ...) so the event lands in the
// per-slice buffer and commits in dispatch order.

#include "src/util/phase.h"
#include "src/util/sim_clock.h"

namespace hyperion {

void Violation(const ExecutePhase& ep, SimClock& clock) {
  clock.ScheduleAt(ep, 100, [](const SerialPhase&) {});
}

}  // namespace hyperion

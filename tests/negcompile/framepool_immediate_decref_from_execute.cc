// MUST NOT COMPILE: immediate frame refcount drop from inside an execute
// slice.
//
// FramePool::DecRefImmediate demands a DirectPhase token: dropping a
// refcount in place from a worker lane races the commit-ordered DecRefs of
// other slices and can free a frame another lane still reads. Slice code
// stages through DecRef(const Phase&, ...) instead.

#include "src/mem/frame_pool.h"
#include "src/util/phase.h"

namespace hyperion {

void Violation(const ExecutePhase& ep, mem::FramePool& pool, mem::HostFrame f) {
  pool.DecRefImmediate(ep, f);
}

}  // namespace hyperion

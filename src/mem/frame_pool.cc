#include "src/mem/frame_pool.h"

#include <cassert>
#include <cstring>
#include <new>

namespace hyperion::mem {

FramePool::FramePool(size_t num_frames)
    : memory_(static_cast<uint8_t*>(std::calloc(num_frames, isa::kPageSize))),
      refcount_(num_frames, 0),
      free_count_(num_frames) {
  if (memory_ == nullptr && num_frames != 0) {  // fail as operator new would
    throw std::bad_alloc();
  }
}

Result<HostFrame> FramePool::Allocate() {
  std::lock_guard<std::mutex> lock(mu_);
  if (free_count_ == 0) {
    return ResourceExhaustedError("host frame pool exhausted");
  }
  // Next-fit scan; wraps once.
  size_t n = refcount_.size();
  for (size_t step = 0; step < n; ++step) {
    size_t i = (alloc_cursor_ + step) % n;
    if (refcount_[i] == 0) {
      alloc_cursor_ = (i + 1) % n;
      refcount_[i] = 1;
      --free_count_;
      std::memset(memory_.get() + i * isa::kPageSize, 0, isa::kPageSize);
      return static_cast<HostFrame>(i);
    }
  }
  return InternalError("free_count_ positive but no free frame found");
}

void FramePool::DecRef(const Phase&, HostFrame frame) {
  Stage* s = tls_stage_;
  if (s != nullptr && s->pool == this) {
    assert(IsAllocated(frame));
    s->decrefs.push_back(frame);
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  DecRefLocked(frame);
}

void FramePool::DecRefImmediate(const DirectPhase&, HostFrame frame) {
  std::lock_guard<std::mutex> lock(mu_);
  DecRefLocked(frame);
}

void FramePool::CommitStage(const CommitPhase&, Stage& stage) {
  if (stage.decrefs.empty()) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (HostFrame frame : stage.decrefs) {
    DecRefLocked(frame);
  }
  stage.decrefs.clear();
}

void FramePool::DecRefLocked(HostFrame frame) {
  assert(IsAllocated(frame));
  if (--refcount_[frame] == 0) {
    ++free_count_;
  }
}

void FramePool::AddRef(const DirectPhase&, HostFrame frame) {
  std::lock_guard<std::mutex> lock(mu_);
  assert(IsAllocated(frame));
  ++refcount_[frame];
}

uint32_t FramePool::RefCount(HostFrame frame) const HYP_NO_THREAD_SAFETY_ANALYSIS {
  assert(frame < refcount_.size());
  return refcount_[frame];
}

uint8_t* FramePool::FrameData(HostFrame frame) {
  assert(IsAllocated(frame));
  return memory_.get() + static_cast<size_t>(frame) * isa::kPageSize;
}

const uint8_t* FramePool::FrameData(HostFrame frame) const {
  assert(IsAllocated(frame));
  return memory_.get() + static_cast<size_t>(frame) * isa::kPageSize;
}

}  // namespace hyperion::mem

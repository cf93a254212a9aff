// Host physical memory: a pool of 4 KiB frames shared by every VM on a host.
//
// Frames are reference-counted so that content-based page sharing (src/ksm)
// can map one host frame into several guests copy-on-write. Every allocated
// frame is guest memory: its refcount equals the number of guest pages that
// map it (the frame-accounting audit checks this). Network payloads own heap
// bytes (net::FrameBuf) and never draw on the pool.
//
// Concurrency (DESIGN.md §8): during a round of the staged execution core,
// worker threads may Allocate (COW break, balloon deflate) and stage DecRefs
// (COW break, balloon inflate); Allocate/AddRef take the pool mutex, DecRef
// is deferred into a per-slice Stage and applied at the round barrier in
// deterministic commit order. Because AddRef only ever happens at barriers
// (KSM scans, snapshot restore) and DecRefs are deferred, every refcount a
// slice can observe is stable for the whole round — sharing decisions do not
// depend on worker interleaving. Frame *numbers* handed out by Allocate may
// vary with interleaving, but frame numbering is invisible to guest-visible
// state; the one observable caveat is allocation-failure attribution when
// the pool runs dry mid-round, which is schedule-dependent.
//
// Phase discipline (DESIGN.md §9): every call that changes a refcount after
// allocation carries a phase token. The immediate-effect entry points
// (DecRefImmediate, AddRef) demand a direct-phase token that worker lanes
// cannot hold; lanes, and code that runs in both regimes (GuestMemory's COW
// break), drop references through DecRef(const Phase&, ...), which stages
// inside a slice.

#ifndef SRC_MEM_FRAME_POOL_H_
#define SRC_MEM_FRAME_POOL_H_

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <vector>

#include "src/isa/hv32.h"
#include "src/util/bitmap.h"
#include "src/util/phase.h"
#include "src/util/status.h"
#include "src/util/thread_annotations.h"

namespace hyperion::mem {

// Index of a host physical frame within a FramePool.
using HostFrame = uint32_t;
inline constexpr HostFrame kInvalidFrame = UINT32_MAX;

class FramePool {
 public:
  // A pool holding `num_frames` 4 KiB frames (all initially free).
  explicit FramePool(size_t num_frames);

  FramePool(const FramePool&) = delete;
  FramePool& operator=(const FramePool&) = delete;

  // Per-slice staging buffer for deferred DecRefs (see the file comment).
  struct Stage {
    FramePool* pool = nullptr;
    std::vector<HostFrame> decrefs;
  };

  // Installs `stage` as the current thread's staging buffer (nullptr to
  // clear). Only the host run loop does this, around each slice.
  static void SetStage(const ExecutePhase&, Stage* stage) { tls_stage_ = stage; }

  // Applies a slice's staged DecRefs, in staging order (round barrier).
  void CommitStage(const CommitPhase&, Stage& stage);

  // Allocates a zeroed frame with refcount 1.
  Result<HostFrame> Allocate();

  // Drops one reference. Inside an executing slice it is deferred into the
  // slice's Stage and applied at the round barrier; otherwise it drops in
  // place (GuestMemory COW break / balloon paths run in both regimes).
  void DecRef(const Phase&, HostFrame frame);

  // Drops one reference in place; the frame returns to the free list at
  // refcount 0. Serial/commit phases only.
  void DecRefImmediate(const DirectPhase&, HostFrame frame);

  // Adds a reference (page-sharing). Barrier-only: demands a direct token.
  void AddRef(const DirectPhase&, HostFrame frame);

  // Deliberately lockless (see mu_'s comment): reachable refcounts are
  // round-stable, which the analysis cannot see.
  uint32_t RefCount(HostFrame frame) const HYP_NO_THREAD_SAFETY_ANALYSIS;

  uint8_t* FrameData(HostFrame frame);
  const uint8_t* FrameData(HostFrame frame) const;

  size_t total_frames() const HYP_NO_THREAD_SAFETY_ANALYSIS { return refcount_.size(); }
  size_t free_frames() const HYP_NO_THREAD_SAFETY_ANALYSIS { return free_count_; }
  size_t used_frames() const { return total_frames() - free_frames(); }

 private:
  // Lockless like RefCount: used on the staged DecRef path (assert only).
  bool IsAllocated(HostFrame frame) const HYP_NO_THREAD_SAFETY_ANALYSIS {
    return frame < refcount_.size() && refcount_[frame] > 0;
  }

  void DecRefLocked(HostFrame frame) HYP_REQUIRES(mu_);

  static inline thread_local Stage* tls_stage_ = nullptr;

  // Guards refcount_/free_count_/alloc_cursor_ against concurrent Allocate
  // calls from slices. RefCount reads are deliberately lockless: the only
  // refcounts a slice can reach are those of frames mapped somewhere, and
  // these are round-stable (see the file comment).
  mutable std::mutex mu_;

  // calloc-backed so host RAM is committed only as frames are first touched;
  // Allocate still zeroes each frame it hands out.
  struct FreeDeleter {
    void operator()(uint8_t* p) const { std::free(p); }
  };
  std::unique_ptr<uint8_t[], FreeDeleter> memory_;
  std::vector<uint32_t> refcount_ HYP_GUARDED_BY(mu_);
  size_t free_count_ HYP_GUARDED_BY(mu_);
  size_t alloc_cursor_ HYP_GUARDED_BY(mu_) = 0;  // next-fit scan position
};

}  // namespace hyperion::mem

#endif  // SRC_MEM_FRAME_POOL_H_

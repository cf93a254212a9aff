// FrameBuf: the refcounted payload buffer behind net::Frame (DESIGN.md §10).
//
// A frame gathered from guest TX memory is written into a FrameBuf once and
// then travels by handle: VirtualSwitch staging, Link scheduling, fault
// injection (drop/duplicate/delay all copy or discard handles, never bytes),
// and the staged-core TxStage commit all share the same storage. The scatter
// into the receiving guest's RX chain is the only second touch of the bytes.
//
// Storage comes from the host FramePool when one is available — up to
// kMaxChunks non-contiguous 4 KiB host frames, enough for a jumbo frame —
// and falls back to a heap vector when the pool is exhausted or absent
// (unit tests, frames built outside a VM). Pool-backed storage is released
// through FramePool::Release, which stages the decref when the last
// handle dies inside an execute slice; that keeps pool state bit-identical
// across worker counts even though handle lifetimes end on worker threads.
//
// Handles are cheap to copy (one shared_ptr); the control block's atomic
// refcount makes cross-thread handle copies safe without further locking.
// The bytes themselves are written only by the producer before the first
// handoff — everything downstream reads.

#ifndef SRC_NET_FRAME_BUF_H_
#define SRC_NET_FRAME_BUF_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/mem/frame_pool.h"

namespace hyperion::net {

class FrameBuf {
 public:
  // Enough 4 KiB chunks for kMaxFrameBytes (9216) of payload.
  static constexpr size_t kMaxChunks = 3;

  FrameBuf() = default;  // empty: size() == 0, no storage

  // Allocates `size` bytes, preferring `pool` frames; falls back to the heap
  // when the pool is null, exhausted, or `size` exceeds kMaxChunks pages.
  // Contents are uninitialized — callers fill every byte before handoff.
  static FrameBuf Allocate(mem::FramePool* pool, size_t size);

  // Heap-backed construction for tests and devices without a pool.
  void Assign(const uint8_t* data, size_t n);
  void Assign(size_t n, uint8_t value);

  size_t size() const { return s_ ? s_->size : 0; }
  bool empty() const { return size() == 0; }
  bool pool_backed() const { return s_ && s_->pool != nullptr; }
  long use_count() const { return s_.use_count(); }

  // The storage as a sequence of contiguous spans (1 for heap-backed, up to
  // kMaxChunks for pool-backed). Writers iterate chunks; the last chunk may
  // be partial.
  size_t num_chunks() const;
  std::span<uint8_t> chunk(size_t i);
  std::span<const uint8_t> chunk(size_t i) const;

  uint8_t operator[](size_t i) const;
  void set_byte(size_t i, uint8_t v);

  // Copies min(n, size()) bytes to dst.
  void CopyTo(uint8_t* dst, size_t n) const;

 private:
  struct Storage {
    Storage() = default;
    Storage(const Storage&) = delete;
    Storage& operator=(const Storage&) = delete;
    ~Storage();  // releases pool frames via FramePool::Release

    mem::FramePool* pool = nullptr;  // null => heap-backed
    std::array<mem::HostFrame, kMaxChunks> frames{};
    uint32_t nframes = 0;
    std::vector<uint8_t> heap;
    size_t size = 0;
  };

  std::shared_ptr<Storage> s_;
};

}  // namespace hyperion::net

#endif  // SRC_NET_FRAME_BUF_H_

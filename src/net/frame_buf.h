// FrameBuf: the refcounted payload buffer behind net::Frame (DESIGN.md §10).
//
// A frame gathered from guest TX memory is written into a FrameBuf once and
// then travels by handle: VirtualSwitch staging, Link scheduling, fault
// injection (drop/duplicate/delay all copy or discard handles, never bytes),
// and the staged-core TxStage commit all share the same storage. The scatter
// into the receiving guest's RX chain is the only second touch of the bytes.
//
// The bytes live in one contiguous heap block owned by the handles, never in
// a host FramePool: host frames are guest memory, and a payload's lifetime
// (which may end on any worker thread, in any host's event queue or RX
// backlog) is tied to nothing but its last handle.
//
// Handles are cheap to copy (one shared_ptr); the control block's atomic
// refcount makes cross-thread handle copies safe without further locking.
// The bytes themselves are written only by the producer before the first
// handoff — everything downstream reads.

#ifndef SRC_NET_FRAME_BUF_H_
#define SRC_NET_FRAME_BUF_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>

namespace hyperion::net {

class FrameBuf {
 public:
  FrameBuf() = default;  // empty: size() == 0, no storage

  // Allocates `size` bytes. Contents are uninitialized — callers fill every
  // byte before handoff.
  static FrameBuf Allocate(size_t size) {
    FrameBuf buf;
    buf.bytes_ = std::make_shared_for_overwrite<uint8_t[]>(size);
    buf.size_ = size;
    return buf;
  }

  void Assign(const uint8_t* data, size_t n) {
    *this = Allocate(n);
    std::copy_n(data, n, bytes_.get());
  }
  void Assign(size_t n, uint8_t value) {
    *this = Allocate(n);
    std::fill_n(bytes_.get(), n, value);
  }

  // data()[0, size()) is the payload.
  uint8_t* data() { return bytes_.get(); }
  const uint8_t* data() const { return bytes_.get(); }
  size_t size() const { return size_; }
  long use_count() const { return bytes_.use_count(); }

  uint8_t operator[](size_t i) const {
    assert(i < size_);
    return bytes_[i];
  }
  void set_byte(size_t i, uint8_t v) {
    assert(i < size_);
    bytes_[i] = v;
  }

  // Copies min(n, size()) bytes to dst.
  void CopyTo(uint8_t* dst, size_t n) const { std::copy_n(bytes_.get(), std::min(n, size_), dst); }

 private:
  std::shared_ptr<uint8_t[]> bytes_;
  size_t size_ = 0;
};

}  // namespace hyperion::net

#endif  // SRC_NET_FRAME_BUF_H_

#include "src/net/frame_buf.h"

#include <cassert>
#include <cstring>

namespace hyperion::net {

FrameBuf::Storage::~Storage() {
  if (pool != nullptr) {
    for (uint32_t i = 0; i < nframes; ++i) {
      pool->Release(frames[i]);
    }
  }
}

FrameBuf FrameBuf::Allocate(mem::FramePool* pool, size_t size) {
  FrameBuf buf;
  buf.s_ = std::make_shared<Storage>();
  buf.s_->size = size;
  size_t need = (size + isa::kPageSize - 1) / isa::kPageSize;
  if (pool != nullptr && need <= kMaxChunks) {
    Storage& s = *buf.s_;
    s.pool = pool;
    bool ok = true;
    for (size_t i = 0; i < need; ++i) {
      auto frame = pool->AllocateNetBuf();
      if (!frame.ok()) {
        ok = false;
        break;
      }
      s.frames[s.nframes++] = *frame;
    }
    if (ok) {
      return buf;
    }
    // Pool exhausted mid-allocation: give the partial frames back and fall
    // through to the heap so frame construction never fails.
    for (uint32_t i = 0; i < s.nframes; ++i) {
      pool->Release(s.frames[i]);
    }
    s.nframes = 0;
    s.pool = nullptr;
  }
  buf.s_->heap.resize(size);
  return buf;
}

void FrameBuf::Assign(const uint8_t* data, size_t n) {
  s_ = std::make_shared<Storage>();
  s_->size = n;
  s_->heap.assign(data, data + n);
}

void FrameBuf::Assign(size_t n, uint8_t value) {
  s_ = std::make_shared<Storage>();
  s_->size = n;
  s_->heap.assign(n, value);
}

size_t FrameBuf::num_chunks() const {
  if (!s_ || s_->size == 0) {
    return 0;
  }
  if (s_->pool == nullptr) {
    return 1;
  }
  return s_->nframes;
}

std::span<uint8_t> FrameBuf::chunk(size_t i) {
  assert(s_ && i < num_chunks());
  Storage& s = *s_;
  if (s.pool == nullptr) {
    return {s.heap.data(), s.size};
  }
  size_t off = i * isa::kPageSize;
  size_t len = s.size - off < isa::kPageSize ? s.size - off : isa::kPageSize;
  return {s.pool->FrameData(s.frames[i]), len};
}

std::span<const uint8_t> FrameBuf::chunk(size_t i) const {
  assert(s_ && i < num_chunks());
  const Storage& s = *s_;
  if (s.pool == nullptr) {
    return {s.heap.data(), s.size};
  }
  size_t off = i * isa::kPageSize;
  size_t len = s.size - off < isa::kPageSize ? s.size - off : isa::kPageSize;
  return {s.pool->FrameData(s.frames[i]), len};
}

uint8_t FrameBuf::operator[](size_t i) const {
  assert(s_ && i < s_->size);
  const Storage& s = *s_;
  if (s.pool == nullptr) {
    return s.heap[i];
  }
  return s.pool->FrameData(s.frames[i / isa::kPageSize])[i % isa::kPageSize];
}

void FrameBuf::set_byte(size_t i, uint8_t v) {
  assert(s_ && i < s_->size);
  Storage& s = *s_;
  if (s.pool == nullptr) {
    s.heap[i] = v;
    return;
  }
  s.pool->FrameData(s.frames[i / isa::kPageSize])[i % isa::kPageSize] = v;
}

void FrameBuf::CopyTo(uint8_t* dst, size_t n) const {
  size_t total = n < size() ? n : size();
  size_t off = 0;
  for (size_t c = 0; c < num_chunks() && off < total; ++c) {
    std::span<const uint8_t> span = chunk(c);
    size_t take = span.size() < total - off ? span.size() : total - off;
    std::memcpy(dst + off, span.data(), take);
    off += take;
  }
}

}  // namespace hyperion::net

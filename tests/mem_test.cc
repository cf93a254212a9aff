// Tests for host frame pool and guest memory: allocation, refcounting,
// byte access, dirty logging, ballooning primitives, COW.

#include <gtest/gtest.h>

#include <cstring>

#include "src/mem/frame_pool.h"
#include "tests/test_phase.h"
#include "src/mem/guest_memory.h"
#include "src/util/rng.h"

namespace hyperion::mem {
namespace {

using isa::kPageSize;

TEST(FramePoolTest, AllocateAndFree) {
  FramePool pool(4);
  EXPECT_EQ(pool.free_frames(), 4u);
  auto a = pool.Allocate();
  auto b = pool.Allocate();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(*a, *b);
  EXPECT_EQ(pool.used_frames(), 2u);
  pool.DecRef(TestPhase(), *a);
  EXPECT_EQ(pool.used_frames(), 1u);
}

TEST(FramePoolTest, ExhaustionIsReported) {
  FramePool pool(2);
  ASSERT_TRUE(pool.Allocate().ok());
  ASSERT_TRUE(pool.Allocate().ok());
  auto r = pool.Allocate();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST(FramePoolTest, FramesAreZeroedOnAllocate) {
  FramePool pool(2);
  auto a = pool.Allocate();
  ASSERT_TRUE(a.ok());
  pool.FrameData(*a)[0] = 0xFF;
  pool.FrameData(*a)[kPageSize - 1] = 0xFF;
  pool.DecRef(TestPhase(), *a);
  // The same frame comes back (next-fit wraps) and must be clean.
  auto b = pool.Allocate();
  auto c = pool.Allocate();
  for (HostFrame f : {*b, *c}) {
    EXPECT_EQ(pool.FrameData(f)[0], 0);
    EXPECT_EQ(pool.FrameData(f)[kPageSize - 1], 0);
  }
}

TEST(FramePoolTest, RefCountingKeepsFrameAlive) {
  FramePool pool(2);
  auto f = pool.Allocate();
  ASSERT_TRUE(f.ok());
  pool.AddRef(TestPhase(), *f);
  EXPECT_EQ(pool.RefCount(*f), 2u);
  pool.DecRef(TestPhase(), *f);
  EXPECT_EQ(pool.used_frames(), 1u);  // still alive
  pool.DecRef(TestPhase(), *f);
  EXPECT_EQ(pool.used_frames(), 0u);
}

TEST(GuestMemoryTest, CreateValidation) {
  FramePool pool(16);
  EXPECT_FALSE(GuestMemory::Create(&pool, 0).ok());
  EXPECT_FALSE(GuestMemory::Create(&pool, 100).ok());  // not page aligned
  EXPECT_FALSE(GuestMemory::Create(&pool, 1u << 20).ok());  // pool too small
  auto m = GuestMemory::Create(&pool, 8 * kPageSize);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ((*m)->num_pages(), 8u);
  EXPECT_EQ(pool.used_frames(), 8u);
}

TEST(GuestMemoryTest, DestructorReturnsFrames) {
  FramePool pool(16);
  {
    auto m = GuestMemory::Create(&pool, 8 * kPageSize);
    ASSERT_TRUE(m.ok());
  }
  EXPECT_EQ(pool.used_frames(), 0u);
}

TEST(GuestMemoryTest, ReadWriteCrossesPages) {
  FramePool pool(16);
  auto m = GuestMemory::Create(&pool, 4 * kPageSize);
  ASSERT_TRUE(m.ok());
  std::vector<uint8_t> data(kPageSize + 100);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 7);
  }
  uint32_t gpa = kPageSize - 50;  // straddles a boundary
  ASSERT_TRUE((*m)->Write(gpa, data.data(), data.size()).ok());
  std::vector<uint8_t> back(data.size());
  ASSERT_TRUE((*m)->Read(gpa, back.data(), back.size()).ok());
  EXPECT_EQ(back, data);
}

TEST(GuestMemoryTest, OutOfRangeRejected) {
  FramePool pool(16);
  auto m = GuestMemory::Create(&pool, 2 * kPageSize);
  ASSERT_TRUE(m.ok());
  uint8_t b = 0;
  EXPECT_EQ((*m)->Read(2 * kPageSize, &b, 1).code(), StatusCode::kOutOfRange);
  EXPECT_EQ((*m)->Write(2 * kPageSize - 1, &b, 2).code(), StatusCode::kOutOfRange);
  EXPECT_TRUE((*m)->Write(2 * kPageSize - 1, &b, 1).ok());
}

TEST(GuestMemoryTest, ScalarAccessors) {
  FramePool pool(16);
  auto m = GuestMemory::Create(&pool, 2 * kPageSize);
  ASSERT_TRUE(m.ok());
  ASSERT_TRUE((*m)->WriteU32(100, 0xAABBCCDD).ok());
  EXPECT_EQ(*(*m)->ReadU32(100), 0xAABBCCDDu);
  EXPECT_EQ(*(*m)->ReadU16(100), 0xCCDDu);
  EXPECT_EQ(*(*m)->ReadU8(103), 0xAAu);
}

TEST(GuestMemoryTest, DirtyLogging) {
  FramePool pool(16);
  auto mm = GuestMemory::Create(&pool, 8 * kPageSize);
  ASSERT_TRUE(mm.ok());
  GuestMemory& m = **mm;

  // Writes before logging are not recorded.
  ASSERT_TRUE(m.WriteU32(0, 1).ok());
  m.EnableDirtyLog();
  EXPECT_EQ(m.DirtyCount(), 0u);

  EXPECT_TRUE(m.MarkDirty(3));   // first write: true
  EXPECT_FALSE(m.MarkDirty(3));  // second: false
  ASSERT_TRUE(m.WriteU32(5 * kPageSize, 7).ok());
  EXPECT_EQ(m.DirtyCount(), 2u);

  Bitmap harvest = m.HarvestDirty();
  EXPECT_EQ(harvest.SetBits(), (std::vector<size_t>{3, 5}));
  EXPECT_EQ(m.DirtyCount(), 0u);
  EXPECT_TRUE(m.MarkDirty(3));  // dirties again after harvest
}

TEST(GuestMemoryTest, BalloonReleaseAndPopulate) {
  FramePool pool(16);
  auto mm = GuestMemory::Create(&pool, 8 * kPageSize);
  ASSERT_TRUE(mm.ok());
  GuestMemory& m = **mm;

  size_t used_before = pool.used_frames();
  ASSERT_TRUE(m.ReleasePage(TestPhase(), 2).ok());
  EXPECT_EQ(pool.used_frames(), used_before - 1);
  EXPECT_FALSE(m.IsPresent(2));
  EXPECT_EQ(m.ReleasePage(TestPhase(), 2).code(), StatusCode::kFailedPrecondition);

  uint8_t b;
  EXPECT_FALSE(m.Read(2 * kPageSize, &b, 1).ok());

  ASSERT_TRUE(m.PopulatePage(2).ok());
  EXPECT_TRUE(m.IsPresent(2));
  EXPECT_EQ(*m.ReadU8(2 * kPageSize), 0u);  // fresh page is zeroed
  EXPECT_EQ(m.PopulatePage(2).code(), StatusCode::kFailedPrecondition);
}

TEST(GuestMemoryTest, SharingAndBreakSharing) {
  FramePool pool(32);
  auto a = GuestMemory::Create(&pool, 4 * kPageSize);
  auto b = GuestMemory::Create(&pool, 4 * kPageSize);
  ASSERT_TRUE(a.ok() && b.ok());
  GuestMemory& ma = **a;
  GuestMemory& mb = **b;

  // Simulate a KSM merge: both map the same frame.
  ASSERT_TRUE(ma.WriteU32(0, 0x1111).ok());
  HostFrame shared = ma.FrameForPage(0);
  ASSERT_TRUE(mb.RemapPage(TestPhase(), 0, shared).ok());
  ma.SetShared(0, true);
  mb.SetShared(0, true);
  EXPECT_EQ(pool.RefCount(shared), 2u);
  EXPECT_EQ(*mb.ReadU32(0), 0x1111u);

  // Break sharing on b: content copies, frames diverge.
  ASSERT_TRUE(mb.BreakSharing(TestPhase(), 0).ok());
  EXPECT_NE(mb.FrameForPage(0), shared);
  EXPECT_EQ(pool.RefCount(shared), 1u);
  EXPECT_EQ(*mb.ReadU32(0), 0x1111u);
  ASSERT_TRUE(mb.WriteU32(0, 0x2222).ok());
  EXPECT_EQ(*ma.ReadU32(0), 0x1111u);  // a unaffected

  EXPECT_EQ(mb.BreakSharing(TestPhase(), 0).code(), StatusCode::kFailedPrecondition);
}

TEST(GuestMemoryTest, WriteProtectFlags) {
  FramePool pool(16);
  auto mm = GuestMemory::Create(&pool, 4 * kPageSize);
  ASSERT_TRUE(mm.ok());
  GuestMemory& m = **mm;
  EXPECT_FALSE(m.IsWriteProtected(1));
  m.SetWriteProtected(1, true);
  EXPECT_TRUE(m.IsWriteProtected(1));
  EXPECT_EQ(m.WriteProtectedCount(), 1u);
  m.SetWriteProtected(1, false);
  EXPECT_EQ(m.WriteProtectedCount(), 0u);
}

// Property: random interleavings of release/populate/write keep the pool's
// accounting consistent with the guest's presence map.
TEST(GuestMemoryTest, PropertyBalloonAccountingConsistent) {
  FramePool pool(64);
  auto mm = GuestMemory::Create(&pool, 32 * kPageSize);
  ASSERT_TRUE(mm.ok());
  GuestMemory& m = **mm;
  Xoshiro256 rng(777);

  for (int step = 0; step < 500; ++step) {
    uint32_t gpn = static_cast<uint32_t>(rng.NextBelow(32));
    if (m.IsPresent(gpn)) {
      if (rng.NextBool(0.5)) {
        ASSERT_TRUE(m.ReleasePage(TestPhase(), gpn).ok());
      } else {
        ASSERT_TRUE(m.WriteU32(gpn * kPageSize, static_cast<uint32_t>(step)).ok());
      }
    } else {
      ASSERT_TRUE(m.PopulatePage(gpn).ok());
    }
    size_t present = 0;
    for (uint32_t i = 0; i < 32; ++i) {
      present += m.IsPresent(i);
    }
    EXPECT_EQ(pool.used_frames(), present);
  }
}

}  // namespace
}  // namespace hyperion::mem

// Unit tests for the util substrate: Status/Result, bitmap, byte streams,
// CRC32, RNG, simulated clock, statistics.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <set>
#include <vector>

#include "src/util/bitmap.h"
#include "src/util/byte_stream.h"
#include "src/util/crc32.h"
#include "src/util/histogram.h"
#include "src/util/rng.h"
#include "src/util/sim_clock.h"
#include "src/util/status.h"
#include "tests/test_phase.h"

namespace hyperion {
namespace {

// ---------------------------------------------------------------------------
// Status / Result
// ---------------------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = OutOfRangeError("gpa 0x100 past end");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOutOfRange);
  EXPECT_EQ(s.message(), "gpa 0x100 past end");
  EXPECT_EQ(s.ToString(), "OUT_OF_RANGE: gpa 0x100 past end");
}

TEST(StatusTest, AllConstructorsMapToCodes) {
  EXPECT_EQ(InvalidArgumentError("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(NotFoundError("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(AlreadyExistsError("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(ResourceExhaustedError("x").code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(FailedPreconditionError("x").code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(UnimplementedError("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(DataLossError("x").code(), StatusCode::kDataLoss);
  EXPECT_EQ(InternalError("x").code(), StatusCode::kInternal);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = NotFoundError("missing");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 7);
}

Result<int> Half(int x) {
  if (x % 2 != 0) {
    return InvalidArgumentError("odd");
  }
  return x / 2;
}

Result<int> Quarter(int x) {
  HYP_ASSIGN_OR_RETURN(int h, Half(x));
  HYP_ASSIGN_OR_RETURN(int q, Half(h));
  return q;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*Quarter(8), 2);
  EXPECT_EQ(Quarter(6).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Quarter(7).status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Bitmap
// ---------------------------------------------------------------------------

TEST(BitmapTest, SetClearTest) {
  Bitmap b(130);
  EXPECT_EQ(b.Count(), 0u);
  b.Set(0);
  b.Set(64);
  b.Set(129);
  EXPECT_TRUE(b.Test(0));
  EXPECT_TRUE(b.Test(64));
  EXPECT_TRUE(b.Test(129));
  EXPECT_FALSE(b.Test(1));
  EXPECT_EQ(b.Count(), 3u);
  b.Clear(64);
  EXPECT_FALSE(b.Test(64));
  EXPECT_EQ(b.Count(), 2u);
}

TEST(BitmapTest, FindFirstSetAcrossWords) {
  Bitmap b(200);
  EXPECT_EQ(b.FindFirstSet(), 200u);
  b.Set(130);
  EXPECT_EQ(b.FindFirstSet(), 130u);
  EXPECT_EQ(b.FindFirstSet(130), 130u);
  EXPECT_EQ(b.FindFirstSet(131), 200u);
}

TEST(BitmapTest, FindFirstClear) {
  Bitmap b(70);
  b.SetAll();
  EXPECT_EQ(b.FindFirstClear(), 70u);
  b.Clear(65);
  EXPECT_EQ(b.FindFirstClear(), 65u);
  EXPECT_EQ(b.FindFirstClear(66), 70u);
}

TEST(BitmapTest, SetAllRespectsSize) {
  Bitmap b(67);
  b.SetAll();
  EXPECT_EQ(b.Count(), 67u);
}

TEST(BitmapTest, SetBitsEnumerates) {
  Bitmap b(128);
  b.Set(3);
  b.Set(64);
  b.Set(127);
  EXPECT_EQ(b.SetBits(), (std::vector<size_t>{3, 64, 127}));
}

TEST(BitmapTest, ExchangeClearHarvests) {
  Bitmap b(64);
  b.Set(5);
  b.Set(42);
  Bitmap snap = b.ExchangeClear();
  EXPECT_EQ(b.Count(), 0u);
  EXPECT_EQ(snap.Count(), 2u);
  EXPECT_TRUE(snap.Test(5));
  EXPECT_TRUE(snap.Test(42));
}

TEST(BitmapTest, OrWithMerges) {
  Bitmap a(64), b(64);
  a.Set(1);
  b.Set(2);
  a.OrWith(b);
  EXPECT_TRUE(a.Test(1));
  EXPECT_TRUE(a.Test(2));
}

// Property: FindFirstSet agrees with a naive scan for random bitmaps.
TEST(BitmapTest, PropertyFindFirstMatchesNaive) {
  Xoshiro256 rng(1234);
  for (int trial = 0; trial < 50; ++trial) {
    size_t bits = 1 + rng.NextBelow(300);
    Bitmap b(bits);
    std::set<size_t> set_bits;
    for (size_t i = 0; i < bits / 3; ++i) {
      size_t idx = rng.NextBelow(bits);
      b.Set(idx);
      set_bits.insert(idx);
    }
    for (size_t from = 0; from < bits; from += 1 + rng.NextBelow(7)) {
      auto it = set_bits.lower_bound(from);
      size_t expect = it == set_bits.end() ? bits : *it;
      EXPECT_EQ(b.FindFirstSet(from), expect) << "bits=" << bits << " from=" << from;
    }
  }
}

// ---------------------------------------------------------------------------
// Byte streams
// ---------------------------------------------------------------------------

TEST(ByteStreamTest, RoundTripScalars) {
  ByteWriter w;
  w.WriteU8(0xAB);
  w.WriteU16(0x1234);
  w.WriteU32(0xDEADBEEF);
  w.WriteU64(0x0123456789ABCDEFull);

  ByteReader r(w.buffer());
  EXPECT_EQ(*r.ReadU8(), 0xAB);
  EXPECT_EQ(*r.ReadU16(), 0x1234);
  EXPECT_EQ(*r.ReadU32(), 0xDEADBEEFu);
  EXPECT_EQ(*r.ReadU64(), 0x0123456789ABCDEFull);
  EXPECT_TRUE(r.AtEnd());
}

TEST(ByteStreamTest, RoundTripBlobAndString) {
  ByteWriter w;
  std::vector<uint8_t> blob = {1, 2, 3, 4, 5};
  w.WriteBlob(blob);
  w.WriteString("hello");

  ByteReader r(w.buffer());
  EXPECT_EQ(*r.ReadBlob(), blob);
  EXPECT_EQ(*r.ReadString(), "hello");
  EXPECT_TRUE(r.AtEnd());
}

TEST(ByteStreamTest, TruncationIsDataLoss) {
  ByteWriter w;
  w.WriteU16(7);
  ByteReader r(w.buffer());
  EXPECT_EQ(r.ReadU32().status().code(), StatusCode::kDataLoss);
}

TEST(ByteStreamTest, BlobLengthPastEndIsDataLoss) {
  ByteWriter w;
  w.WriteU32(1000);  // claims 1000 bytes follow
  w.WriteU8(1);
  ByteReader r(w.buffer());
  EXPECT_EQ(r.ReadBlob().status().code(), StatusCode::kDataLoss);
}

TEST(ByteStreamTest, PatchU32BackPatches) {
  ByteWriter w;
  size_t at = w.size();
  w.WriteU32(0);
  w.WriteU32(0x11111111);
  w.PatchU32(at, 0x22222222);
  ByteReader r(w.buffer());
  EXPECT_EQ(*r.ReadU32(), 0x22222222u);
  EXPECT_EQ(*r.ReadU32(), 0x11111111u);
}

TEST(ByteStreamTest, SkipBoundsChecked) {
  ByteWriter w;
  w.WriteU32(1);
  ByteReader r(w.buffer());
  EXPECT_TRUE(r.Skip(4).ok());
  EXPECT_EQ(r.Skip(1).code(), StatusCode::kDataLoss);
}

// ---------------------------------------------------------------------------
// CRC32
// ---------------------------------------------------------------------------

TEST(Crc32Test, KnownVector) {
  // The canonical IEEE test vector.
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
}

TEST(Crc32Test, EmptyIsZero) { EXPECT_EQ(Crc32("", 0), 0u); }

TEST(Crc32Test, IncrementalMatchesOneShot) {
  const char data[] = "the quick brown fox jumps over the lazy dog";
  size_t n = sizeof(data) - 1;
  uint32_t whole = Crc32(data, n);
  for (size_t split = 0; split <= n; ++split) {
    uint32_t part = Crc32(data, split);
    uint32_t chained = Crc32(data + split, n - split, part);
    EXPECT_EQ(chained, whole) << "split=" << split;
  }
}

TEST(Crc32Test, DetectsSingleBitFlips) {
  uint8_t buf[64] = {};
  uint32_t base = Crc32(buf, sizeof(buf));
  for (int bit = 0; bit < 64 * 8; bit += 37) {
    buf[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    EXPECT_NE(Crc32(buf, sizeof(buf)), base);
    buf[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
  }
}

// The textbook bitwise CRC, one byte at a time: the oracle the table-driven
// Crc32 must match bit for bit (snapshot, HVD and HCT2 images carry it).
uint32_t BytewiseCrc32(const uint8_t* data, size_t size, uint32_t seed) {
  uint32_t crc = ~seed;
  for (size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ 0xEDB88320u : crc >> 1;
    }
  }
  return ~crc;
}

TEST(Crc32Test, MatchesBytewiseReference) {
  Xoshiro256 rng(20151004);
  std::vector<uint8_t> buf(5000 + 64);
  for (uint8_t& b : buf) {
    b = static_cast<uint8_t>(rng.Next());
  }
  for (int i = 0; i < 2000; ++i) {
    size_t len = rng.NextBelow(5001);
    size_t offset = rng.NextBelow(64);
    uint32_t seed = i % 4 == 0 ? 0u : static_cast<uint32_t>(rng.Next());
    ASSERT_EQ(Crc32(buf.data() + offset, len, seed),
              BytewiseCrc32(buf.data() + offset, len, seed))
        << "len=" << len << " offset=" << offset << " seed=" << seed;
  }
}

// ---------------------------------------------------------------------------
// RNG
// ---------------------------------------------------------------------------

TEST(RngTest, DeterministicForSeed) {
  Xoshiro256 a(99), b(99);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += a.Next() == b.Next();
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextBelowInRange) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(RngTest, NextInRangeInclusive) {
  Xoshiro256 rng(7);
  bool hit_lo = false, hit_hi = false;
  for (int i = 0; i < 2000; ++i) {
    uint64_t v = rng.NextInRange(3, 6);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 6u);
    hit_lo |= v == 3;
    hit_hi |= v == 6;
  }
  EXPECT_TRUE(hit_lo);
  EXPECT_TRUE(hit_hi);
}

TEST(RngTest, DoubleInUnitInterval) {
  Xoshiro256 rng(11);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, RoughUniformity) {
  Xoshiro256 rng(5);
  std::vector<int> buckets(10, 0);
  const int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    ++buckets[rng.NextBelow(10)];
  }
  for (int count : buckets) {
    EXPECT_NEAR(count, kDraws / 10, kDraws / 100);
  }
}

// ---------------------------------------------------------------------------
// SimClock
// ---------------------------------------------------------------------------

TEST(SimClockTest, StartsAtZeroAndAdvances) {
  SimClock clock;
  EXPECT_EQ(clock.now(), 0u);
  clock.Advance(TestPhase(), 100);
  EXPECT_EQ(clock.now(), 100u);
}

TEST(SimClockTest, EventsFireInTimeOrder) {
  SimClock clock;
  std::vector<int> order;
  clock.ScheduleAt(TestPhase(), 30, [&] { order.push_back(3); });
  clock.ScheduleAt(TestPhase(), 10, [&] { order.push_back(1); });
  clock.ScheduleAt(TestPhase(), 20, [&] { order.push_back(2); });
  clock.RunAll(TestPhase());
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(clock.now(), 30u);
}

TEST(SimClockTest, SameTimeEventsFifo) {
  SimClock clock;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    clock.ScheduleAt(TestPhase(), 50, [&order, i] { order.push_back(i); });
  }
  clock.RunAll(TestPhase());
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimClockTest, RunUntilStopsAtBoundary) {
  SimClock clock;
  int fired = 0;
  clock.ScheduleAt(TestPhase(), 10, [&] { ++fired; });
  clock.ScheduleAt(TestPhase(), 20, [&] { ++fired; });
  clock.RunUntil(TestPhase(), 15);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(clock.now(), 15u);
  clock.RunUntil(TestPhase(), 25);
  EXPECT_EQ(fired, 2);
}

TEST(SimClockTest, EventsCanScheduleEvents) {
  SimClock clock;
  int chain = 0;
  std::function<void()> step = [&] {
    if (++chain < 5) {
      clock.ScheduleAfter(TestPhase(), 10, step);
    }
  };
  clock.ScheduleAfter(TestPhase(), 10, step);
  clock.RunAll(TestPhase());
  EXPECT_EQ(chain, 5);
  EXPECT_EQ(clock.now(), 50u);
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

TEST(SummaryStatsTest, BasicMoments) {
  SummaryStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.Add(x);
  }
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.001);  // sample stddev
}

TEST(LogHistogramTest, PercentileMonotone) {
  LogHistogram h;
  Xoshiro256 rng(3);
  for (int i = 0; i < 10000; ++i) {
    h.Add(rng.NextBelow(100000));
  }
  EXPECT_LE(h.Percentile(0.5), h.Percentile(0.9));
  EXPECT_LE(h.Percentile(0.9), h.Percentile(0.99));
}

TEST(LogHistogramTest, ExactForConstants) {
  LogHistogram h;
  for (int i = 0; i < 100; ++i) {
    h.Add(1000);
  }
  // 1000 lands in bucket [512, 1023]; upper bound is 1023.
  EXPECT_EQ(h.Percentile(0.5), 1023u);
  EXPECT_DOUBLE_EQ(h.mean(), 1000.0);
}

TEST(JainFairnessTest, PerfectAndWorstCase) {
  EXPECT_DOUBLE_EQ(JainFairness({1, 1, 1, 1}), 1.0);
  EXPECT_DOUBLE_EQ(JainFairness({1, 0, 0, 0}), 0.25);
  double mid = JainFairness({2, 1, 1, 1});
  EXPECT_GT(mid, 0.25);
  EXPECT_LT(mid, 1.0);
}

}  // namespace
}  // namespace hyperion

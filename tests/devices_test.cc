// Device-level unit tests: MMIO bus dispatch, PIC, UART, emulated block and
// net devices, virtio rings (driven host-side without a CPU).

#include <gtest/gtest.h>

#include "src/devices/emulated_blk.h"
#include "tests/test_phase.h"
#include "src/devices/emulated_net.h"
#include "src/devices/mmio.h"
#include "src/devices/pic.h"
#include "src/devices/uart.h"
#include "src/mem/frame_pool.h"
#include "src/virtio/virtio_blk.h"
#include "src/virtio/virtio_console.h"
#include "src/virtio/virtio_net.h"

namespace hyperion {
namespace {

using devices::EmulatedBlockDevice;
using devices::EmulatedNetDevice;
using devices::InterruptController;
using devices::IrqLine;
using devices::MmioBus;
using devices::MmioDevice;
using devices::Uart;

// ---------------------------------------------------------------------------
// MmioBus
// ---------------------------------------------------------------------------

class StubDevice final : public MmioDevice {
 public:
  explicit StubDevice(std::string_view name) : name_(name) {}
  std::string_view name() const override { return name_; }
  Result<uint32_t> Read(uint32_t offset, uint32_t size) override {
    (void)size;
    return offset;
  }
  Status Write(const Phase& ph, uint32_t offset, uint32_t size, uint32_t value) override {
    (void)ph;
    (void)size;
    last_offset = offset;
    last_value = value;
    return OkStatus();
  }
  uint32_t last_offset = 0;
  uint32_t last_value = 0;

 private:
  std::string_view name_;
};

TEST(MmioBusTest, DispatchByRange) {
  MmioBus bus;
  StubDevice a("a"), b("b");
  ASSERT_TRUE(bus.Map(0xF0000000, 0x1000, &a).ok());
  ASSERT_TRUE(bus.Map(0xF0001000, 0x1000, &b).ok());

  EXPECT_EQ(*bus.MmioRead(0xF0000010, 4), 0x10u);
  ASSERT_TRUE(bus.MmioWrite(TestPhase(), 0xF0001020, 4, 77).ok());
  EXPECT_EQ(b.last_offset, 0x20u);
  EXPECT_EQ(b.last_value, 77u);
}

TEST(MmioBusTest, OverlapRejected) {
  MmioBus bus;
  StubDevice a("a"), b("b");
  ASSERT_TRUE(bus.Map(0xF0000000, 0x2000, &a).ok());
  EXPECT_EQ(bus.Map(0xF0001000, 0x1000, &b).code(), StatusCode::kAlreadyExists);
}

TEST(MmioBusTest, UnmappedIsNotFound) {
  MmioBus bus;
  EXPECT_EQ(bus.MmioRead(0xF0000000, 4).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(bus.MmioWrite(TestPhase(), 0xF0000000, 4, 0).code(), StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// InterruptController
// ---------------------------------------------------------------------------

TEST(PicTest, AssertEnableAckFlow) {
  InterruptController pic;
  bool level = false;
  pic.SetSink([&](const Phase& ph, bool l) {
    (void)ph;
    level = l;
  });

  pic.Assert(TestPhase(), 3);
  EXPECT_FALSE(level);  // not enabled yet
  ASSERT_TRUE(pic.Write(TestPhase(), 0x04, 4, 1u << 3).ok());
  EXPECT_TRUE(level);

  // CLAIM returns the line; ACK clears it.
  EXPECT_EQ(*pic.Read(0x10, 4), 3u);
  ASSERT_TRUE(pic.Write(TestPhase(), 0x08, 4, 1u << 3).ok());
  EXPECT_FALSE(level);
  EXPECT_EQ(*pic.Read(0x10, 4), 0xFFFFFFFFu);
}

TEST(PicTest, ClaimReturnsLowestActive) {
  InterruptController pic;
  ASSERT_TRUE(pic.Write(TestPhase(), 0x04, 4, 0xFF).ok());
  pic.Assert(TestPhase(), 5);
  pic.Assert(TestPhase(), 2);
  EXPECT_EQ(*pic.Read(0x10, 4), 2u);
}

TEST(PicTest, SoftwareRaise) {
  InterruptController pic;
  bool level = false;
  pic.SetSink([&](const Phase& ph, bool l) {
    (void)ph;
    level = l;
  });
  ASSERT_TRUE(pic.Write(TestPhase(), 0x04, 4, 0x3).ok());
  ASSERT_TRUE(pic.Write(TestPhase(), 0x0C, 4, 0x2).ok());  // RAISE line 1
  EXPECT_TRUE(level);
  EXPECT_EQ(pic.pending(), 2u);
}

TEST(PicTest, SerializeRoundTrip) {
  InterruptController pic;
  ASSERT_TRUE(pic.Write(TestPhase(), 0x04, 4, 0xAB).ok());
  pic.Assert(TestPhase(), 1);
  ByteWriter w;
  pic.Serialize(w);

  InterruptController restored;
  ByteReader r(w.buffer());
  ASSERT_TRUE(restored.Deserialize(TestPhase(), r).ok());
  EXPECT_EQ(restored.pending(), pic.pending());
  EXPECT_EQ(restored.enable(), pic.enable());
}

TEST(PicTest, WordOnlyAccess) {
  InterruptController pic;
  EXPECT_FALSE(pic.Read(0x00, 2).ok());
  EXPECT_FALSE(pic.Write(TestPhase(), 0x04, 1, 1).ok());
}

// ---------------------------------------------------------------------------
// UART
// ---------------------------------------------------------------------------

TEST(UartTest, TransmitCollectsOutput) {
  Uart uart;
  for (char c : std::string("ok\n")) {
    ASSERT_TRUE(uart.Write(TestPhase(), 0x00, 4, static_cast<uint32_t>(c)).ok());
  }
  EXPECT_EQ(uart.output(), "ok\n");
}

TEST(UartTest, ReceivePath) {
  InterruptController pic;
  Uart uart(IrqLine(&pic, devices::kUartIrq));
  ASSERT_TRUE(pic.Write(TestPhase(), 0x04, 4, 1u << devices::kUartIrq).ok());
  ASSERT_TRUE(uart.Write(TestPhase(), 0x0C, 4, 1).ok());  // enable rx irq

  EXPECT_EQ(*uart.Read(0x08, 4) & 1u, 0u);  // no rx data
  uart.InjectInput(TestPhase(), "ab");
  EXPECT_EQ(pic.pending() & (1u << devices::kUartIrq), 1u << devices::kUartIrq);
  EXPECT_EQ(*uart.Read(0x08, 4) & 1u, 1u);
  EXPECT_EQ(*uart.Read(0x04, 4), static_cast<uint32_t>('a'));
  EXPECT_EQ(*uart.Read(0x04, 4), static_cast<uint32_t>('b'));
  EXPECT_EQ(*uart.Read(0x04, 4), 0u);  // empty reads zero
}

TEST(UartTest, SerializeRoundTrip) {
  Uart uart;
  ASSERT_TRUE(uart.Write(TestPhase(), 0x00, 4, 'x').ok());
  uart.InjectInput(TestPhase(), "queued");
  ByteWriter w;
  uart.Serialize(w);

  Uart restored;
  ByteReader r(w.buffer());
  ASSERT_TRUE(restored.Deserialize(TestPhase(), r).ok());
  EXPECT_EQ(restored.output(), "x");
  EXPECT_EQ(*restored.Read(0x04, 4), static_cast<uint32_t>('q'));
}

// ---------------------------------------------------------------------------
// Emulated block device (host-driven)
// ---------------------------------------------------------------------------

class EmuBlkTest : public ::testing::Test {
 protected:
  EmuBlkTest()
      : store_(64), dev_(&store_, IrqLine(&pic_, devices::kBlkIrq), &clock_) {
    (void)pic_.Write(TestPhase(), 0x04, 4, 1u << devices::kBlkIrq);
  }

  SimClock clock_;
  InterruptController pic_;
  storage::MemBlockStore store_;
  EmulatedBlockDevice dev_;
};

TEST_F(EmuBlkTest, WriteCommandPersists) {
  ASSERT_TRUE(dev_.Write(TestPhase(), 0x00, 4, 5).ok());  // LBA 5
  ASSERT_TRUE(dev_.Write(TestPhase(), 0x04, 4, 1).ok());  // one sector
  ASSERT_TRUE(dev_.Write(TestPhase(), 0x14, 4, 0).ok());  // rewind pointer
  for (uint32_t i = 0; i < 128; ++i) {
    ASSERT_TRUE(dev_.Write(TestPhase(), 0x10, 4, 0x1000 + i).ok());
  }
  ASSERT_TRUE(dev_.Write(TestPhase(), 0x08, 4, 2).ok());  // CMD write
  clock_.RunAll(TestPhase());
  EXPECT_EQ(*dev_.Read(0x0C, 4), 2u);        // data_ready, not busy

  uint8_t sector[512] = {};
  ASSERT_TRUE(store_.ReadSectors(5, 1, sector).ok());
  uint32_t w;
  std::memcpy(&w, sector, 4);
  EXPECT_EQ(w, 0x1000u);
  EXPECT_EQ(pic_.pending() & (1u << devices::kBlkIrq), 1u << devices::kBlkIrq);
}

TEST_F(EmuBlkTest, ReadCommandReturnsData) {
  uint8_t sector[512] = {0xAA, 0xBB, 0xCC, 0xDD};
  ASSERT_TRUE(store_.WriteSectors(7, 1, sector).ok());
  ASSERT_TRUE(dev_.Write(TestPhase(), 0x00, 4, 7).ok());
  ASSERT_TRUE(dev_.Write(TestPhase(), 0x04, 4, 1).ok());
  ASSERT_TRUE(dev_.Write(TestPhase(), 0x08, 4, 1).ok());  // CMD read
  clock_.RunAll(TestPhase());
  EXPECT_EQ(*dev_.Read(0x10, 4), 0xDDCCBBAAu);
}

TEST_F(EmuBlkTest, BadCountRejected) {
  EXPECT_FALSE(dev_.Write(TestPhase(), 0x04, 4, 0).ok());
  EXPECT_FALSE(dev_.Write(TestPhase(), 0x04, 4, 9).ok());
}

TEST_F(EmuBlkTest, OutOfRangeCommandSetsError) {
  ASSERT_TRUE(dev_.Write(TestPhase(), 0x00, 4, 63).ok());
  ASSERT_TRUE(dev_.Write(TestPhase(), 0x04, 4, 8).ok());  // 63..70 exceeds 64-sector disk
  ASSERT_TRUE(dev_.Write(TestPhase(), 0x08, 4, 1).ok());
  clock_.RunAll(TestPhase());
  EXPECT_EQ(*dev_.Read(0x0C, 4) & 4u, 4u);  // error bit
}

TEST_F(EmuBlkTest, DeferredCompletionWithClock) {
  ASSERT_TRUE(dev_.Write(TestPhase(), 0x00, 4, 0).ok());
  ASSERT_TRUE(dev_.Write(TestPhase(), 0x04, 4, 4).ok());
  ASSERT_TRUE(dev_.Write(TestPhase(), 0x08, 4, 1).ok());
  EXPECT_EQ(*dev_.Read(0x0C, 4) & 1u, 1u);  // busy
  clock_.RunAll(TestPhase());
  EXPECT_EQ(*dev_.Read(0x0C, 4) & 1u, 0u);  // done
  EXPECT_GE(clock_.now(), 4 * kCosts.blk_sector_cost);
}

TEST_F(EmuBlkTest, SerializeRoundTrip) {
  ASSERT_TRUE(dev_.Write(TestPhase(), 0x00, 4, 9).ok());
  ASSERT_TRUE(dev_.Write(TestPhase(), 0x04, 4, 3).ok());
  ByteWriter w;
  dev_.Serialize(w);
  EmulatedBlockDevice restored(&store_, IrqLine(&pic_, devices::kBlkIrq), &clock_);
  ByteReader r(w.buffer());
  ASSERT_TRUE(restored.Deserialize(TestPhase(), r).ok());
  EXPECT_EQ(*restored.Read(0x00, 4), 9u);
  EXPECT_EQ(*restored.Read(0x04, 4), 3u);
}

// ---------------------------------------------------------------------------
// Emulated net device + virtual switch (host-driven)
// ---------------------------------------------------------------------------

TEST(EmuNetTest, SendAndReceiveThroughSwitch) {
  SimClock clock;
  net::VirtualSwitch vswitch(&clock);
  InterruptController pic;
  EmulatedNetDevice a(&vswitch, 1, IrqLine(&pic, devices::kNetIrq));
  EmulatedNetDevice b(&vswitch, 2, IrqLine(&pic, devices::kNetIrq));
  ASSERT_TRUE(vswitch.Attach(TestPhase(), 1, &a).ok());
  ASSERT_TRUE(vswitch.Attach(TestPhase(), 2, &b).ok());

  // a sends 8 bytes to b.
  ASSERT_TRUE(a.Write(TestPhase(), 0x1C, 4, 0).ok());
  ASSERT_TRUE(a.Write(TestPhase(), 0x10, 4, 0x11111111).ok());
  ASSERT_TRUE(a.Write(TestPhase(), 0x10, 4, 0x22222222).ok());
  ASSERT_TRUE(a.Write(TestPhase(), 0x00, 4, 8).ok());
  ASSERT_TRUE(a.Write(TestPhase(), 0x04, 4, 2).ok());
  ASSERT_TRUE(a.Write(TestPhase(), 0x08, 4, 1).ok());
  EXPECT_EQ(a.stats().tx_frames, 1u);

  clock.RunAll(TestPhase());  // deliver
  EXPECT_EQ(b.stats().rx_frames, 1u);
  EXPECT_EQ(*b.Read(0x0C, 4) & 1u, 1u);  // rx available

  ASSERT_TRUE(b.Write(TestPhase(), 0x08, 4, 2).ok());  // pop
  EXPECT_EQ(*b.Read(0x14, 4), 8u);
  EXPECT_EQ(*b.Read(0x18, 4), 1u);
  EXPECT_EQ(*b.Read(0x10, 4), 0x11111111u);
  EXPECT_EQ(*b.Read(0x10, 4), 0x22222222u);
}

TEST(EmuNetTest, OversizedTxRejected) {
  SimClock clock;
  net::VirtualSwitch vswitch(&clock);
  InterruptController pic;
  EmulatedNetDevice a(&vswitch, 1, IrqLine(&pic, devices::kNetIrq));
  EXPECT_FALSE(a.Write(TestPhase(), 0x00, 4, EmulatedNetDevice::kBufBytes + 4).ok());
}

// ---------------------------------------------------------------------------
// Virtio rings (host-driven through guest memory)
// ---------------------------------------------------------------------------

class VirtioRingTest : public ::testing::Test {
 protected:
  VirtioRingTest() : pool_(512) {
    auto m = mem::GuestMemory::Create(&pool_, 1u << 20);
    EXPECT_TRUE(m.ok());
    memory_ = std::move(m).value();
  }

  // Builds a 4-entry queue at fixed addresses.
  virtio::VirtQueue MakeQueue() {
    virtio::VirtQueue q;
    q.Configure(0x10000, 0x10100, 0x10200, 4);
    q.set_ready(true);
    return q;
  }

  void WriteDesc(uint32_t index, uint32_t gpa, uint32_t len, uint16_t flags, uint16_t next) {
    uint32_t base = 0x10000 + index * 12;
    ASSERT_TRUE(memory_->WriteU32(base, gpa).ok());
    ASSERT_TRUE(memory_->WriteU32(base + 4, len).ok());
    ASSERT_TRUE(memory_->WriteU16(base + 8, flags).ok());
    ASSERT_TRUE(memory_->WriteU16(base + 10, next).ok());
  }

  void PostAvail(std::vector<uint16_t> heads) {
    auto idx = memory_->ReadU16(0x10100 + 2);
    ASSERT_TRUE(idx.ok());
    uint16_t i = *idx;
    for (uint16_t head : heads) {
      ASSERT_TRUE(memory_->WriteU16(0x10100 + 4 + (i % 4) * 2, head).ok());
      ++i;
    }
    ASSERT_TRUE(memory_->WriteU16(0x10100 + 2, i).ok());
  }

  mem::FramePool pool_;
  std::unique_ptr<mem::GuestMemory> memory_;
};

TEST_F(VirtioRingTest, PopSingleDescriptor) {
  virtio::VirtQueue q = MakeQueue();
  WriteDesc(0, 0x20000, 64, 0, 0);
  PostAvail({0});

  ASSERT_TRUE(*q.HasWork(*memory_));
  auto chain = q.Pop(*memory_);
  ASSERT_TRUE(chain.ok());
  EXPECT_EQ(chain->head, 0);
  ASSERT_EQ(chain->elems.size(), 1u);
  EXPECT_EQ(chain->elems[0].gpa, 0x20000u);
  EXPECT_EQ(chain->elems[0].len, 64u);
  EXPECT_FALSE(chain->elems[0].device_writes);
  EXPECT_FALSE(*q.HasWork(*memory_));
}

TEST_F(VirtioRingTest, PopChainFollowsNext) {
  virtio::VirtQueue q = MakeQueue();
  WriteDesc(1, 0x20000, 16, virtio::kDescNext, 2);
  WriteDesc(2, 0x21000, 512, virtio::kDescNext | virtio::kDescWrite, 3);
  WriteDesc(3, 0x22000, 1, virtio::kDescWrite, 0);
  PostAvail({1});

  auto chain = q.Pop(*memory_);
  ASSERT_TRUE(chain.ok());
  ASSERT_EQ(chain->elems.size(), 3u);
  EXPECT_EQ(chain->TotalReadable(), 16u);
  EXPECT_EQ(chain->TotalWritable(), 513u);
}

TEST_F(VirtioRingTest, LoopingChainDetected) {
  virtio::VirtQueue q = MakeQueue();
  WriteDesc(0, 0x20000, 16, virtio::kDescNext, 1);
  WriteDesc(1, 0x21000, 16, virtio::kDescNext, 0);  // back to 0
  PostAvail({0});
  EXPECT_EQ(q.Pop(*memory_).status().code(), StatusCode::kDataLoss);
}

TEST_F(VirtioRingTest, OutOfRangeDescriptorDetected) {
  virtio::VirtQueue q = MakeQueue();
  WriteDesc(0, 0x20000, 16, virtio::kDescNext, 9);  // next past qsize
  PostAvail({0});
  EXPECT_EQ(q.Pop(*memory_).status().code(), StatusCode::kDataLoss);
}

TEST_F(VirtioRingTest, UsedRingPublishes) {
  virtio::VirtQueue q = MakeQueue();
  ASSERT_TRUE(q.PushUsed(*memory_, 2, 100).ok());
  EXPECT_EQ(*memory_->ReadU16(0x10200 + 2), 1u);    // used.idx
  EXPECT_EQ(*memory_->ReadU32(0x10200 + 4), 2u);    // elem.id
  EXPECT_EQ(*memory_->ReadU32(0x10200 + 8), 100u);  // elem.len
}

TEST_F(VirtioRingTest, BlkDeviceExecutesWriteRequest) {
  storage::MemBlockStore disk(64);
  InterruptController pic;
  SimClock clock;
  virtio::VirtioBlk blk(memory_.get(), IrqLine(&pic, 8), &disk, &clock);
  ASSERT_TRUE(pic.Write(TestPhase(), 0x04, 4, 1u << 8).ok());

  // Configure queue 0 via registers.
  ASSERT_TRUE(blk.Write(TestPhase(), 0x04, 4, 0).ok());
  ASSERT_TRUE(blk.Write(TestPhase(), 0x08, 4, 4).ok());
  ASSERT_TRUE(blk.Write(TestPhase(), 0x0C, 4, 0x10000).ok());
  ASSERT_TRUE(blk.Write(TestPhase(), 0x10, 4, 0x10100).ok());
  ASSERT_TRUE(blk.Write(TestPhase(), 0x14, 4, 0x10200).ok());
  ASSERT_TRUE(blk.Write(TestPhase(), 0x18, 4, 1).ok());

  // Request: header (type=1 write, sector=3) + 512B data + status.
  ASSERT_TRUE(memory_->WriteU32(0x30000, 1).ok());
  ASSERT_TRUE(memory_->WriteU32(0x30008, 3).ok());
  ASSERT_TRUE(memory_->WriteU32(0x3000C, 0).ok());
  for (uint32_t i = 0; i < 128; ++i) {
    ASSERT_TRUE(memory_->WriteU32(0x31000 + i * 4, 0xF00D0000 + i).ok());
  }
  WriteDesc(0, 0x30000, 16, virtio::kDescNext, 1);
  WriteDesc(1, 0x31000, 512, virtio::kDescNext, 2);
  WriteDesc(2, 0x32000, 1, virtio::kDescWrite, 0);
  PostAvail({0});

  ASSERT_TRUE(blk.Write(TestPhase(), 0x1C, 4, 0).ok());  // doorbell
  clock.RunAll(TestPhase());

  EXPECT_EQ(blk.blk_stats().requests, 1u);
  EXPECT_EQ(blk.blk_stats().errors, 0u);
  EXPECT_EQ(*memory_->ReadU8(0x32000), virtio::kBlkStatusOk);
  uint8_t sector[512] = {};
  ASSERT_TRUE(disk.ReadSectors(3, 1, sector).ok());
  uint32_t w;
  std::memcpy(&w, sector, 4);
  EXPECT_EQ(w, 0xF00D0000u);
  EXPECT_NE(pic.pending() & (1u << 8), 0u);
}

TEST_F(VirtioRingTest, BlkReadRequestFillsBuffers) {
  storage::MemBlockStore disk(64);
  uint8_t sector[512] = {};
  for (int i = 0; i < 512; ++i) {
    sector[i] = static_cast<uint8_t>(i * 3);
  }
  ASSERT_TRUE(disk.WriteSectors(9, 1, sector).ok());

  InterruptController pic;
  SimClock clock;
  virtio::VirtioBlk blk(memory_.get(), IrqLine(&pic, 8), &disk, &clock);
  ASSERT_TRUE(blk.Write(TestPhase(), 0x04, 4, 0).ok());
  ASSERT_TRUE(blk.Write(TestPhase(), 0x08, 4, 4).ok());
  ASSERT_TRUE(blk.Write(TestPhase(), 0x0C, 4, 0x10000).ok());
  ASSERT_TRUE(blk.Write(TestPhase(), 0x10, 4, 0x10100).ok());
  ASSERT_TRUE(blk.Write(TestPhase(), 0x14, 4, 0x10200).ok());
  ASSERT_TRUE(blk.Write(TestPhase(), 0x18, 4, 1).ok());

  ASSERT_TRUE(memory_->WriteU32(0x30000, 0).ok());  // type read
  ASSERT_TRUE(memory_->WriteU32(0x30008, 9).ok());
  WriteDesc(0, 0x30000, 16, virtio::kDescNext, 1);
  WriteDesc(1, 0x31000, 512, virtio::kDescNext | virtio::kDescWrite, 2);
  WriteDesc(2, 0x32000, 1, virtio::kDescWrite, 0);
  PostAvail({0});
  ASSERT_TRUE(blk.Write(TestPhase(), 0x1C, 4, 0).ok());
  clock.RunAll(TestPhase());

  EXPECT_EQ(*memory_->ReadU8(0x32000), virtio::kBlkStatusOk);
  std::vector<uint8_t> got(512);
  ASSERT_TRUE(memory_->Read(0x31000, got.data(), got.size()).ok());
  EXPECT_EQ(std::memcmp(got.data(), sector, 512), 0);
}

TEST_F(VirtioRingTest, BlkMalformedRequestGetsErrorStatus) {
  storage::MemBlockStore disk(64);
  InterruptController pic;
  SimClock clock;
  virtio::VirtioBlk blk(memory_.get(), IrqLine(&pic, 8), &disk, &clock);
  ASSERT_TRUE(blk.Write(TestPhase(), 0x04, 4, 0).ok());
  ASSERT_TRUE(blk.Write(TestPhase(), 0x08, 4, 4).ok());
  ASSERT_TRUE(blk.Write(TestPhase(), 0x0C, 4, 0x10000).ok());
  ASSERT_TRUE(blk.Write(TestPhase(), 0x10, 4, 0x10100).ok());
  ASSERT_TRUE(blk.Write(TestPhase(), 0x14, 4, 0x10200).ok());
  ASSERT_TRUE(blk.Write(TestPhase(), 0x18, 4, 1).ok());

  ASSERT_TRUE(memory_->WriteU32(0x30000, 9999).ok());  // bogus request type
  WriteDesc(0, 0x30000, 16, virtio::kDescNext, 1);
  WriteDesc(1, 0x32000, 1, virtio::kDescWrite, 0);
  PostAvail({0});
  ASSERT_TRUE(blk.Write(TestPhase(), 0x1C, 4, 0).ok());
  clock.RunAll(TestPhase());
  EXPECT_EQ(blk.blk_stats().errors, 1u);
  EXPECT_EQ(*memory_->ReadU8(0x32000), virtio::kBlkStatusUnsupported);
}

TEST_F(VirtioRingTest, ConsoleTxCollects) {
  InterruptController pic;
  virtio::VirtioConsole con(memory_.get(), IrqLine(&pic, 10));
  // Configure TX queue (1).
  ASSERT_TRUE(con.Write(TestPhase(), 0x04, 4, 1).ok());
  ASSERT_TRUE(con.Write(TestPhase(), 0x08, 4, 4).ok());
  ASSERT_TRUE(con.Write(TestPhase(), 0x0C, 4, 0x10000).ok());
  ASSERT_TRUE(con.Write(TestPhase(), 0x10, 4, 0x10100).ok());
  ASSERT_TRUE(con.Write(TestPhase(), 0x14, 4, 0x10200).ok());
  ASSERT_TRUE(con.Write(TestPhase(), 0x18, 4, 1).ok());

  const char msg[] = "virtio says hi";
  ASSERT_TRUE(memory_->Write(0x30000, msg, sizeof(msg) - 1).ok());
  WriteDesc(0, 0x30000, sizeof(msg) - 1, 0, 0);
  PostAvail({0});
  ASSERT_TRUE(con.Write(TestPhase(), 0x1C, 4, 1).ok());
  EXPECT_EQ(con.output(), "virtio says hi");
}

TEST_F(VirtioRingTest, ConsoleRxDeliversIntoPostedBuffers) {
  InterruptController pic;
  virtio::VirtioConsole con(memory_.get(), IrqLine(&pic, 10));
  // Configure RX queue (0) and post one 16-byte buffer.
  ASSERT_TRUE(con.Write(TestPhase(), 0x04, 4, 0).ok());
  ASSERT_TRUE(con.Write(TestPhase(), 0x08, 4, 4).ok());
  ASSERT_TRUE(con.Write(TestPhase(), 0x0C, 4, 0x10000).ok());
  ASSERT_TRUE(con.Write(TestPhase(), 0x10, 4, 0x10100).ok());
  ASSERT_TRUE(con.Write(TestPhase(), 0x14, 4, 0x10200).ok());
  ASSERT_TRUE(con.Write(TestPhase(), 0x18, 4, 1).ok());
  WriteDesc(0, 0x30000, 16, virtio::kDescWrite, 0);
  PostAvail({0});

  con.InjectInput(TestPhase(), "hello");
  std::vector<uint8_t> buf(5);
  ASSERT_TRUE(memory_->Read(0x30000, buf.data(), 5).ok());
  EXPECT_EQ(std::string(buf.begin(), buf.end()), "hello");
  EXPECT_EQ(*memory_->ReadU16(0x10200 + 2), 1u);  // one used entry
}

TEST_F(VirtioRingTest, DeviceStateSerializeRoundTrip) {
  storage::MemBlockStore disk(64);
  InterruptController pic;
  SimClock clock;
  virtio::VirtioBlk blk(memory_.get(), IrqLine(&pic, 8), &disk, &clock);
  ASSERT_TRUE(blk.Write(TestPhase(), 0x04, 4, 0).ok());
  ASSERT_TRUE(blk.Write(TestPhase(), 0x08, 4, 8).ok());
  ASSERT_TRUE(blk.Write(TestPhase(), 0x0C, 4, 0x10000).ok());
  ASSERT_TRUE(blk.Write(TestPhase(), 0x18, 4, 1).ok());

  ByteWriter w;
  blk.Serialize(w);
  virtio::VirtioBlk restored(memory_.get(), IrqLine(&pic, 8), &disk, nullptr);
  ByteReader r(w.buffer());
  ASSERT_TRUE(restored.Deserialize(TestPhase(), r).ok());
  EXPECT_EQ(*restored.Read(0x08, 4), 8u);
  EXPECT_EQ(*restored.Read(0x0C, 4), 0x10000u);
  EXPECT_EQ(*restored.Read(0x18, 4), 1u);
}

// ---------------------------------------------------------------------------
// EVENT_IDX suppression semantics (VirtQueue::NeedEvent + used-index wrap)
// ---------------------------------------------------------------------------

TEST(VirtQueueEventTest, NeedEventCrossingAndWraparound) {
  using virtio::VirtQueue;
  EXPECT_TRUE(VirtQueue::NeedEvent(0, 1, 0));
  EXPECT_TRUE(VirtQueue::NeedEvent(5, 6, 3));    // 3 -> 6 crosses event 5
  EXPECT_FALSE(VirtQueue::NeedEvent(5, 5, 3));   // stopped at the event
  EXPECT_FALSE(VirtQueue::NeedEvent(10, 5, 0));  // event parked ahead
  EXPECT_FALSE(VirtQueue::NeedEvent(7, 7, 5));   // parked at published idx
  // Wrap at 2^16: 0xFFF0 -> 2 crosses an event at 0xFFFE.
  EXPECT_TRUE(VirtQueue::NeedEvent(0xFFFE, 2, 0xFFF0));
  // Event on the far side of the wrap, not yet reached.
  EXPECT_FALSE(VirtQueue::NeedEvent(0x000A, 2, 0xFFF0));
  // Event exactly at the old index fires on the wrapping push.
  EXPECT_TRUE(VirtQueue::NeedEvent(0xFFFF, 0, 0xFFFF));
}

TEST_F(VirtioRingTest, PushUsedWrapsAtSixtyFourK) {
  // The device-side used index is private by design; craft a queue one push
  // from the 2^16 wrap through the serialization path (whose layout the
  // round-trip test pins).
  ByteWriter w;
  w.WriteU32(0x10000);  // desc
  w.WriteU32(0x10100);  // avail
  w.WriteU32(0x10200);  // used
  w.WriteU16(4);        // size
  w.WriteU16(0xFFFF);   // last_avail
  w.WriteU16(0xFFFF);   // used_idx
  w.WriteU8(1);         // ready
  virtio::VirtQueue q;
  ByteReader r(w.buffer());
  ASSERT_TRUE(q.Deserialize(r).ok());
  ASSERT_TRUE(memory_->WriteU16(0x10200 + 2, 0xFFFF).ok());  // guest's view

  ASSERT_TRUE(q.PushUsed(*memory_, 2, 100).ok());
  EXPECT_EQ(q.used_idx(), 0u);                         // wrapped
  EXPECT_EQ(*memory_->ReadU16(0x10200 + 2), 0u);       // published wrap
  EXPECT_EQ(*memory_->ReadU32(0x10200 + 4 + 3 * 8), 2u);  // slot 0xFFFF % 4
}

TEST_F(VirtioRingTest, RegisterValidation) {
  storage::MemBlockStore disk(64);
  InterruptController pic;
  SimClock clock;
  virtio::VirtioBlk blk(memory_.get(), IrqLine(&pic, 8), &disk, &clock);
  EXPECT_EQ(*blk.Read(0x00, 4), virtio::kVirtioIdBlk);
  EXPECT_FALSE(blk.Write(TestPhase(), 0x04, 4, 5).ok());      // queue_sel out of range
  EXPECT_FALSE(blk.Write(TestPhase(), 0x08, 4, 3).ok());      // not a power of two
  EXPECT_FALSE(blk.Write(TestPhase(), 0x08, 4, 512).ok());    // too large
  EXPECT_FALSE(blk.Write(TestPhase(), 0x1C, 4, 7).ok());      // notify unknown queue
  EXPECT_FALSE(blk.Read(0x00, 2).ok());          // sub-word access
}

// ---------------------------------------------------------------------------
// Virtio-net data plane: coalescing, kick suppression, backlog, chain errors
// ---------------------------------------------------------------------------

// Switch port standing in for the remote NIC on TX tests.
struct CountingSink final : net::FrameSink {
  std::vector<net::Frame> frames;
  uint64_t bursts = 0;
  void OnFrame(const SerialPhase&, const net::Frame& f) override { frames.push_back(f); }
  void OnFrameBurst(const SerialPhase& ph, std::span<const net::Frame> fs) override {
    ++bursts;
    net::FrameSink::OnFrameBurst(ph, fs);
  }
};

class VirtioNetTest : public VirtioRingTest {
 protected:
  static constexpr uint32_t kRxDesc = 0x10000, kRxAvail = 0x10100, kRxUsed = 0x10200;
  static constexpr uint32_t kTxDesc = 0x11000, kTxAvail = 0x11100, kTxUsed = 0x11200;
  static constexpr uint16_t kQ = 4;
  static constexpr uint32_t kRxQueue = virtio::VirtioNet::kRxQueue;
  static constexpr uint32_t kTxQueue = virtio::VirtioNet::kTxQueue;

  VirtioNetTest() : vswitch_(&clock_) {}

  void Boot(virtio::VirtioNetOptions opts = {}) {
    net_ = std::make_unique<virtio::VirtioNet>(
        memory_.get(), IrqLine(&pic_, devices::kNetIrq), &vswitch_, /*addr=*/1, &clock_, opts);
    ASSERT_TRUE(vswitch_.Attach(TestPhase(), 1, net_.get()).ok());
    ASSERT_TRUE(vswitch_.Attach(TestPhase(), 2, &peer_).ok());
    ConfigureQueue(kRxQueue, kRxDesc, kRxAvail, kRxUsed);
    ConfigureQueue(kTxQueue, kTxDesc, kTxAvail, kTxUsed);
  }

  void ConfigureQueue(uint16_t q, uint32_t desc, uint32_t avail, uint32_t used) {
    ASSERT_TRUE(net_->Write(TestPhase(), 0x04, 4, q).ok());
    ASSERT_TRUE(net_->Write(TestPhase(), 0x08, 4, kQ).ok());
    ASSERT_TRUE(net_->Write(TestPhase(), 0x0C, 4, desc).ok());
    ASSERT_TRUE(net_->Write(TestPhase(), 0x10, 4, avail).ok());
    ASSERT_TRUE(net_->Write(TestPhase(), 0x14, 4, used).ok());
    ASSERT_TRUE(net_->Write(TestPhase(), 0x18, 4, 1).ok());
  }

  void WriteDescAt(uint32_t base, uint32_t index, uint32_t gpa, uint32_t len,
                   uint16_t flags, uint16_t next = 0) {
    uint32_t d = base + index * virtio::kDescBytes;
    ASSERT_TRUE(memory_->WriteU32(d, gpa).ok());
    ASSERT_TRUE(memory_->WriteU32(d + 4, len).ok());
    ASSERT_TRUE(memory_->WriteU16(d + 8, flags).ok());
    ASSERT_TRUE(memory_->WriteU16(d + 10, next).ok());
  }

  void PostAvailAt(uint32_t avail, std::vector<uint16_t> heads) {
    uint16_t i = *memory_->ReadU16(avail + 2);
    for (uint16_t head : heads) {
      ASSERT_TRUE(memory_->WriteU16(avail + 4 + (i % kQ) * 2, head).ok());
      ++i;
    }
    ASSERT_TRUE(memory_->WriteU16(avail + 2, i).ok());
  }

  // Stages a TX frame (8-byte header + payload) in guest memory and posts it.
  void PostTxFrame(uint16_t slot, uint32_t dst, uint32_t payload_len) {
    uint32_t buf = 0x20000 + slot * 0x1000;
    ASSERT_TRUE(memory_->WriteU32(buf, dst).ok());
    ASSERT_TRUE(memory_->WriteU32(buf + 4, payload_len).ok());
    for (uint32_t i = 0; i < payload_len; ++i) {
      ASSERT_TRUE(memory_->WriteU8(buf + 8 + i, static_cast<uint8_t>(slot + i)).ok());
    }
    WriteDescAt(kTxDesc, slot, buf, 8 + payload_len, 0);
    PostAvailAt(kTxAvail, {slot});
  }

  void PostRxBuffer(uint16_t slot, uint32_t len = 512, uint32_t gpa = 0) {
    if (gpa == 0) {
      gpa = 0x40000 + slot * 0x1000;
    }
    WriteDescAt(kRxDesc, slot, gpa, len, virtio::kDescWrite);
    PostAvailAt(kRxAvail, {slot});
  }

  net::Frame MakeRxFrame(uint32_t src, size_t payload) {
    net::Frame f;
    f.src = src;
    f.dst = 1;
    f.payload.Assign(payload, 0xAB);
    return f;
  }

  void SetUsedEvent(uint32_t avail_gpa, uint16_t value) {
    ASSERT_TRUE(memory_->WriteU16(avail_gpa + 4 + 2u * kQ, value).ok());
  }

  SimClock clock_;
  net::VirtualSwitch vswitch_;
  InterruptController pic_;
  CountingSink peer_;
  std::unique_ptr<virtio::VirtioNet> net_;
};

TEST_F(VirtioNetTest, EventIdxParkedSuppressesTxCompletions) {
  Boot();
  ASSERT_TRUE(net_->Write(TestPhase(), 0x2C, 4, virtio::kFeatureEventIdx).ok());

  // The guest parks used_event at the index it publishes (2): it wants no
  // completion interrupt until something beyond this batch completes.
  PostTxFrame(0, /*dst=*/2, 64);
  PostTxFrame(1, /*dst=*/2, 64);
  SetUsedEvent(kTxAvail, 2);
  ASSERT_TRUE(net_->Kick(TestPhase(), kTxQueue).ok());

  EXPECT_EQ(net_->net_stats().tx_frames, 2u);
  EXPECT_EQ(net_->stats().interrupts, 0u);
  EXPECT_EQ(net_->stats().interrupts_suppressed, 1u);
  EXPECT_EQ(pic_.pending() & (1u << devices::kNetIrq), 0u);

  // Re-armed behind the next completion: used 2 -> 3 crosses event 2.
  PostTxFrame(2, /*dst=*/2, 64);
  ASSERT_TRUE(net_->Kick(TestPhase(), kTxQueue).ok());
  EXPECT_EQ(net_->stats().interrupts, 1u);
  EXPECT_NE(pic_.pending() & (1u << devices::kNetIrq), 0u);

  clock_.RunAll(TestPhase());
  EXPECT_EQ(peer_.frames.size(), 3u);
}

TEST_F(VirtioNetTest, LegacyAvailFlagsSuppressWithoutEventIdx) {
  Boot();
  // No features acked: bit0 of avail.flags is the only suppression.
  ASSERT_TRUE(memory_->WriteU16(kRxAvail, 1).ok());
  PostRxBuffer(0);
  net_->OnFrame(TestPhase(), MakeRxFrame(2, 100));
  EXPECT_EQ(net_->net_stats().rx_frames, 1u);
  EXPECT_EQ(net_->stats().interrupts, 0u);
  EXPECT_EQ(net_->stats().interrupts_suppressed, 1u);

  ASSERT_TRUE(memory_->WriteU16(kRxAvail, 0).ok());
  PostRxBuffer(1);
  net_->OnFrame(TestPhase(), MakeRxFrame(2, 100));
  EXPECT_EQ(net_->stats().interrupts, 1u);
}

TEST_F(VirtioNetTest, EventIdxSuppressionAcrossUsedIndexWrap) {
  Boot();
  // Restore the device with the RX queue one completion from the 2^16 wrap
  // (the used index is private; the snapshot path is the supported way in).
  ByteWriter w;
  w.WriteU32(kRxDesc);
  w.WriteU32(kRxAvail);
  w.WriteU32(kRxUsed);
  w.WriteU16(kQ);
  w.WriteU16(0xFFFE);  // last_avail
  w.WriteU16(0xFFFE);  // used_idx
  w.WriteU8(1);
  for (int i = 0; i < 2; ++i) {  // TX queue: unconfigured
    w.WriteU32(0);
  }
  w.WriteU32(0);
  w.WriteU16(0);
  w.WriteU16(0);
  w.WriteU16(0);
  w.WriteU8(0);
  w.WriteU16(0);                         // queue_sel
  w.WriteU32(0);                         // isr
  w.WriteU32(0);                         // device_status
  w.WriteU32(virtio::kFeatureEventIdx);  // features
  w.WriteU8(0);                          // tx_polling
  ByteReader r(w.buffer());
  ASSERT_TRUE(net_->Deserialize(TestPhase(), r).ok());
  ASSERT_TRUE(memory_->WriteU16(kRxAvail + 2, 0xFFFE).ok());
  ASSERT_TRUE(memory_->WriteU16(kRxUsed + 2, 0xFFFE).ok());

  // Guest armed used_event at 0xFFFF: the delivery moving used to 0xFFFF
  // stops AT the event (suppressed); the next one wraps 0xFFFF -> 0 and
  // crosses it (interrupt), exercising NeedEvent's modulo arithmetic end
  // to end.
  SetUsedEvent(kRxAvail, 0xFFFF);
  PostRxBuffer(2);
  net_->OnFrame(TestPhase(), MakeRxFrame(2, 64));
  EXPECT_EQ(net_->stats().interrupts, 0u);
  EXPECT_EQ(net_->stats().interrupts_suppressed, 1u);

  PostRxBuffer(3);
  net_->OnFrame(TestPhase(), MakeRxFrame(2, 64));
  EXPECT_EQ(net_->stats().interrupts, 1u);
  EXPECT_EQ(net_->net_stats().rx_frames, 2u);
  EXPECT_EQ(*memory_->ReadU16(kRxUsed + 2), 0u);  // published index wrapped
}

TEST_F(VirtioNetTest, PollingSuppressesKicksAndReArmsWhenDry) {
  virtio::VirtioNetOptions opts;
  opts.tx_poll_budget = 2;
  Boot(opts);

  for (uint16_t s = 0; s < 4; ++s) {
    PostTxFrame(s, /*dst=*/2, 32);
  }
  ASSERT_TRUE(net_->Kick(TestPhase(), kTxQueue).ok());

  // Budget (2) < backlog (4): the kick drained one round and entered
  // polling — doorbells now suppressed via used.flags NO_NOTIFY.
  EXPECT_TRUE(net_->tx_polling());
  EXPECT_EQ(net_->net_stats().tx_frames, 2u);
  EXPECT_EQ(*memory_->ReadU16(kTxUsed), virtio::kUsedNoNotify);

  // A doorbell racing the poll is a no-op: the poll event owns the queue.
  ASSERT_TRUE(net_->Kick(TestPhase(), kTxQueue).ok());
  EXPECT_EQ(net_->net_stats().tx_frames, 2u);

  // The poll finds the remaining chains with no doorbell (kick suppressed),
  // drains dry, and re-arms notifications.
  clock_.RunAll(TestPhase());
  EXPECT_FALSE(net_->tx_polling());
  EXPECT_EQ(net_->net_stats().tx_frames, 4u);
  EXPECT_GE(net_->net_stats().poll_rounds, 1u);
  EXPECT_GE(net_->net_stats().kicks_suppressed, 1u);
  EXPECT_EQ(*memory_->ReadU16(kTxUsed), 0u);  // NO_NOTIFY cleared
  EXPECT_EQ(peer_.frames.size(), 4u);

  // Re-armed: a fresh kick works the queue synchronously again.
  PostTxFrame(0, /*dst=*/2, 32);
  ASSERT_TRUE(net_->Kick(TestPhase(), kTxQueue).ok());
  EXPECT_EQ(net_->net_stats().tx_frames, 5u);
}

TEST_F(VirtioNetTest, RuntTxChainCompletedAsMalformed) {
  Boot();
  // 4 readable bytes: no room for even the 8-byte frame header.
  WriteDescAt(kTxDesc, 0, 0x20000, 4, 0);
  PostAvailAt(kTxAvail, {0});
  ASSERT_TRUE(net_->Kick(TestPhase(), kTxQueue).ok());

  EXPECT_EQ(net_->net_stats().tx_malformed, 1u);
  EXPECT_EQ(net_->net_stats().tx_frames, 0u);
  EXPECT_EQ(*memory_->ReadU16(kTxUsed + 2), 1u);  // chain returned, len 0
  EXPECT_EQ(*memory_->ReadU32(kTxUsed + 8), 0u);
  clock_.RunAll(TestPhase());
  EXPECT_TRUE(peer_.frames.empty());
  EXPECT_EQ(vswitch_.stats().frames_sent, 0u);
}

TEST_F(VirtioNetTest, BadRxChainReturnedWithoutLosingFrame) {
  Boot();
  // Chain 0 points outside guest RAM; chain 1 is good. The frame must ride
  // out the bad buffer: chain 0 comes back len 0, the frame lands in
  // chain 1, and nothing leaks.
  PostRxBuffer(0, 512, /*gpa=*/0x200000);
  PostRxBuffer(1);
  net_->OnFrame(TestPhase(), MakeRxFrame(2, 100));

  EXPECT_EQ(net_->net_stats().rx_chain_errors, 1u);
  EXPECT_EQ(net_->net_stats().rx_frames, 1u);
  EXPECT_EQ(net_->net_stats().rx_dropped, 0u);
  EXPECT_EQ(*memory_->ReadU16(kRxUsed + 2), 2u);
  EXPECT_EQ(*memory_->ReadU32(kRxUsed + 4), 0u);       // id 0...
  EXPECT_EQ(*memory_->ReadU32(kRxUsed + 8), 0u);       // ...len 0
  EXPECT_EQ(*memory_->ReadU32(kRxUsed + 4 + 8), 1u);   // id 1...
  EXPECT_EQ(*memory_->ReadU32(kRxUsed + 8 + 8), 108u);  // ...header+payload
}

TEST_F(VirtioNetTest, RxBacklogCapDropsAndRecordsHighWatermark) {
  virtio::VirtioNetOptions opts;
  opts.rx_backlog_cap = 3;
  Boot(opts);

  // No RX buffers posted: frames queue host-side up to the cap.
  for (int i = 0; i < 5; ++i) {
    net_->OnFrame(TestPhase(), MakeRxFrame(2, 64));
  }
  EXPECT_EQ(net_->net_stats().rx_dropped, 2u);
  EXPECT_EQ(net_->net_stats().rx_backlog_hwm, 3u);
  EXPECT_EQ(net_->net_stats().rx_frames, 0u);

  // Buffers arrive: the RX kick drains the surviving backlog.
  for (uint16_t s = 0; s < 3; ++s) {
    PostRxBuffer(s);
  }
  ASSERT_TRUE(net_->Kick(TestPhase(), kRxQueue).ok());
  EXPECT_EQ(net_->net_stats().rx_frames, 3u);
  EXPECT_EQ(net_->net_stats().rx_backlog_hwm, 3u);
}

TEST_F(VirtioNetTest, BurstDeliveryCoalescesRxInterrupt) {
  Boot();
  for (uint16_t s = 0; s < 4; ++s) {
    PostRxBuffer(s);
  }
  net::Frame fs[3] = {MakeRxFrame(2, 64), MakeRxFrame(2, 64), MakeRxFrame(2, 64)};
  net_->OnFrameBurst(TestPhase(), std::span<const net::Frame>(fs, 3));

  EXPECT_EQ(net_->net_stats().burst_frames, 3u);
  EXPECT_EQ(net_->net_stats().rx_frames, 3u);
  EXPECT_EQ(net_->stats().interrupts, 1u);  // one pump, one interrupt
}

}  // namespace
}  // namespace hyperion

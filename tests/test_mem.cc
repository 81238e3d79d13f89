/**
 * @file
 * Unit tests for physical memory and the DRAM/NVRAM timing models.
 */

#include <gtest/gtest.h>

#include "mem/memory_bus.hh"
#include "mem/phys_mem.hh"
#include "mem/timing_model.hh"

using namespace ssp;

namespace
{

TEST(PhysMem, ZeroFilledByDefault)
{
    PhysMem mem(16, 4);
    EXPECT_EQ(mem.read64(0x123), 0u);
}

TEST(PhysMem, ReadBackWrites)
{
    PhysMem mem(16, 4);
    mem.write64(0x100, 0xabcdef);
    EXPECT_EQ(mem.read64(0x100), 0xabcdefu);
}

TEST(PhysMem, CrossPageAccess)
{
    PhysMem mem(16, 4);
    std::uint8_t in[100];
    for (unsigned i = 0; i < 100; ++i)
        in[i] = static_cast<std::uint8_t>(i * 3);
    const Addr addr = kPageSize - 50; // straddles pages 0 and 1
    mem.write(addr, in, sizeof(in));
    std::uint8_t out[100] = {};
    mem.read(addr, out, sizeof(out));
    EXPECT_EQ(std::memcmp(in, out, sizeof(in)), 0);
}

TEST(PhysMem, CopyLine)
{
    PhysMem mem(16, 4);
    mem.write64(0x40, 77);
    mem.copyLine(0x80, 0x40);
    EXPECT_EQ(mem.read64(0x80), 77u);
}

TEST(PhysMem, RegionClassification)
{
    PhysMem mem(16, 4);
    EXPECT_TRUE(mem.isNvramPage(0));
    EXPECT_TRUE(mem.isNvramPage(15));
    EXPECT_FALSE(mem.isNvramPage(16));
    EXPECT_TRUE(mem.isNvramAddr(15 * kPageSize));
    EXPECT_FALSE(mem.isNvramAddr(16 * kPageSize));
}

TEST(PhysMem, PowerFailClearsDramOnly)
{
    PhysMem mem(4, 4);
    mem.write64(0x0, 11);                      // NVRAM
    mem.write64(4 * kPageSize + 0x10, 22);     // DRAM
    mem.powerFail();
    EXPECT_EQ(mem.read64(0x0), 11u);
    EXPECT_EQ(mem.read64(4 * kPageSize + 0x10), 0u);
}

TEST(PhysMem, SnapshotCapturesNvram)
{
    PhysMem mem(4, 2);
    mem.write64(0x40, 5);
    auto snap = mem.snapshotNvram();
    ASSERT_TRUE(snap.contains(0));
    std::uint64_t v;
    std::memcpy(&v, snap[0].data() + 0x40, sizeof(v));
    EXPECT_EQ(v, 5u);
}

TEST(TimingModel, RowHitIsCheaper)
{
    MemTimingParams p;
    p.banks = 4;
    p.rowBufferBytes = 1024;
    p.readLatency = 100;
    p.writeLatency = 400;
    p.rowHitFraction = 0.4;
    MemTimingModel model(p);

    const Cycles t1 = model.access(0, false, 0);
    EXPECT_EQ(t1, 100u); // cold: row miss
    // Same row, after the bank frees: row hit.
    const Cycles t2 = model.access(64, false, t1);
    EXPECT_EQ(t2 - t1, 40u);
    EXPECT_EQ(model.rowHits(), 1u);
    EXPECT_EQ(model.rowMisses(), 1u);
}

TEST(TimingModel, BusyBankQueues)
{
    MemTimingParams p;
    p.banks = 2;
    p.rowBufferBytes = 1024;
    p.readLatency = 100;
    p.writeLatency = 100;
    MemTimingModel model(p);

    const Cycles t1 = model.access(0, false, 0);
    // Second access to the same bank issued at time 0 waits for t1.
    const Cycles t2 = model.access(0, false, 0);
    EXPECT_GE(t2, t1);
}

TEST(TimingModel, BanksOperateInParallel)
{
    MemTimingParams p;
    p.banks = 8;
    p.rowBufferBytes = 1024;
    p.readLatency = 100;
    p.writeLatency = 100;
    MemTimingModel model(p);

    // Different banks at the same time complete independently.
    const Cycles t1 = model.access(0, false, 0);
    const Cycles t2 = model.access(1024, false, 0);
    EXPECT_EQ(t1, 100u);
    EXPECT_EQ(t2, 100u);
}

TEST(TimingModel, WritesSlowerThanReads)
{
    MemTimingParams p;
    p.readLatency = 185;
    p.writeLatency = 740;
    MemTimingModel model(p);
    const Cycles r = model.access(0, false, 0);
    MemTimingModel model2(p);
    const Cycles w = model2.access(0, true, 0);
    EXPECT_GT(w, r);
}

TEST(MemoryBus, RoutesByRegionAndCounts)
{
    PhysMem mem(8, 8);
    MemTimingParams dram{4, 1024, 100, 100, 0.4};
    MemTimingParams nvram{4, 1024, 200, 800, 0.4};
    MemoryBus bus(mem, dram, nvram);

    bus.issueRead(0, 0);                                   // NVRAM
    bus.issueWrite(0x40, WriteCategory::Data, 0);          // NVRAM
    bus.issueWrite(0x80, WriteCategory::UndoLog, 0);       // NVRAM
    bus.issueWrite(8 * kPageSize, WriteCategory::Data, 0); // DRAM

    EXPECT_EQ(bus.nvramReads(), 1u);
    EXPECT_EQ(bus.nvramWrites(), 2u);
    EXPECT_EQ(bus.nvramWrites(WriteCategory::Data), 1u);
    EXPECT_EQ(bus.nvramWrites(WriteCategory::UndoLog), 1u);
    EXPECT_EQ(bus.dramWrites(), 1u);
}

TEST(MemoryBus, ResetStatsKeepsTiming)
{
    PhysMem mem(8, 2);
    MemTimingParams p{4, 1024, 100, 100, 0.4};
    MemoryBus bus(mem, p, p);
    bus.issueWrite(0, WriteCategory::Data, 0);
    bus.resetStats();
    EXPECT_EQ(bus.nvramWrites(), 0u);
}

TEST(MemoryBus, CategoryNames)
{
    EXPECT_STREQ(writeCategoryName(WriteCategory::Data), "data");
    EXPECT_STREQ(writeCategoryName(WriteCategory::MetaJournal),
                 "meta-journal");
    EXPECT_STREQ(writeCategoryName(WriteCategory::Consolidation),
                 "consolidation");
}

} // namespace

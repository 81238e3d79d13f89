/**
 * @file
 * Unit tests for the MemSystem layer: page interleaving, per-channel
 * row-buffer and bank behavior, background/foreground write isolation,
 * the Table 2 default timing, and end-to-end channel scaling through a
 * real backend.
 */

#include <algorithm>

#include <gtest/gtest.h>

#include "mem/mem_system.hh"
#include "mem/memory_bus.hh"
#include "mem/phys_mem.hh"
#include "sim/driver.hh"
#include "sim/system_builder.hh"
#include "tests/test_helpers.hh"

using namespace ssp;

namespace
{

MemTimingParams
testParams()
{
    return MemTimingParams{4, 1024, 100, 400, 0.4, 1.0};
}

TEST(MemChannelGroup, SingleChannelBitIdenticalToTimingModel)
{
    const MemTimingParams p = testParams();
    MemTimingModel model(p);
    MemChannelGroup group(p, 1);

    // A deterministic pseudo-random mix of reads/writes, foreground and
    // background, exercising bank queues and the read/write buses.
    // Foreground reads advance `now` past their completion — they are
    // blocking in the machine (the core stalls on the fill), which is
    // exactly the regime where the group's read-bus arbitration is
    // provably idle and the two layers stay bit-identical.
    std::uint64_t x = 0x2545f4914f6cdd1dull;
    Cycles now = 0;
    for (int i = 0; i < 2000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const Addr addr = (x % (1 << 20)) & ~(kLineSize - 1);
        const bool is_write = (x >> 21) & 1;
        const bool background = ((x >> 22) & 3) == 0;
        const Cycles a = model.access(addr, is_write, now, background);
        const Cycles b = group.access(addr, is_write, now, background);
        ASSERT_EQ(a, b) << "access " << i;
        now += (x >> 24) % 200;
        if (!is_write && !background)
            now = std::max(now, a);
    }
    EXPECT_EQ(model.rowHits(), group.rowHits());
    EXPECT_EQ(model.rowMisses(), group.rowMisses());
    EXPECT_EQ(model.reads(), group.reads());
    EXPECT_EQ(model.writes(), group.writes());
}

TEST(MemChannelGroup, ConcurrentForegroundReadsArbitrateTheChannelBus)
{
    const MemTimingParams p = testParams();
    MemChannelGroup group(p, 1);
    // Two same-cycle reads to different banks are bank-parallel in the
    // array but queue for one burst slot each on the channel bus —
    // concurrent cores no longer overlap for free.
    const Cycles t1 = group.access(0, false, 0);
    const Cycles t2 = group.access(1024, false, 0);
    EXPECT_EQ(t1, 100u);
    EXPECT_EQ(t2, 124u); // one 24-cycle burst slot behind the first

    // Background reads drain in idle slots and skip the arbitration.
    MemChannelGroup quiet(p, 1);
    EXPECT_EQ(quiet.access(0, false, 0, true), 100u);
    EXPECT_EQ(quiet.access(1024, false, 0, true), 100u);
}

TEST(MemChannelGroup, PageInterleaveMapping)
{
    MemChannelGroup group(testParams(), 2);
    // A whole page lives on one channel; pages alternate.
    for (Addr off = 0; off < kPageSize; off += kLineSize) {
        EXPECT_EQ(group.channelOf(off), 0u);
        EXPECT_EQ(group.channelOf(kPageSize + off), 1u);
    }
    EXPECT_EQ(group.channelOf(2 * kPageSize), 0u);
    // Page 2 is channel 0's page 1, intra-page layout untouched.
    EXPECT_EQ(group.channelLocalAddr(2 * kPageSize + 300),
              kPageSize + 300);
}

TEST(MemChannelGroup, ChannelsOperateInParallel)
{
    // Two pages that collide on one channel (same bank, same issue
    // time) complete independently once they land on different
    // channels.
    const MemTimingParams p = testParams();
    MemChannelGroup one(p, 1);
    const Cycles a1 = one.access(0, false, 0);
    const Cycles a2 = one.access(kPageSize, false, 0);
    EXPECT_EQ(a1, 100u);
    // Bank 0 on the single channel (4 banks x 1 KiB rows): queues
    // behind a1.
    EXPECT_GT(a2, a1);

    MemChannelGroup two(p, 2);
    EXPECT_EQ(two.access(0, false, 0), 100u);
    EXPECT_EQ(two.access(kPageSize, false, 0), 100u);
}

TEST(MemChannelGroup, PerChannelRowBufferHitMiss)
{
    // Each channel keeps its own open rows, so row locality inside a
    // page survives multi-channel operation.
    MemChannelGroup group(testParams(), 2);
    const Cycles t1 = group.access(0, false, 0); // ch0: row miss
    EXPECT_EQ(t1, 100u);
    const Cycles t2 = group.access(kLineSize, false, t1); // ch0: row hit
    EXPECT_EQ(t2 - t1, 40u);
    // An access on the other channel is a cold miss and does not
    // disturb channel 0's open row.
    EXPECT_EQ(group.access(kPageSize, false, 0), 100u);
    const Cycles t3 = group.access(2 * kLineSize, false, t2);
    EXPECT_EQ(t3 - t2, 40u); // still a hit on channel 0
    EXPECT_EQ(group.channel(0).rowHits(), 2u);
    EXPECT_EQ(group.channel(1).rowHits(), 0u);
    EXPECT_EQ(group.rowHits(), 2u);
    EXPECT_EQ(group.rowMisses(), 2u);
}

TEST(MemChannelGroup, BankConflictQueuesWithinChannel)
{
    // 4 banks x 1 KiB rows: channel-local addresses 0 and 4 KiB share
    // bank 0.  With 2 channels, global pages 0 and 2 both live on
    // channel 0 at local pages 0 and 1 — the second access must queue
    // behind the first, and the conflict must not leak onto channel 1.
    MemChannelGroup group(testParams(), 2);
    const Cycles t1 = group.access(0, false, 0);
    const Cycles t2 = group.access(2 * kPageSize, false, 0);
    EXPECT_EQ(t1, 100u);
    EXPECT_GE(t2, t1 + 100u); // queued behind the busy bank
    EXPECT_EQ(group.access(kPageSize, false, 0), 100u); // ch1 untouched
}

TEST(MemChannelGroup, BackgroundWritesDoNotBlockForeground)
{
    // Background traffic (consolidation, checkpoints) may not occupy a
    // bank or a write-bus slot on any channel.
    const MemTimingParams p = testParams();
    MemChannelGroup quiet(p, 2);
    MemChannelGroup busy(p, 2);
    // Two pages' worth of lines: pages 0 and 1, one per channel.
    const Addr lines_per_page = kPageSize / kLineSize;
    for (Addr line = 0; line < 2 * lines_per_page; ++line)
        busy.access(line * kLineSize, true, 0, true);

    // Foreground timing is identical with and without the background
    // barrage, on both channels.
    for (Addr page = 0; page < 2; ++page) {
        for (Addr line = 0; line < 8; ++line) {
            const Addr addr = page * kPageSize + line * kLineSize;
            EXPECT_EQ(quiet.access(addr, true, 5000),
                      busy.access(addr, true, 5000))
                << "page " << page << " line " << line;
        }
    }
    // ... while the background writes were still billed in the stats.
    EXPECT_EQ(busy.writes(), 2 * lines_per_page + 16u);
}

TEST(MemChannelGroup, WriteBurstsSplitAcrossChannels)
{
    // A batch of foreground writes serializes on the single channel's
    // write bus; across channels the bursts drain in parallel, so the
    // batch completion time is monotone non-increasing in channels.
    const MemTimingParams p = testParams();
    auto batch_done = [&p](unsigned channels) {
        MemChannelGroup g(p, channels);
        Cycles done = 0;
        for (Addr page = 0; page < 16; ++page)
            done = std::max(done, g.access(page * kPageSize, true, 0));
        return done;
    };
    const Cycles d1 = batch_done(1);
    const Cycles d2 = batch_done(2);
    const Cycles d4 = batch_done(4);
    EXPECT_LE(d2, d1);
    EXPECT_LE(d4, d2);
    EXPECT_LT(d4, d1); // strictly faster with real parallelism
}

TEST(MemChannelGroup, ResetClearsEveryChannel)
{
    MemChannelGroup group(testParams(), 2);
    group.access(0, false, 0);
    group.access(kPageSize, false, 0);
    group.reset();
    // Bank state forgotten: the same accesses are cold misses again.
    EXPECT_EQ(group.access(0, false, 0), 100u);
    EXPECT_EQ(group.access(kPageSize, false, 0), 100u);
}

TEST(MemoryBus, MultiChannelRoutingKeepsCategoryAccounting)
{
    PhysMem mem(8, 8);
    MemSystemParams params;
    params.dram = MemTimingParams{4, 1024, 100, 100, 0.4, 0.4};
    params.nvram = MemTimingParams{4, 1024, 200, 800, 0.4, 1.0};
    params.nvramChannels = 4;
    MemoryBus bus(mem, params);

    EXPECT_EQ(bus.nvramGroup().channelCount(), 4u);
    EXPECT_EQ(bus.dramGroup().channelCount(), 1u);

    bus.issueRead(0, 0);
    bus.issueWrite(0x40, WriteCategory::Data, 0);
    bus.issueWrite(0x80, WriteCategory::UndoLog, 0);
    bus.issueWrite(8 * kPageSize, WriteCategory::Data, 0);

    // The Figure 6/7 accounting is independent of the channel layout.
    EXPECT_EQ(bus.nvramReads(), 1u);
    EXPECT_EQ(bus.nvramWrites(), 2u);
    EXPECT_EQ(bus.nvramWrites(WriteCategory::Data), 1u);
    EXPECT_EQ(bus.nvramWrites(WriteCategory::UndoLog), 1u);
    EXPECT_EQ(bus.dramWrites(), 1u);
    EXPECT_EQ(bus.nvramGroup().writes(), 2u);
}

TEST(MemSystem, DefaultTimingIsTable2)
{
    // Table 2 at 3.7 GHz: PCM-like NVRAM reads in 50 ns (185 cycles)
    // and writes in 200 ns (740); DRAM is 50 ns both ways.  Row hits
    // discount NVRAM reads only, DRAM reads and writes alike.
    const SspConfig cfg;
    EXPECT_EQ(cfg.nvram.readLatency, 185u);
    EXPECT_EQ(cfg.nvram.writeLatency, 740u);
    EXPECT_EQ(cfg.nvram.banks, 32u);
    EXPECT_EQ(cfg.nvram.writeHitFraction, 1.0);
    EXPECT_EQ(cfg.dram.readLatency, 185u);
    EXPECT_EQ(cfg.dram.writeLatency, 185u);
    EXPECT_EQ(cfg.dram.banks, 64u);
    EXPECT_EQ(cfg.dram.writeHitFraction, 0.4);
    EXPECT_EQ(cfg.nvramChannels, 1u);
}

/** End-to-end: run one workload cell at a given NVRAM channel count. */
RunResult
runChannelCell(WorkloadKind workload, unsigned channels)
{
    SspConfig cfg = ssp::test::smallConfig();
    cfg.nvramChannels = channels;
    WorkloadScale scale;
    scale.keySpace = 512;
    scale.spsElements = 2048;
    scale.seed = 42;
    Experiment exp =
        buildExperiment(BackendKind::Ssp, workload, cfg, scale);
    return runExperiment(exp, 300, 1);
}

TEST(ChannelScaling, WriteBoundWorkloadsSpeedUpWithChannels)
{
    // The acceptance property behind the chan grid: for write-bound
    // workloads, simulated time is monotone non-increasing as NVRAM
    // channels grow, on the identical operation stream.
    for (WorkloadKind w : {WorkloadKind::Sps, WorkloadKind::HashRand}) {
        Cycles prev = ~Cycles{0};
        for (unsigned channels : {1u, 2u, 4u, 8u}) {
            const RunResult r = runChannelCell(w, channels);
            EXPECT_GT(r.committedTxs, 0u);
            EXPECT_LE(r.cycles, prev)
                << workloadKindName(w) << " at " << channels
                << " channel(s)";
            prev = r.cycles;
        }
    }
}

TEST(ChannelScaling, ChannelLayoutDoesNotChangeWriteCounts)
{
    // Channels change timing, never traffic: the Figure 6/7 write
    // accounting must be identical at any channel count.
    const RunResult one = runChannelCell(WorkloadKind::Sps, 1);
    const RunResult eight = runChannelCell(WorkloadKind::Sps, 8);
    EXPECT_EQ(one.committedTxs, eight.committedTxs);
    EXPECT_EQ(one.nvramWrites, eight.nvramWrites);
    EXPECT_EQ(one.loggingWrites, eight.loggingWrites);
    EXPECT_EQ(one.dataWrites, eight.dataWrites);
    EXPECT_EQ(one.avgLinesPerTx, eight.avgLinesPerTx);
}

} // namespace

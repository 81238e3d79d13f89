/**
 * @file
 * Multi-core correctness: flip-current-bit shootdown of stale peer
 * lines on CoW remap, bulk-synchronous clock alignment after partial
 * rounds, determinism of the scale grid under the parallel sweep
 * runner, contention monotonicity on a Zipf-shared workload, the
 * TX-bit-aware categorization of L3 victim write-backs, and the
 * replay of contended scale cells against the checked-in report (the
 * sharer-index/hot-path work must not move a simulated cycle).
 */


#include <gtest/gtest.h>

#include "sim/driver.hh"
#include "sim/system_builder.hh"
#include "sweep/sweep_runner.hh"
#include "tests/test_helpers.hh"

namespace ssp::test
{
namespace
{

using sweep::buildFigureGrid;
using sweep::CellResult;
using sweep::runSweep;
using sweep::SweepGridOptions;

TEST(Multicore, CowRemapShootsDownPeerStaleLines)
{
    SspSystem sys(smallConfig(2));
    const Addr addr = pageBase(1) + 8;
    txWrite64(sys, 0, addr, 111);

    // Core 1 reads the committed line into its private caches.
    EXPECT_EQ(timed64(sys, 1, addr), 111u);
    const Addr stale = lineBase(sys.committedLocation(addr));
    ASSERT_TRUE(sys.machine().caches().l1(1).probe(stale));

    // Core 0's next transactional write CoW-remaps the committed copy
    // to the other physical page; the flip broadcast must drop core 1's
    // now-stale copy and charge it for processing the message.
    const std::uint64_t delivered_before =
        sys.machine().coherence().messagesReceived(1);
    txWrite64(sys, 0, addr, 222);
    EXPECT_FALSE(sys.machine().caches().l1(1).probe(stale));
    EXPECT_FALSE(sys.machine().caches().l2(1).probe(stale));
    EXPECT_GT(sys.machine().coherence().messagesReceived(1),
              delivered_before);

    // The peer read sees the remapped line, not the stale copy.
    EXPECT_EQ(timed64(sys, 1, addr), 222u);
}

TEST(Multicore, StaleLineCannotWriteBackToOldPpn)
{
    // Hierarchy-level guarantee behind the shootdown: once a peer copy
    // of a remapped-away line is dropped, no flush or eviction can ever
    // write it back to the old physical location.
    Machine m(smallConfig(2));
    const Addr x = lineAddr(2, 0);
    m.caches().write(1, x, 0);
    ASSERT_TRUE(m.caches().isDirty(1, x));

    const std::uint64_t writes_before = m.bus().nvramWrites();
    const CoreBitmap peers = m.caches().invalidateLineRemote(0, x);
    EXPECT_EQ(peers, CoreBitmap::ofCore(1));
    EXPECT_FALSE(m.caches().l1(1).probe(x));
    EXPECT_FALSE(m.caches().l2(1).probe(x));

    // Dropping is write-back-free, and a subsequent flush finds nothing
    // dirty: a stale-line write to the remapped-away PPN is impossible.
    EXPECT_EQ(m.bus().nvramWrites(), writes_before);
    EXPECT_EQ(m.caches().flushLine(1, x, WriteCategory::Data, 1000), 1000u);
    EXPECT_EQ(m.bus().nvramWrites(), writes_before);
}

TEST(Multicore, WriteInvalidatesPeerCopiesAndCountsMessages)
{
    // The ordinary (non-flip) store path rides the same network: a
    // store to a line a peer has cached invalidates the peer copy and
    // bumps the invalidation counters.
    Machine m(smallConfig(2));
    const Addr x = lineAddr(3, 5);
    m.caches().read(1, x, 0);
    ASSERT_TRUE(m.caches().l1(1).probe(x));
    ASSERT_EQ(m.coherence().invalidations(), 0u);

    const Cycles quiet = m.caches().write(0, lineAddr(4, 0), 0);
    EXPECT_EQ(m.coherence().invalidations(), 0u); // no peer copy, free

    const Cycles noisy_start = quiet;
    const Cycles done = m.caches().write(0, x, noisy_start);
    EXPECT_FALSE(m.caches().l1(1).probe(x));
    EXPECT_EQ(m.coherence().invalidations(), 1u);
    EXPECT_EQ(m.coherence().invalidationsSent(0), 1u);
    EXPECT_EQ(m.coherence().messagesReceived(1), 1u);
    EXPECT_GE(done, noisy_start + m.cfg().broadcastLatency);
}

TEST(Multicore, PartialRoundsLeaveClocksSynced)
{
    WorkloadScale scale;
    scale.keySpace = 256;
    scale.spsElements = 1024;
    scale.seed = 7;
    Experiment exp = buildExperiment(BackendKind::Ssp, WorkloadKind::Sps,
                                     smallConfig(4), scale);
    // 10 % 3 != 0: the run ends on a partial round.
    RunResult res = runExperiment(exp, 10, 3);
    Machine &m = exp.backend->machine();
    for (CoreId c = 0; c < 3; ++c)
        EXPECT_EQ(m.clock(c), m.maxClock()) << "core " << c;
    ASSERT_EQ(res.coreTxs.size(), 3u);
    EXPECT_EQ(res.coreTxs[0], 4u);
    EXPECT_EQ(res.coreTxs[1], 3u);
    EXPECT_EQ(res.coreTxs[2], 3u);
}

TEST(Multicore, ScaleSweepDeterministicAcrossJobs)
{
    SweepGridOptions opts;
    opts.coreCounts = {2, 4};
    opts.backends = {BackendKind::Ssp};
    opts.workloads = {WorkloadKind::Sps, WorkloadKind::HashZipf};
    opts.txs = 60;
    opts.scale.keySpace = 256;
    opts.scale.spsElements = 1024;
    const auto cells = buildFigureGrid("scale", opts);
    ASSERT_EQ(cells.size(), 2u * 2u);

    const std::vector<CellResult> serial = runSweep(cells, 1);
    const std::vector<CellResult> parallel = runSweep(cells, 4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        ASSERT_TRUE(serial[i].ok) << serial[i].error;
        ASSERT_TRUE(parallel[i].ok) << parallel[i].error;
        const RunResult &a = serial[i].run;
        const RunResult &b = parallel[i].run;
        EXPECT_EQ(a.cycles, b.cycles);
        EXPECT_EQ(a.nvramWrites, b.nvramWrites);
        EXPECT_EQ(a.coreBusyCycles, b.coreBusyCycles);
        EXPECT_EQ(a.coreTxs, b.coreTxs);
        EXPECT_EQ(a.coherenceFlips, b.coherenceFlips);
        EXPECT_EQ(a.coherenceInvalidations, b.coherenceInvalidations);
        EXPECT_EQ(a.coherenceShootdowns, b.coherenceShootdowns);
    }
}

TEST(Multicore, ContentionMonotoneOnZipfShared)
{
    // A shared Zipf hotspot makes every added core fight for the same
    // lines (invalidations, shootdowns, channel arbitration), so the
    // total busy time to complete the same work must not shrink.
    auto total_busy = [](unsigned cores) {
        WorkloadScale scale;
        scale.keySpace = 512;
        scale.seed = 11;
        Experiment exp = buildExperiment(BackendKind::Ssp,
                                         WorkloadKind::HashZipf,
                                         smallConfig(cores), scale);
        RunResult res = runExperiment(exp, 240, cores);
        std::uint64_t busy = 0;
        for (std::uint64_t b : res.coreBusyCycles)
            busy += b;
        return busy;
    };
    const std::uint64_t busy1 = total_busy(1);
    const std::uint64_t busy2 = total_busy(2);
    const std::uint64_t busy4 = total_busy(4);
    EXPECT_LE(busy1, busy2);
    EXPECT_LE(busy2, busy4);
}

TEST(Multicore, PartitionedShardsStayFunctionallyCorrect)
{
    WorkloadScale scale;
    scale.keySpace = 256;
    scale.seed = 9;
    scale.keyShards = 2;
    Experiment exp = buildExperiment(BackendKind::Ssp,
                                     WorkloadKind::HashRand,
                                     smallConfig(2), scale);
    runExperiment(exp, 100, 2);
    EXPECT_TRUE(exp.workload->verify());
}

TEST(Multicore, ScaleGridSpsSspCellReplaysTheSmokeStream)
{
    const auto smoke = buildFigureGrid("smoke");
    ASSERT_EQ(smoke.size(), 1u);
    const auto scale = buildFigureGrid("scale");
    ASSERT_EQ(scale.size(), 4u * 6u * 3u);

    // Ordinal 0 of every core count is (SPS, SSP); at one core it is
    // the smoke cell — same machine, seed, scale and transaction count.
    EXPECT_EQ(scale[0].backend, BackendKind::Ssp);
    EXPECT_EQ(scale[0].workload, WorkloadKind::Sps);
    EXPECT_EQ(scale[0].cores, 1u);
    EXPECT_EQ(scale[0].scale.seed, smoke[0].scale.seed);
    EXPECT_EQ(scale[0].scale.spsElements, smoke[0].scale.spsElements);
    EXPECT_EQ(scale[0].txs, smoke[0].txs);

    // Partitioned cells exist only for multi-core -Rand workloads.
    for (const auto &cell : scale) {
        const bool rand_workload =
            cell.workload == WorkloadKind::BTreeRand ||
            cell.workload == WorkloadKind::HashRand;
        if (cell.keyShards > 1) {
            EXPECT_TRUE(rand_workload);
            EXPECT_EQ(cell.keyShards, cell.cores);
        } else {
            EXPECT_TRUE(!rand_workload || cell.cores == 1);
        }
    }
}

TEST(Multicore, SingleCoreScaleCellBitIdenticalToSmokeCell)
{
    // The acceptance bar for the scale grid: single-core cells replay
    // the exact pre-PR single-core model.  The (SPS, SSP, 1 core) cell
    // must reproduce the smoke cell result bit for bit.
    const auto smoke_cells = buildFigureGrid("smoke");
    sweep::SweepGridOptions one_core;
    one_core.coreCounts = {1};
    one_core.backends = {BackendKind::Ssp};
    one_core.workloads = {WorkloadKind::Sps};
    const auto scale_cells = buildFigureGrid("scale", one_core);
    ASSERT_EQ(scale_cells.size(), 1u);

    const auto smoke_res = runSweep(smoke_cells, 1);
    const auto scale_res = runSweep(scale_cells, 1);
    ASSERT_TRUE(smoke_res[0].ok);
    ASSERT_TRUE(scale_res[0].ok);
    const RunResult &a = smoke_res[0].run;
    const RunResult &b = scale_res[0].run;
    EXPECT_EQ(a.committedTxs, b.committedTxs);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.nvramWrites, b.nvramWrites);
    EXPECT_EQ(a.loggingWrites, b.loggingWrites);
    EXPECT_EQ(a.dataWrites, b.dataWrites);
    EXPECT_EQ(a.checkpointWrites, b.checkpointWrites);
    EXPECT_EQ(a.journalWrites, b.journalWrites);
    EXPECT_EQ(a.avgLinesPerTx, b.avgLinesPerTx);
    EXPECT_EQ(a.avgPagesPerTx, b.avgPagesPerTx);
}

TEST(Multicore, L3VictimWritebackCarriesTheTxBit)
{
    // Regression: transactional (TX-bit) victims must not be folded
    // into the committed-data Figure 6/7 category.
    SspConfig cfg = smallConfig(1);
    cfg.caches.l1 = CacheParams{"l1d", 4 * kLineSize, 1, 1};
    cfg.caches.l2 = CacheParams{"l2", 4 * kLineSize, 1, 1};
    cfg.caches.l3 = CacheParams{"l3", 4 * kLineSize, 1, 1};
    Machine m(cfg);

    const Addr tx_line = lineAddr(2, 0);
    m.caches().write(0, tx_line, 0);
    m.caches().setTxBit(0, tx_line, true);
    ASSERT_EQ(m.bus().nvramWrites(WriteCategory::Other), 0u);

    // A same-set write cascades the 1-way victim out of every level.
    m.caches().write(0, tx_line + 4 * kLineSize, 100);
    EXPECT_EQ(m.bus().nvramWrites(WriteCategory::Other), 1u);
    EXPECT_EQ(m.bus().nvramWrites(WriteCategory::Data), 0u);

    // The same eviction without the TX bit stays committed data.
    const Addr data_line = lineAddr(8, 1);
    m.caches().write(0, data_line, 200);
    m.caches().write(0, data_line + 4 * kLineSize, 300);
    EXPECT_EQ(m.bus().nvramWrites(WriteCategory::Data), 1u);
    EXPECT_EQ(m.bus().nvramWrites(WriteCategory::Other), 1u);
}

TEST(Multicore, ContendedZipfCellsMatchTheCheckedInScaleReport)
{
    // Bit-identity bar for the host-side hot-path work (sharer index,
    // posting-indexed validation, flat PhysMem, line sets): replaying
    // the checked-in scale grid's contended 8-core Zipf cells must
    // reproduce every simulated metric exactly.  These are the cells
    // where peer invalidations, shootdowns, and conflict validation
    // all fire at once — if an optimization moved a single cycle or
    // reclassified a single conflict, this is where it would show.
    SweepGridOptions opts;
    opts.workloads = {WorkloadKind::BTreeZipf, WorkloadKind::HashZipf,
                      WorkloadKind::RbTreeZipf};
    opts.coreCounts = {8};
    const auto cells = buildFigureGrid("scale", opts);
    ASSERT_EQ(cells.size(), 9u); // 3 workloads x 3 backends
    const auto results = expectReplaysCheckedIn("scale", cells);
    // These cells must actually exercise the conflict machinery.
    std::uint64_t aborts = 0;
    for (const CellResult &r : results)
        aborts += r.run.txAborts;
    EXPECT_GT(aborts, 0u);
}

} // namespace
} // namespace ssp::test

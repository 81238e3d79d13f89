/**
 * @file
 * Multi-core correctness: flip-current-bit shootdown of stale peer
 * lines on CoW remap, bulk-synchronous clock alignment after partial
 * rounds, determinism of the scale grid under the parallel sweep
 * runner, contention monotonicity on a Zipf-shared workload, the
 * TX-bit-aware categorization of L3 victim write-backs, and the
 * replay of contended scale cells against the checked-in report (the
 * sharer-index/hot-path work must not move a simulated cycle), and
 * the setup phase: an exact sharer index and an empty commit log after
 * the prefill, conflict detection after the barrier, and the horizon.
 */

#include <set>
#include <stdexcept>
#include <string>
#include <utility>

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
    EXPECT_EQ(m.coherence().messagesReceived(1), 1u);
    EXPECT_GE(done, noisy_start + BroadcastCoherence::kLatency);
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
        expectSameMetrics(serial[i], parallel[i]);
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
    expectSameMetrics(smoke_res[0], scale_res[0]);
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

// ---- setup phase ----------------------------------------------------------

/** A machine big enough for a BTree-Zipf prefill, with an L1 small
 *  enough that the prefill leaves lines in core 0's L2 alone. */
SspConfig
setupConfig(CoherenceMode mode, unsigned cores)
{
    SspConfig cfg = smallConfig(cores);
    cfg.heapPages = 2048;
    cfg.shadowPoolPages = 2048;
    cfg.coherence.mode = mode;
    cfg.caches.l1 = CacheParams{"l1d", 2 * 1024, 8, 4};
    return cfg;
}

Experiment
buildSetupExperiment(BackendKind backend, CoherenceMode mode,
                     unsigned cores = 16)
{
    WorkloadScale scale;
    scale.keySpace = 512;
    scale.seed = 5;
    return buildExperiment(backend, WorkloadKind::BTreeZipf,
                           setupConfig(mode, cores), scale);
}

/** Probe every line any core's L1 or L2 holds on every core: the
 *  sharer index must name exactly the cores that hold it, and track no
 *  other line. */
void
expectIndexMatchesProbes(Machine &m)
{
    CacheHierarchy &hier = m.caches();
    ASSERT_TRUE(hier.sharerIndexed());
    std::set<Addr> held;
    for (CoreId c = 0; c < hier.numCores(); ++c) {
        for (Cache *cache : {&hier.l1(c), &hier.l2(c)}) {
            std::uint64_t lines = 0;
            cache->forEachLine([&](Addr line) {
                held.insert(line);
                ++lines;
            });
            // The filled-set walk misses no valid slot.
            ASSERT_EQ(lines, cache->validLines()) << "core " << c;
        }
    }
    // Some lines live in core 0's L2 alone, so both levels are checked.
    EXPECT_GT(held.size(), hier.l1(0).validLines());
    for (Addr line : held) {
        CoreBitmap probed;
        for (CoreId c = 0; c < hier.numCores(); ++c) {
            if (hier.l1(c).probe(line) || hier.l2(c).probe(line))
                probed.set(c);
        }
        ASSERT_EQ(hier.sharerIndex().sharers(line), probed)
            << "line 0x" << std::hex << line;
    }
    EXPECT_EQ(hier.sharerIndex().trackedLines(), held.size());
}

TEST(SharerIndex, KeptIffTheMachineHasPeersOrAListener)
{
    // The hierarchy keeps the index exactly when something can read
    // it: peers to find, or the directory's snoop filter, which feeds
    // on it at every core count.
    struct Case
    {
        unsigned cores;
        CoherenceMode mode;
        bool indexed;
    };
    const Case cases[] = {
        {1, CoherenceMode::Broadcast, false},
        {1, CoherenceMode::Directory, true},
        {2, CoherenceMode::Broadcast, true},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(std::to_string(c.cores) +
                     (c.mode == CoherenceMode::Directory ? " directory"
                                                         : " broadcast"));
        SspConfig cfg = smallConfig(c.cores);
        cfg.coherence.mode = c.mode;
        Machine m(cfg);
        CacheHierarchy &hier = m.caches();
        EXPECT_EQ(hier.sharerIndexed(), c.indexed);
        // An indexed hierarchy tracks its very first fill.
        const Addr line = pageBase(1);
        hier.read(0, line, 0);
        EXPECT_EQ(hier.sharerIndex().trackedLines(), c.indexed ? 1u : 0u);
        if (c.indexed) {
            EXPECT_EQ(hier.sharerIndex().sharers(line),
                      CoreBitmap::ofCore(0));
        }
    }
}

TEST(SetupPhase, LeavesAnExactSharerIndexAndAnEmptyLog)
{
    const std::pair<CoherenceMode, unsigned> machines[] = {
        {CoherenceMode::Broadcast, 16},
        {CoherenceMode::Directory, 16},
        {CoherenceMode::Broadcast, 4},
    };
    for (const auto &[mode, cores] : machines) {
        for (BackendKind backend : {BackendKind::Ssp, BackendKind::UndoLog,
                                    BackendKind::RedoLog}) {
            SCOPED_TRACE(std::string(backendKindName(backend)) +
                         (mode == CoherenceMode::Directory ? " directory "
                                                           : " broadcast ") +
                         std::to_string(cores) + " cores");
            Experiment exp = buildSetupExperiment(backend, mode, cores);
            Machine &m = exp.backend->machine();
            // The prefill ran on core 0 alone and logged nothing.
            EXPECT_GT(m.clock(0), 0u);
            EXPECT_EQ(m.clock(1), 0u);
            EXPECT_EQ(m.conflicts().logSize(), 0u);
            EXPECT_TRUE(m.conflicts().enabled());
            expectIndexMatchesProbes(m);
        }
    }
}

TEST(SetupPhase, ConflictsStillAbortAfterTheBarrier)
{
    for (CoherenceMode mode :
         {CoherenceMode::Broadcast, CoherenceMode::Directory}) {
        Experiment exp = buildSetupExperiment(BackendKind::Ssp, mode);
        AtomicityBackend &be = *exp.backend;
        Machine &m = be.machine();
        ConflictManager &cm = m.conflicts();
        m.syncClocks();
        const Addr addr = exp.alloc->allocate(sizeof(std::uint64_t), 8);

        be.begin(1); // core 1's window opens first
        txWrite64(be, 0, addr, 2); // core 0 commits inside it
        std::uint64_t v = 3;
        be.store(1, addr, &v, sizeof(v));
        EXPECT_FALSE(cm.validate(1, m.maxClock()));
        EXPECT_EQ(cm.stats().writeWriteConflicts, 1u);
        be.abort(1);
        EXPECT_EQ(raw64(be, addr), 2u);
    }
}

TEST(SetupPhase, PeerBeginAtOrBelowTheHorizonThrows)
{
    Experiment exp =
        buildSetupExperiment(BackendKind::Ssp, CoherenceMode::Broadcast);
    Machine &m = exp.backend->machine();
    ConflictManager &cm = m.conflicts();
    const Cycles horizon = m.clock(0);
    // No barrier: core 1's clock is still 0, below every setup commit.
    EXPECT_THROW(exp.backend->begin(1), std::logic_error);
    EXPECT_THROW(cm.beginTx(2, horizon), std::logic_error);
    EXPECT_NO_THROW(cm.beginTx(3, horizon + 1));
}

} // namespace
} // namespace ssp::test

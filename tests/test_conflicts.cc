/**
 * @file
 * Concurrent-transaction conflict handling: first-committer-wins
 * window semantics, write-write vs read-write classification, rollback
 * of conflicting transactions through each
 * backend's abort machinery, retry accounting in RunResult, sweep
 * determinism across worker counts, and single-core bit-identity
 * against the checked-in smoke report.
 */

#include <algorithm>

#include <gtest/gtest.h>

#include "baselines/undo_log.hh"
#include "core/conflict_manager.hh"
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
using sweep::SweepCell;
using sweep::SweepGridOptions;

// ---- LineSet unit tests ---------------------------------------------------

TEST(LineSet, SortedUniqueInsertAndContains)
{
    LineSet s;
    EXPECT_TRUE(s.empty());
    EXPECT_TRUE(s.insert(0x1c0));
    EXPECT_TRUE(s.insert(0x040));
    EXPECT_TRUE(s.insert(0x100));
    EXPECT_FALSE(s.insert(0x100)); // duplicate
    EXPECT_EQ(s.size(), 3u);
    EXPECT_TRUE(s.contains(0x040));
    EXPECT_TRUE(s.contains(0x1c0));
    EXPECT_FALSE(s.contains(0x080));
    // Iteration is address-sorted.
    std::vector<Addr> got(s.begin(), s.end());
    EXPECT_EQ(got, (std::vector<Addr>{0x040, 0x100, 0x1c0}));
}

TEST(LineSet, SpillsPastInlineCapacityAndStaysSorted)
{
    LineSet s;
    // Insert in descending order, past the inline capacity, with dups.
    const std::size_t n = LineSet::kInlineCapacity * 3;
    for (std::size_t i = n; i > 0; --i) {
        EXPECT_TRUE(s.insert(i * kLineSize));
        EXPECT_FALSE(s.insert(i * kLineSize));
    }
    EXPECT_EQ(s.size(), n);
    Addr prev = 0;
    for (Addr a : s) {
        EXPECT_GT(a, prev);
        prev = a;
    }
    for (std::size_t i = 1; i <= n; ++i)
        EXPECT_TRUE(s.contains(i * kLineSize));

    // clear() recycles the set back to inline storage.
    s.clear();
    EXPECT_TRUE(s.empty());
    EXPECT_TRUE(s.insert(0x40));
    EXPECT_EQ(s.size(), 1u);
}

TEST(LineSet, IntersectsIsExactSetIntersection)
{
    LineSet a, b;
    EXPECT_FALSE(intersects(a, b)); // empty vs empty
    a.insert(0x100);
    a.insert(0x200);
    EXPECT_FALSE(intersects(a, b)); // vs empty
    b.insert(0x300);
    EXPECT_FALSE(intersects(a, b)); // disjoint ranges (min/max reject)
    b.insert(0x180);
    EXPECT_FALSE(intersects(a, b)); // overlapping ranges, no element
    b.insert(0x200);
    EXPECT_TRUE(intersects(a, b));
    EXPECT_TRUE(intersects(b, a)); // symmetric
}

TEST(LineSet, MoveLeavesSourceEmptyAndReusable)
{
    LineSet a;
    for (std::size_t i = 0; i < LineSet::kInlineCapacity * 2; ++i)
        a.insert((i + 1) * kLineSize);
    LineSet b = std::move(a);
    EXPECT_EQ(b.size(), LineSet::kInlineCapacity * 2);
    EXPECT_TRUE(a.empty());
    EXPECT_TRUE(a.insert(0x40));
    EXPECT_TRUE(a.contains(0x40));
    EXPECT_EQ(a.size(), 1u);
}

// ---- ConflictManager unit tests -----------------------------------------

TEST(ConflictManager, WriteWriteConflictInsideTheWindow)
{
    ConflictManager cm(2);
    const Addr x = lineAddr(3, 0);

    cm.beginTx(1, 0); // core 1 opens its window at cycle 0
    cm.recordWrite(1, x);

    cm.beginTx(0, 0);
    cm.recordWrite(0, x);
    EXPECT_TRUE(cm.validate(0, 10)); // nobody committed yet
    cm.commitTx(0, 10, 0);           // core 0 commits at cycle 10

    // Core 0's commit lands inside core 1's [0, 20] window and both
    // wrote line x: first committer wins, core 1 must abort.
    EXPECT_FALSE(cm.validate(1, 20));
    EXPECT_EQ(cm.stats().writeWriteConflicts, 1u);
    EXPECT_EQ(cm.stats().readWriteConflicts, 0u);
}

TEST(ConflictManager, ReadWriteConflictInsideTheWindow)
{
    ConflictManager cm(2);
    const Addr x = lineAddr(3, 0);

    cm.beginTx(1, 0);
    cm.recordRead(1, x + 8); // same line, different offset
    cm.recordWrite(1, lineAddr(4, 0));

    cm.beginTx(0, 0);
    cm.recordWrite(0, x);
    cm.commitTx(0, 10, 0);

    EXPECT_FALSE(cm.validate(1, 20));
    EXPECT_EQ(cm.stats().readWriteConflicts, 1u);
    EXPECT_EQ(cm.stats().writeWriteConflicts, 0u);
}

TEST(ConflictManager, CommitBeforeTheWindowDoesNotConflict)
{
    ConflictManager cm(2);
    const Addr x = lineAddr(3, 0);

    cm.beginTx(0, 0);
    cm.recordWrite(0, x);
    cm.commitTx(0, 10, 0);

    // Core 1 begins after core 0's commit completed: no overlap.
    cm.beginTx(1, 15);
    cm.recordWrite(1, x);
    EXPECT_TRUE(cm.validate(1, 30));
}

TEST(ConflictManager, LaterCommitLosesToTheEarlierValidator)
{
    ConflictManager cm(2);
    const Addr x = lineAddr(3, 0);

    cm.beginTx(1, 0);
    cm.recordWrite(1, x);

    cm.beginTx(0, 0);
    cm.recordWrite(0, x);
    cm.commitTx(0, 50, 0); // core 0 is slow: commits at cycle 50

    // Core 1 validates at cycle 20 < 50: in simulated time core 1 is
    // the first committer and wins.
    EXPECT_TRUE(cm.validate(1, 20));
}

TEST(ConflictManager, DisabledOnASingleCore)
{
    ConflictManager cm(1);
    EXPECT_FALSE(cm.enabled());
    cm.beginTx(0, 0);
    cm.recordWrite(0, lineAddr(3, 0));
    EXPECT_EQ(cm.writeSetSize(0), 0u); // recording is a no-op
    EXPECT_TRUE(cm.validate(0, 100));
    cm.commitTx(0, 100, 0);
    EXPECT_EQ(cm.logSize(), 0u);
}

TEST(ConflictManager, RetryPenaltyBacksOffExponentiallyWithACap)
{
    // 40-cycle abort penalty plus a 64-cycle backoff that doubles per
    // consecutive abort, up to six doublings (4096 cycles).
    ConflictManager cm(2);
    Cycles backoff_total = 0;
    for (unsigned attempt = 1; attempt <= 9; ++attempt) {
        const Cycles backoff = Cycles{64} << std::min(attempt - 1, 6u);
        EXPECT_EQ(cm.retryPenalty(0, attempt), 40u + backoff)
            << "attempt " << attempt;
        backoff_total += backoff;
    }
    EXPECT_EQ(backoff_total, 64u * (1 + 2 + 4 + 8 + 16 + 32) + 3 * 4096u);
    EXPECT_EQ(cm.stats().aborts, 9u);
    EXPECT_EQ(cm.stats().retries, 9u);
    EXPECT_EQ(cm.stats().backoffCycles, backoff_total);
}

TEST(ConflictManager, CommitLogIsPrunedBelowEveryReachableWindow)
{
    ConflictManager cm(2);
    cm.beginTx(0, 0);
    cm.recordWrite(0, lineAddr(3, 0));
    cm.commitTx(0, 10, 0); // min core clock 0: record must stay
    EXPECT_EQ(cm.logSize(), 1u);

    cm.beginTx(0, 20);
    cm.recordWrite(0, lineAddr(4, 0));
    // Every core clock is at 20 now: the cycle-10 record can never
    // fall inside a future window again.
    cm.commitTx(0, 25, 20);
    EXPECT_EQ(cm.logSize(), 1u); // only the cycle-25 record survives
}

TEST(ConflictManager, AbortClearsTheInFlightFootprint)
{
    ConflictManager cm(2);
    cm.beginTx(0, 0);
    cm.recordRead(0, lineAddr(3, 0));
    cm.recordWrite(0, lineAddr(4, 0));
    EXPECT_TRUE(cm.inTx(0));
    cm.abortTx(0);
    EXPECT_FALSE(cm.inTx(0));
    EXPECT_EQ(cm.readSetSize(0), 0u);
    EXPECT_EQ(cm.writeSetSize(0), 0u);
    cm.abortTx(0); // idempotent
    EXPECT_EQ(cm.logSize(), 0u);
}

TEST(ConflictManager, IdlePeersPinThePruneFloor)
{
    // Only core 0 runs on a multi-core machine: the idle peers' clocks
    // stay at 0, so nothing can be pruned — a peer may still begin
    // below any of these commit points.
    ConflictManager cm(4);
    const Addr shared = lineAddr(7, 0);
    for (Cycles i = 0; i < 1000; ++i) {
        cm.beginTx(0, i * 10);
        cm.recordRead(0, shared);
        cm.recordWrite(0, i == 500 ? shared : lineAddr(100 + i, 0));
        ASSERT_TRUE(cm.validate(0, i * 10 + 5));
        cm.commitTx(0, i * 10 + 5, 0);
    }
    EXPECT_EQ(cm.logSize(), 1000u);

    // Core 0's own records never conflict with it, though its read set
    // meets their postings inside its window.
    cm.beginTx(0, 4000);
    cm.recordRead(0, shared);
    cm.recordWrite(0, lineAddr(100, 0));
    EXPECT_TRUE(cm.validate(0, 10000));
    cm.commitTx(0, 10000, 0);
    EXPECT_EQ(cm.logSize(), 1001u);

    // A peer beginning at its idle clock 0 read the line core 0 wrote
    // at cycle 5005, inside the peer's (0, 20000] window.
    cm.beginTx(1, 0);
    cm.recordRead(1, shared);
    EXPECT_FALSE(cm.validate(1, 20000));
    EXPECT_EQ(cm.stats().readWriteConflicts, 1u);
    EXPECT_EQ(cm.stats().writeWriteConflicts, 0u);
    cm.abortTx(1);

    // Once every clock passes the last commit point, the log drains.
    cm.beginTx(2, 30000);
    cm.recordWrite(2, lineAddr(9, 0));
    EXPECT_TRUE(cm.validate(2, 30010));
    cm.commitTx(2, 30010, 30010);
    EXPECT_EQ(cm.logSize(), 0u);

    // A pruned peer record's posting lingers while core 0's newer
    // record keeps the log non-empty; it lies below every later
    // window, so core 0 still validates against only its own record.
    cm.beginTx(1, 30010);
    cm.recordWrite(1, shared);
    cm.commitTx(1, 30020, 30010);
    cm.beginTx(0, 30030);
    cm.recordWrite(0, lineAddr(8, 0));
    cm.commitTx(0, 30040, 30030);
    EXPECT_EQ(cm.logSize(), 1u);
    cm.beginTx(0, 30050);
    cm.recordRead(0, shared);
    EXPECT_TRUE(cm.validate(0, 30060));
}

// ---- rollback through the backend abort machinery -----------------------

/**
 * Drive the exact sequence Workload::runTx models, with explicit
 * validation times: core 1 opens a transaction, core 0 commits a
 * conflicting write inside core 1's window, and core 1 must abort,
 * restore the pre-transaction image, and succeed on retry.
 */
template <typename Backend>
void
conflictRollbackRoundTrip(Backend &be)
{
    Machine &m = be.machine();
    ConflictManager &cm = m.conflicts();
    const Addr addr = pageBase(2) + 16;
    txWrite64(be, 0, addr, 1); // committed pre-state

    be.begin(1); // core 1's window opens first
    txWrite64(be, 0, addr, 2); // peer commit lands inside the window
    std::uint64_t v = 3;
    be.store(1, addr, &v, sizeof(v));
    EXPECT_EQ(timed64(be, 1, addr), 3u); // sees its own speculation

    // Validation at a point after the peer commit: core 1 loses.
    ASSERT_FALSE(cm.validate(1, m.maxClock()));
    be.abort(1);
    m.clock(1) += cm.retryPenalty(1, 1);

    // The abort restored the last committed image.
    EXPECT_EQ(raw64(be, addr), 2u);

    // The retry re-executes and commits cleanly: its window starts
    // after the conflicting commit.
    m.syncClocks();
    be.begin(1);
    v = 3;
    be.store(1, addr, &v, sizeof(v));
    ASSERT_TRUE(cm.validate(1, m.clock(1)));
    be.commit(1);
    EXPECT_EQ(raw64(be, addr), 3u);
    EXPECT_EQ(cm.stats().aborts, 1u);
    EXPECT_EQ(cm.stats().retries, 1u);
}

TEST(ConflictRollback, SspCowFlipMachineryRestoresTheImage)
{
    SspSystem sys(smallConfig(2));
    conflictRollbackRoundTrip(sys);
}

TEST(ConflictRollback, UndoLogRollbackRestoresTheImage)
{
    UndoLogBackend be(smallConfig(2));
    conflictRollbackRoundTrip(be);
}

TEST(ConflictRollback, SspWriteSetMirrorsTheTxBitTaggedLines)
{
    // The conflict write set is the virtual-line view of exactly the
    // speculative lines the hierarchy tags with the TX bit.
    SspSystem sys(smallConfig(2));
    Machine &m = sys.machine();
    ConflictManager &cm = m.conflicts();
    const Addr addr = pageBase(3) + 24;
    txWrite64(sys, 0, addr, 7);

    sys.begin(1);
    std::uint64_t v = 8;
    sys.store(1, addr, &v, sizeof(v));
    EXPECT_EQ(cm.writeSetSize(1), 1u);

    SspCache &sc = sys.controller().cache();
    const SlotId sid = sc.findSlot(pageOf(addr));
    ASSERT_NE(sid, kInvalidSlot);
    const SspCacheEntry &e = sc.entry(sid);
    const unsigned li = lineIndexInPage(addr);
    const Addr spec = lineAddr(e.current.test(li) ? e.ppn1 : e.ppn0, li);
    EXPECT_TRUE(m.caches().txBitSet(1, spec));

    sys.abort(1);
    EXPECT_EQ(cm.writeSetSize(1), 0u);
    EXPECT_FALSE(m.caches().txBitSet(1, spec));
    EXPECT_EQ(raw64(sys, addr), 7u);
}

// ---- end-to-end: driver, counters, reports ------------------------------

/** A contended 2-core Zipf cell that deterministically conflicts. */
RunResult
contendedRun()
{
    SweepGridOptions opts;
    opts.backends = {BackendKind::UndoLog};
    opts.workloads = {WorkloadKind::BTreeZipf};
    const auto cells = gridCells(
        "scale", [](const SweepCell &c) { return c.cores == 2; }, opts);
    const auto results = runSweep(cells, 1);
    EXPECT_EQ(results.size(), 1u);
    EXPECT_TRUE(results[0].ok) << results[0].error;
    return results[0].run;
}

TEST(ConflictEndToEnd, ZipfContentionProducesAbortsAndRetries)
{
    const RunResult run = contendedRun();
    EXPECT_GT(run.txAborts, 0u);
    EXPECT_EQ(run.txRetries, run.txAborts);
    EXPECT_EQ(run.conflictsWriteWrite + run.conflictsReadWrite,
              run.txAborts);
    EXPECT_GT(run.backoffCycles, 0u);
    // Every transaction still commits exactly once.
    EXPECT_EQ(run.committedTxs, 400u);
    EXPECT_EQ(run.backend, std::string("UNDO-LOG"));
}

TEST(ConflictEndToEnd, ContendedRunStaysFunctionallyCorrect)
{
    WorkloadScale scale;
    scale.keySpace = 256;
    scale.seed = 11;
    Experiment exp = buildExperiment(BackendKind::Ssp,
                                     WorkloadKind::HashZipf,
                                     smallConfig(4), scale);
    RunResult res = runExperiment(exp, 240, 4);
    EXPECT_TRUE(exp.workload->verify());
    EXPECT_EQ(res.committedTxs, 240u);
}

TEST(ConflictEndToEnd, AbortCountersAreDeterministicAcrossJobs)
{
    SweepGridOptions opts;
    opts.backends = {BackendKind::UndoLog, BackendKind::Ssp};
    opts.workloads = {WorkloadKind::BTreeZipf, WorkloadKind::HashZipf};
    const auto cells = gridCells("scale", [](const SweepCell &c) {
        return c.cores == 2 || c.cores == 4;
    }, opts);
    ASSERT_EQ(cells.size(), 2u * 2u * 2u);

    const std::vector<CellResult> serial = runSweep(cells, 1);
    const std::vector<CellResult> parallel = runSweep(cells, 4);
    ASSERT_EQ(serial.size(), parallel.size());
    std::uint64_t total_aborts = 0;
    for (std::size_t i = 0; i < serial.size(); ++i) {
        ASSERT_TRUE(serial[i].ok) << serial[i].error;
        const RunResult &a = serial[i].run;
        const RunResult &b = parallel[i].run;
        EXPECT_EQ(a.cycles, b.cycles);
        EXPECT_EQ(a.txAborts, b.txAborts);
        EXPECT_EQ(a.txRetries, b.txRetries);
        EXPECT_EQ(a.conflictsWriteWrite, b.conflictsWriteWrite);
        EXPECT_EQ(a.conflictsReadWrite, b.conflictsReadWrite);
        EXPECT_EQ(a.backoffCycles, b.backoffCycles);
        total_aborts += a.txAborts;
    }
    EXPECT_GT(total_aborts, 0u);
}

TEST(ConflictEndToEnd, SingleCoreCellsMatchTheCheckedInSmokeReport)
{
    // The acceptance bar: with conflict handling in the tree, the
    // single-core model must reproduce the checked-in smoke report bit
    // for bit (no recording, no validation, no timing drift).
    expectReplaysCheckedIn("smoke", buildFigureGrid("smoke"));
}

} // namespace
} // namespace ssp::test

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
#include <random>
#include <set>

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

TEST(LineSet, LargeDescendingInsertStaysSortedAndUnique)
{
    LineSet s;
    // Descending order puts every insert at the front, with dups.
    const std::size_t n = 1000;
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
    EXPECT_FALSE(s.contains((n + 1) * kLineSize));

    // clear() leaves a reusable, empty set.
    s.clear();
    EXPECT_TRUE(s.empty());
    EXPECT_TRUE(s.insert(0x40));
    EXPECT_EQ(s.size(), 1u);
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

TEST(ConflictManager, ResetEmptiesThePostingIndex)
{
    ConflictManager cm(2);
    const Addr x = lineAddr(3, 0);
    cm.beginTx(0, 0);
    cm.recordWrite(0, x);
    cm.commitTx(0, 10, 0);
    EXPECT_EQ(cm.indexedLines(), 1u);

    // A power failure drops the log and the index with it.
    cm.reset();
    EXPECT_EQ(cm.logSize(), 0u);
    EXPECT_EQ(cm.indexedLines(), 0u);

    // Core 1's (0, 20] window covers the lost cycle-10 commit of x, but
    // its posting is gone: neither a read nor a write of x conflicts.
    cm.beginTx(1, 0);
    cm.recordRead(1, x);
    cm.recordWrite(1, x);
    EXPECT_TRUE(cm.validate(1, 20));
    cm.commitTx(1, 20, 0);
    EXPECT_EQ(cm.indexedLines(), 1u);

    // The index refills after the reset: core 0's (0, 30] window meets
    // core 1's cycle-20 posting of x, the only one the index holds.
    cm.beginTx(0, 0);
    cm.recordRead(0, x);
    EXPECT_FALSE(cm.validate(0, 30));
    EXPECT_EQ(cm.stats().readWriteConflicts, 1u);
    EXPECT_EQ(cm.stats().writeWriteConflicts, 0u);
}

TEST(ConflictManager, RepeatedReadsKeepTheVerdictAndItsClass)
{
    const Addr x = lineAddr(3, 0);
    const Addr y = lineAddr(4, 0);
    const Addr z = lineAddr(5, 0);
    for (bool reread : {false, true}) {
        SCOPED_TRACE(reread);
        ConflictManager cm(2);
        // Core 0 publishes x at cycle 10, then z at cycle 12.
        cm.beginTx(0, 0);
        cm.recordWrite(0, x);
        cm.commitTx(0, 10, 0);
        cm.beginTx(0, 10);
        cm.recordWrite(0, z);
        cm.commitTx(0, 12, 0);

        // Core 1 reads x, then y; with reread it goes back to x and y.
        // A repeat of the line read just before is recorded once, a
        // line read again after another is recorded again.
        cm.beginTx(1, 0);
        cm.recordRead(1, x);
        cm.recordRead(1, x + 8);
        cm.recordRead(1, y);
        if (reread) {
            cm.recordRead(1, x + 16);
            cm.recordRead(1, y);
        }
        EXPECT_EQ(cm.readSetSize(1), reread ? 4u : 2u);
        // x's record comes first in the log, so the verdict is
        // read-write although the write of z meets the later record.
        cm.recordWrite(1, z);
        EXPECT_FALSE(cm.validate(1, 20));
        EXPECT_EQ(cm.stats().readWriteConflicts, 1u);
        EXPECT_EQ(cm.stats().writeWriteConflicts, 0u);
        cm.abortTx(1);

        // Against the cycle-12 record alone, a write of z ties with a
        // (re-)read of z: a tie classes write-write.
        cm.beginTx(1, 10);
        cm.recordRead(1, z);
        cm.recordRead(1, y);
        if (reread)
            cm.recordRead(1, z);
        cm.recordWrite(1, z);
        EXPECT_FALSE(cm.validate(1, 20));
        EXPECT_EQ(cm.stats().readWriteConflicts, 1u);
        EXPECT_EQ(cm.stats().writeWriteConflicts, 1u);
    }
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

/** The shape of one differential run of validate(). */
struct DiffShape
{
    unsigned cores;
    /** Lines the footprints draw from.  Past 192, three draws in four
     *  range over all of them and the rest over the first 192, so both
     *  conflict kinds still occur. */
    std::uint64_t lines = 192;
    /** Steps between round barriers (every open transaction finishes,
     *  then every clock catches up), which drain the log; 0: none. */
    int roundSteps = 0;
    /** Each round after the first lasts as long as all before it, so
     *  it outgrows them: the index grows after drains, over stale
     *  slots. */
    bool doublingRounds = false;
    /** A fifth of the loads go back to a line the footprint read
     *  earlier, though not the line it read last. */
    bool rereads = false;
};

/** What a differential run went through, for its shape's checks. */
struct DiffRun
{
    unsigned drains = 0;          ///< commits that emptied the log
    std::size_t maxIndexed = 0;   ///< most lines the index held at once
    unsigned rereads = 0;         ///< loads the read record holds twice
};

/**
 * Differential check of validate() against the definition it indexes:
 * scan every published record in log order and stop at the first one
 * committed by a peer inside the (begin, now] window that overlaps the
 * footprint, write-write before read-write within a record.  Random
 * multi-core footprints, some far larger than a Table 3 write set,
 * drawn so that both conflict kinds occur; the verdict and the
 * classification must match on every validation.
 */
DiffRun
differentialValidation(const DiffShape &shape, std::uint64_t seed)
{
    struct Record
    {
        Cycles commitCycle;
        CoreId core;
        std::set<Addr> writes;
    };
    struct Open
    {
        bool active = false;
        bool validated = false;
        Cycles begin = 0;
        Cycles validatedAt = 0;
        std::set<Addr> reads, writes;
        std::vector<Addr> readOrder; ///< lines in first-read order
        Addr lastRead = ~Addr{0};
        std::size_t recorded = 0; ///< read record length to expect
    };
    const unsigned cores = shape.cores;
    ConflictManager cm(cores);
    std::mt19937_64 rng(seed);
    auto draw = [&](std::uint64_t n) { return rng() % n; };
    std::vector<Record> published;
    std::vector<Open> open(cores);
    std::vector<Cycles> clock(cores, 0);
    auto min_clock = [&] {
        return *std::min_element(clock.begin(), clock.end());
    };
    auto catch_up_idle = [&] {
        const Cycles top = *std::max_element(clock.begin(), clock.end());
        for (CoreId k = 0; k < cores; ++k) {
            if (!open[k].active)
                clock[k] = top;
        }
    };
    unsigned verdicts[2] = {0, 0};
    unsigned ww = 0, rw = 0;
    DiffRun run;

    auto read = [&](CoreId c, Addr line) {
        Open &tx = open[c];
        cm.recordRead(c, line + draw(kLineSize));
        if (tx.reads.insert(line).second)
            tx.readOrder.push_back(line);
        else if (line != tx.lastRead)
            ++run.rereads;
        tx.recorded += line != tx.lastRead;
        tx.lastRead = line;
    };
    auto begin = [&](CoreId c) {
        Open &tx = open[c];
        // Occasionally a barrier for the idle cores: their clocks
        // catch up.
        if (draw(16) == 0)
            catch_up_idle();
        clock[c] += 1 + draw(4);
        // A quarter of the windows open at the lowest clock instead,
        // which no prune floor has passed: they reach back over
        // the core's own records.
        const Cycles at = draw(4) == 0 ? min_clock() : clock[c];
        cm.beginTx(c, at);
        tx = Open{};
        tx.active = true;
        tx.begin = at;
        // Mostly small footprints, one in five far past 16 lines.
        const std::uint64_t lines =
            draw(5) == 0 ? 17 + draw(40) : 1 + draw(4);
        for (std::uint64_t i = 0; i < lines; ++i) {
            if (shape.rereads && tx.readOrder.size() > 1 &&
                draw(5) == 0) {
                // Back to an earlier line, never the last one read.
                Addr line;
                do {
                    line = tx.readOrder[draw(tx.readOrder.size())];
                } while (line == tx.lastRead);
                read(c, line);
                clock[c] += draw(8);
                continue;
            }
            const std::uint64_t universe =
                shape.lines > 192 && draw(4) != 0 ? shape.lines : 192;
            const Addr line = draw(universe) * kLineSize;
            if (draw(3) == 0) {
                cm.recordWrite(c, line + draw(kLineSize));
                tx.writes.insert(line);
            } else {
                read(c, line);
            }
            clock[c] += draw(8);
        }
        EXPECT_EQ(cm.readSetSize(c), tx.recorded);
    };
    // Validate (nine times in ten) and commit @p c's transaction.
    auto finish = [&](CoreId c) {
        Open &tx = open[c];
        clock[c] += draw(20);
        const Cycles now = clock[c];
        // A tenth of the commits skip validation (the direct-driver
        // path): their record is stamped at the ack time instead.
        if (draw(10) != 0) {
            int expect = 0; // 0: commits, 1: write-write, 2: read-write
            for (const Record &r : published) {
                if (r.core == c || r.commitCycle <= tx.begin ||
                    r.commitCycle > now)
                    continue;
                auto meets = [&](const std::set<Addr> &fp) {
                    return std::any_of(
                        fp.begin(), fp.end(),
                        [&](Addr l) { return r.writes.contains(l); });
                };
                expect = meets(tx.writes) ? 1 : meets(tx.reads) ? 2 : 0;
                if (expect != 0)
                    break;
            }
            const ConflictStats before = cm.stats();
            const bool ok = cm.validate(c, now);
            EXPECT_EQ(ok, expect == 0);
            ++verdicts[ok];
            EXPECT_EQ(cm.stats().writeWriteConflicts -
                          before.writeWriteConflicts,
                      expect == 1 ? 1u : 0u);
            EXPECT_EQ(cm.stats().readWriteConflicts -
                          before.readWriteConflicts,
                      expect == 2 ? 1u : 0u);
            ww += expect == 1;
            rw += expect == 2;
            if (!ok) {
                cm.abortTx(c);
                clock[c] += cm.retryPenalty(c, 1);
                tx.active = false;
                return;
            }
            tx.validated = true;
            tx.validatedAt = now;
        }
        clock[c] += draw(50); // the commit's durability ack
        const std::size_t logged = cm.logSize();
        cm.commitTx(c, clock[c], min_clock());
        // The log drained when at most this commit's record is left.
        if (logged > 0 && cm.logSize() <= (tx.writes.empty() ? 0u : 1u))
            ++run.drains;
        run.maxIndexed = std::max(run.maxIndexed, cm.indexedLines());
        if (!tx.writes.empty()) {
            published.push_back(
                {tx.validated ? tx.validatedAt : clock[c], c, tx.writes});
        }
        tx.active = false;
    };

    int barrier = shape.roundSteps;
    for (int step = 0; step < 6000 && !::testing::Test::HasFailure();
         ++step) {
        SCOPED_TRACE(step);
        if (shape.roundSteps != 0 && step == barrier) {
            barrier = shape.doublingRounds ? 2 * step
                                           : step + shape.roundSteps;
            // A round barrier: every transaction finishes, then every
            // clock catches up past every commit point.
            for (CoreId k = 0; k < cores; ++k) {
                if (open[k].active)
                    finish(k);
            }
            catch_up_idle();
        }
        const CoreId c = static_cast<CoreId>(draw(cores));
        if (open[c].active)
            finish(c);
        else
            begin(c);
    }
    // The draw must exercise every outcome, or the check shows little.
    EXPECT_GT(verdicts[true], 100u);
    EXPECT_GT(ww, 20u);
    EXPECT_GT(rw, 20u);
    return run;
}

TEST(ConflictManager, ValidateMatchesABruteForceScanOfTheLog)
{
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        SCOPED_TRACE(seed);
        differentialValidation({.cores = 4}, seed);
        differentialValidation({.cores = 16}, seed);

        // 64 Ki lines and rounds that double in length: each round
        // grows the index past the size of the one before while it is
        // under way, far past its first capacity.
        DiffRun run = differentialValidation({.cores = 16,
                                              .lines = 64 * 1024,
                                              .roundSteps = 40,
                                              .doublingRounds = true},
                                             seed);
        EXPECT_GE(run.drains, 7u);
        EXPECT_GT(run.maxIndexed, 2048u);

        // Hundreds of round drains: every generation reuses stale slots
        // and the pooled posting lists of the rounds before it.
        run = differentialValidation(
            {.cores = 8, .lines = 1024, .roundSteps = 12}, seed);
        EXPECT_GE(run.drains, 300u);

        // Footprints go back to lines read earlier, so the read record
        // holds duplicates.
        run = differentialValidation(
            {.cores = 8, .roundSteps = 40, .rereads = true}, seed);
        EXPECT_GT(run.rereads, 1000u);
    }
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

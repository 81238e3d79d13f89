/**
 * @file
 * Unit tests for the baseline designs: UNDO-LOG, REDO-LOG (DHTM-style)
 * and conventional SHADOW paging — functional correctness, crash
 * semantics, and the write-traffic signatures each design must show.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "baselines/backend_factory.hh"
#include "baselines/redo_log.hh"
#include "baselines/shadow_paging.hh"
#include "baselines/undo_log.hh"
#include "tests/test_helpers.hh"
#include "workloads/tx_heap.hh"

using namespace ssp;
using namespace ssp::test;

namespace
{

// ---- shared conformance suite over all backends -------------------------

class BackendConformanceTest
    : public ::testing::TestWithParam<BackendKind>
{
  protected:
    void
    SetUp() override
    {
        be = makeBackend(GetParam(), smallConfig());
    }

    std::unique_ptr<AtomicityBackend> be;
};

TEST_P(BackendConformanceTest, CommitMakesDataVisible)
{
    txWrite64(*be, 0, 0x1008, 42);
    EXPECT_EQ(raw64(*be, 0x1008), 42u);
    EXPECT_EQ(timed64(*be, 0, 0x1008), 42u);
}

TEST_P(BackendConformanceTest, TxSeesOwnWrites)
{
    be->begin(0);
    std::uint64_t v = 5;
    be->store(0, 0x2000, &v, sizeof(v));
    EXPECT_EQ(timed64(*be, 0, 0x2000), 5u);
    v = 6;
    be->store(0, 0x2000, &v, sizeof(v));
    EXPECT_EQ(timed64(*be, 0, 0x2000), 6u);
    be->commit(0);
    EXPECT_EQ(raw64(*be, 0x2000), 6u);
}

TEST_P(BackendConformanceTest, AbortDiscardsWrites)
{
    txWrite64(*be, 0, 0x3000, 1);
    be->begin(0);
    std::uint64_t v = 2;
    be->store(0, 0x3000, &v, sizeof(v));
    be->abort(0);
    EXPECT_EQ(raw64(*be, 0x3000), 1u);
}

TEST_P(BackendConformanceTest, CrashMidTxRollsBack)
{
    txWrite64(*be, 0, 0x4000, 7);
    be->begin(0);
    std::uint64_t v = 8;
    be->store(0, 0x4000, &v, sizeof(v));
    be->store(0, 0x5000, &v, sizeof(v));
    be->crash();
    be->recover();
    EXPECT_EQ(raw64(*be, 0x4000), 7u);
    EXPECT_EQ(raw64(*be, 0x5000), 0u);
}

TEST_P(BackendConformanceTest, CommittedTxSurvivesCrash)
{
    txWrite64(*be, 0, 0x6000, 0xfe);
    txWrite64(*be, 0, 0x6040, 0xff);
    be->crash();
    be->recover();
    EXPECT_EQ(raw64(*be, 0x6000), 0xfeu);
    EXPECT_EQ(raw64(*be, 0x6040), 0xffu);
}

TEST_P(BackendConformanceTest, MultiLineStoreSplits)
{
    // Backends take one line per access; TxHeap splits wider spans.
    TxHeap heap(*be);
    std::uint8_t buf[200];
    for (unsigned i = 0; i < sizeof(buf); ++i)
        buf[i] = static_cast<std::uint8_t>(i ^ 0x5a);
    be->begin(0);
    heap.storeBytes(0, 0x7020, buf, sizeof(buf)); // unaligned, 4 lines
    std::uint8_t seen[200] = {};
    heap.loadBytes(0, 0x7020, seen, sizeof(seen)); // the tx's own writes
    be->commit(0);
    EXPECT_EQ(std::memcmp(buf, seen, sizeof(buf)), 0);
    std::uint8_t out[200] = {};
    heap.loadBytes(0, 0x7020, out, sizeof(out));
    EXPECT_EQ(std::memcmp(buf, out, sizeof(buf)), 0);
    for (unsigned i = 0; i < sizeof(buf); i += 8) {
        const Addr a = 0x7020 + i;
        std::uint8_t byte = 0;
        be->loadRaw(a, &byte, 1);
        EXPECT_EQ(byte, buf[i]) << "offset " << i;
    }
}

TEST_P(BackendConformanceTest, LineCrossingAccessThrows)
{
    // One access, one cache line: a span over a line boundary is a
    // caller bug, caught in every build type.
    std::uint8_t buf[16] = {};
    const Addr crossing = 0x7038; // 8 bytes left in its line
    EXPECT_THROW(be->storeRaw(crossing, buf, sizeof(buf)), std::logic_error);
    EXPECT_THROW(be->loadRaw(crossing, buf, sizeof(buf)), std::logic_error);
    be->begin(0);
    EXPECT_THROW(be->load(0, crossing, buf, sizeof(buf)), std::logic_error);
    EXPECT_THROW(be->store(0, crossing, buf, sizeof(buf)), std::logic_error);
    // Nothing was stored; the open transaction still commits cleanly.
    be->commit(0);
    EXPECT_EQ(raw64(*be, 0x7038), 0u);
    EXPECT_EQ(raw64(*be, 0x7040), 0u);
}

TEST_P(BackendConformanceTest, CharacterizationSampled)
{
    txWrite64(*be, 0, 0x8000, 1);
    EXPECT_EQ(be->characterization().linesPerTx.count(), 1u);
    EXPECT_EQ(be->characterization().pagesPerTx.count(), 1u);
    EXPECT_EQ(be->committedTxs(), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, BackendConformanceTest,
    ::testing::Values(BackendKind::Ssp, BackendKind::UndoLog,
                      BackendKind::RedoLog, BackendKind::Shadow),
    [](const ::testing::TestParamInfo<BackendKind> &info) {
        std::string n = backendKindName(info.param);
        for (auto &ch : n)
            if (ch == '-')
                ch = '_';
        return n;
    });

// ---- design-specific signatures -----------------------------------------

TEST(UndoLog, LogsOncePerLineNotPerStore)
{
    UndoLogBackend be(smallConfig());
    be.begin(0);
    std::uint64_t v = 1;
    // Ten stores to the same line: one undo record.
    for (int i = 0; i < 10; ++i)
        be.store(0, 0x1000, &v, sizeof(v));
    const std::uint64_t writes_one_line =
        be.machine().bus().nvramWrites(WriteCategory::UndoLog);
    be.commit(0);
    EXPECT_LE(writes_one_line, 2u); // one 80-byte record spans <= 2 lines
}

TEST(UndoLog, StoreStallsOnLogPersistence)
{
    UndoLogBackend be(smallConfig());
    const Cycles before = be.machine().clock(0);
    be.begin(0);
    std::uint64_t v = 1;
    be.store(0, 0x1000, &v, sizeof(v));
    // The store had to wait for an NVRAM write (>= write latency).
    EXPECT_GT(be.machine().clock(0) - before,
              be.machine().cfg().nvram.writeLatency / 2);
    be.commit(0);
}

TEST(RedoLog, StoresDoNotStallOnNvram)
{
    RedoLogBackend redo(smallConfig());
    UndoLogBackend undo(smallConfig());
    auto run = [](AtomicityBackend &be) {
        const Cycles start = be.machine().clock(0);
        be.begin(0);
        for (unsigned i = 0; i < 8; ++i) {
            std::uint64_t v = i;
            be.store(0, 0x1000 + i * kLineSize, &v, sizeof(v));
        }
        const Cycles stores_done = be.machine().clock(0) - start;
        be.commit(0);
        return stores_done;
    };
    // Redo's store phase must be much cheaper than undo's (no
    // log-before-data stall).
    EXPECT_LT(run(redo) * 2, run(undo));
}

TEST(RedoLog, CrashBetweenCommitPhasesReplaysLog)
{
    RedoLogBackend be(smallConfig());
    txWrite64(be, 0, 0x2000, 1);

    be.begin(0);
    std::uint64_t v = 2;
    be.store(0, 0x2000, &v, sizeof(v));
    v = 3;
    be.store(0, 0x2040, &v, sizeof(v));
    // Phase 1 persists the log + marker: the commit point.
    be.commitPhase1(0);
    // Crash before the in-place apply: recovery must replay.
    be.crash();
    be.recover();
    EXPECT_EQ(raw64(be, 0x2000), 2u);
    EXPECT_EQ(raw64(be, 0x2040), 3u);
}

TEST(RedoLog, OneLogRecordPerDistinctLine)
{
    RedoLogBackend be(smallConfig());
    be.begin(0);
    std::uint64_t v = 1;
    for (int i = 0; i < 20; ++i)
        be.store(0, 0x3000, &v, sizeof(v)); // same line repeatedly
    be.store(0, 0x3040, &v, sizeof(v));     // second line
    be.commit(0);
    // 2 data records (80 B each) + marker (8 B) = 168 B <= 3 lines.
    EXPECT_LE(be.machine().bus().nvramWrites(WriteCategory::RedoLog), 3u);
}

TEST(Shadow, WholePageFlushedPerTouchedPage)
{
    ShadowPagingBackend be(smallConfig());
    txWrite64(be, 0, pageBase(5) + 8, 1); // one 8-byte store
    // The commit persisted all 64 lines of the shadow page.
    EXPECT_GE(be.machine().bus().nvramWrites(WriteCategory::PageCopy), 64u);
}

TEST(Shadow, MappingSwitchesToShadowPage)
{
    auto cfg = smallConfig();
    ShadowPagingBackend be(cfg);
    const Ppn before = be.machine().pt().translate(6);
    txWrite64(be, 0, pageBase(6), 9);
    const Ppn after = be.machine().pt().translate(6);
    EXPECT_NE(before, after);
    EXPECT_EQ(raw64(be, pageBase(6)), 9u);
}

TEST(Shadow, PeerCoreSeesTheCommittedMapping)
{
    // A commit remaps the page, so every core's cached translation of
    // it is stale, not only the committing core's.
    ShadowPagingBackend be(smallConfig(2));
    txWrite64(be, 0, pageBase(6), 1);
    EXPECT_EQ(timed64(be, 1, pageBase(6)), 1u); // core 1 caches the vpn
    txWrite64(be, 0, pageBase(6), 2);
    EXPECT_EQ(raw64(be, pageBase(6)), 2u);
    EXPECT_EQ(timed64(be, 1, pageBase(6)), 2u);
}

TEST(Shadow, RepeatedTxsRecyclePages)
{
    ShadowPagingBackend be(smallConfig());
    // Many transactions on the same page must not leak pool pages.
    for (unsigned i = 0; i < 100; ++i)
        txWrite64(be, 0, pageBase(7) + (i % 8) * 64, i);
    EXPECT_EQ(raw64(be, pageBase(7) + 7 * 64), 95u);
}

TEST(UndoLog, RecoveryRollsBackNewestFirst)
{
    UndoLogBackend be(smallConfig());
    // Two updates to the same line in ONE tx: only the first is logged,
    // and rollback must restore the pre-tx value.
    txWrite64(be, 0, 0x9000, 100);
    be.begin(0);
    std::uint64_t v = 200;
    be.store(0, 0x9000, &v, sizeof(v));
    v = 300;
    be.store(0, 0x9000, &v, sizeof(v));
    be.crash();
    be.recover();
    EXPECT_EQ(raw64(be, 0x9000), 100u);
}

} // namespace

/**
 * @file
 * Unit tests of the SSP engine: the atomic-update path (Figure 4),
 * commit and abort semantics, bitmap invariants, TLB-driven metadata
 * fetches, write-set overflow, and multi-page transactions.
 */

#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "core/recovery.hh"
#include "core/ssp_system.hh"
#include "tests/test_helpers.hh"

using namespace ssp;
using namespace ssp::test;

namespace
{

class SspEngineTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        sys = std::make_unique<SspSystem>(smallConfig());
    }

    SspCacheEntry &
    entryFor(Addr vaddr)
    {
        SlotId sid = sys->controller().cache().findSlot(pageOf(vaddr));
        EXPECT_NE(sid, kInvalidSlot);
        return sys->controller().cache().entry(sid);
    }

    std::unique_ptr<SspSystem> sys;
};

TEST_F(SspEngineTest, CommittedStoreIsReadable)
{
    const Addr addr = 0x1040;
    txWrite64(*sys, 0, addr, 0xdeadbeef);
    EXPECT_EQ(raw64(*sys, addr), 0xdeadbeefu);
    EXPECT_EQ(timed64(*sys, 0, addr), 0xdeadbeefu);
}

TEST_F(SspEngineTest, FirstWriteFlipsCurrentBitOnly)
{
    const Addr addr = 0x2000; // page 2, line 0
    sys->begin(0);
    std::uint64_t v = 7;
    sys->store(0, addr, &v, sizeof(v));

    SspCacheEntry &e = entryFor(addr);
    EXPECT_TRUE(e.current.test(0));    // flipped to P1
    EXPECT_FALSE(e.committed.test(0)); // durable state unchanged
    EXPECT_EQ(e.coreRefCount, 1u);

    sys->commit(0);
    EXPECT_TRUE(e.committed.test(0)); // commit XORs updated in
    EXPECT_TRUE(e.current.test(0));
    EXPECT_EQ(e.coreRefCount, 0u);
}

TEST_F(SspEngineTest, SecondWriteToSameLineDoesNotFlipAgain)
{
    const Addr addr = 0x3000;
    sys->begin(0);
    std::uint64_t v = 1;
    sys->store(0, addr, &v, sizeof(v));
    SspCacheEntry &e = entryFor(addr);
    const Bitmap64 current_after_first = e.current;

    v = 2;
    sys->store(0, addr, &v, sizeof(v));
    EXPECT_EQ(e.current.raw(), current_after_first.raw());
    sys->commit(0);
    EXPECT_EQ(raw64(*sys, addr), 2u);
}

TEST_F(SspEngineTest, WritesAlternateBetweenPhysicalPages)
{
    const Addr addr = 0x4000;
    txWrite64(*sys, 0, addr, 10);
    SspCacheEntry &e = entryFor(addr);
    EXPECT_TRUE(e.committed.test(0)); // first commit landed in P1

    txWrite64(*sys, 0, addr, 20);
    EXPECT_FALSE(e.committed.test(0)); // second commit back in P0
    EXPECT_EQ(raw64(*sys, addr), 20u);

    // Both physical copies exist; the stale one holds the old value.
    PhysMem &mem = sys->machine().mem();
    EXPECT_EQ(mem.read64(lineAddr(e.ppn0, 0)), 20u);
    EXPECT_EQ(mem.read64(lineAddr(e.ppn1, 0)), 10u);
}

TEST_F(SspEngineTest, AbortRestoresCommittedView)
{
    const Addr addr = 0x5000;
    txWrite64(*sys, 0, addr, 111);

    sys->begin(0);
    std::uint64_t v = 222;
    sys->store(0, addr, &v, sizeof(v));
    // Speculative value visible inside the transaction...
    EXPECT_EQ(timed64(*sys, 0, addr), 222u);
    sys->abort(0);

    // ...but the committed value is restored after abort.
    EXPECT_EQ(raw64(*sys, addr), 111u);
    EXPECT_EQ(timed64(*sys, 0, addr), 111u);
    SspCacheEntry &e = entryFor(addr);
    EXPECT_EQ(e.current.raw(), e.committed.raw());
    EXPECT_EQ(e.coreRefCount, 0u);
}

TEST_F(SspEngineTest, PartialLineWritePreservesRestOfLine)
{
    const Addr line = 0x6000;
    // Commit a full-line pattern first.
    sys->begin(0);
    std::uint8_t pattern[kLineSize];
    for (unsigned i = 0; i < kLineSize; ++i)
        pattern[i] = static_cast<std::uint8_t>(i);
    sys->store(0, line, pattern, sizeof(pattern));
    sys->commit(0);

    // Overwrite bytes 8..15 only; line-level CoW must carry the rest.
    txWrite64(*sys, 0, line + 8, 0xffffffffffffffffull);

    std::uint8_t out[kLineSize];
    sys->loadRaw(line, out, sizeof(out));
    for (unsigned i = 0; i < kLineSize; ++i) {
        if (i >= 8 && i < 16)
            EXPECT_EQ(out[i], 0xff);
        else
            EXPECT_EQ(out[i], static_cast<std::uint8_t>(i));
    }
}

TEST_F(SspEngineTest, MultiPageTransactionIsAtomic)
{
    sys->begin(0);
    for (unsigned p = 0; p < 8; ++p) {
        std::uint64_t v = 100 + p;
        sys->store(0, pageBase(10 + p), &v, sizeof(v));
    }
    sys->commit(0);
    for (unsigned p = 0; p < 8; ++p)
        EXPECT_EQ(raw64(*sys, pageBase(10 + p)), 100u + p);
    EXPECT_EQ(sys->engine(0).stats().commits, 1u);
}

TEST_F(SspEngineTest, RandomCommitAbortMixMatchesOracle)
{
    // 50 transactions over ten pages, a fifth of them aborted: the
    // committed image holds exactly the committed transactions' stores.
    Rng rng(18);
    std::map<Addr, std::uint64_t> oracle;
    for (unsigned round = 0; round < 50; ++round) {
        sys->begin(0);
        std::vector<std::pair<Addr, std::uint64_t>> pending;
        const unsigned writes = 1 + rng.nextBounded(8);
        for (unsigned i = 0; i < writes; ++i) {
            const Addr addr = pageBase(5 + rng.nextBounded(10)) +
                              rng.nextBounded(64) * kLineSize;
            const std::uint64_t v = rng.next();
            sys->store(0, addr, &v, sizeof(v));
            pending.emplace_back(addr, v);
        }
        if (rng.nextBool(0.2)) {
            sys->abort(0);
        } else {
            sys->commit(0);
            for (auto &[a, v] : pending)
                oracle[a] = v;
        }
    }
    for (auto &[a, v] : oracle)
        EXPECT_EQ(raw64(*sys, a), v);
}

TEST_F(SspEngineTest, TransactionSeesOwnWritesAcrossLines)
{
    sys->begin(0);
    for (unsigned i = 0; i < 16; ++i) {
        std::uint64_t v = i * 3;
        sys->store(0, 0x7000 + i * kLineSize, &v, sizeof(v));
    }
    for (unsigned i = 0; i < 16; ++i)
        EXPECT_EQ(timed64(*sys, 0, 0x7000 + i * kLineSize), i * 3);
    sys->commit(0);
}

TEST_F(SspEngineTest, WriteSetOverflowThrowsAndRollsBack)
{
    sys->begin(0);
    std::uint64_t v = 5;
    bool overflowed = false;
    try {
        // Touch more pages than the write-set buffer holds (64).
        for (unsigned p = 0; p < 100; ++p)
            sys->store(0, pageBase(100 + p), &v, sizeof(v));
    } catch (const TxOverflow &) {
        overflowed = true;
    }
    EXPECT_TRUE(overflowed);
    EXPECT_FALSE(sys->inTx(0));
    // Nothing leaked into the committed state.
    for (unsigned p = 0; p < 100; ++p)
        EXPECT_EQ(raw64(*sys, pageBase(100 + p)), 0u);
    EXPECT_EQ(sys->engine(0).stats().overflows, 1u);
}

TEST_F(SspEngineTest, CommitIsBitwiseXorOfUpdatedIntoCommitted)
{
    const Addr page = pageBase(30);
    txWrite64(*sys, 0, page + 0 * kLineSize, 1);

    sys->begin(0);
    std::uint64_t v = 2;
    sys->store(0, page + 0 * kLineSize, &v, sizeof(v)); // line 0 again
    sys->store(0, page + 5 * kLineSize, &v, sizeof(v)); // line 5 fresh
    SspCacheEntry &e = entryFor(page);
    const Bitmap64 before = e.committed;
    const Bitmap64 updated = sys->engine(0).writeSet().entries()[0].updated;
    sys->commit(0);
    EXPECT_EQ(e.committed.raw(), (before ^ updated).raw());
}

TEST_F(SspEngineTest, FlipBroadcastsAreCounted)
{
    auto cfg = smallConfig(2);
    SspSystem two(cfg);
    two.begin(1);
    std::uint64_t v = 9;
    two.store(1, 0x8000, &v, sizeof(v));
    two.store(1, 0x8000, &v, sizeof(v)); // no second broadcast
    two.store(1, 0x8040, &v, sizeof(v)); // second line -> broadcast
    two.commit(1);
    EXPECT_EQ(two.machine().coherence().flipMessages(), 2u);
}

TEST_F(SspEngineTest, TlbMissFetchesMetadataAndRefcounts)
{
    const Addr addr = 0x9000;
    txWrite64(*sys, 0, addr, 1);
    SspCacheEntry &e = entryFor(addr);
    EXPECT_EQ(e.tlbRefCount, 1u);
    EXPECT_GE(sys->engine(0).stats().tlbMisses, 1u);
}

TEST_F(SspEngineTest, TlbEvictionTriggersConsolidation)
{
    // Touch more pages than the TLB holds; early pages must consolidate
    // (their committed bitmaps return to zero and data merges into P0).
    const unsigned tlb_entries = sys->cfg().tlbEntries;
    for (unsigned p = 0; p < tlb_entries + 8; ++p)
        txWrite64(*sys, 0, pageBase(p + 1) + 8, p);

    EXPECT_GT(sys->controller().consolidator().consolidations(), 0u);
    // All data still readable.
    for (unsigned p = 0; p < tlb_entries + 8; ++p)
        EXPECT_EQ(raw64(*sys, pageBase(p + 1) + 8), p);
}

TEST_F(SspEngineTest, StatsAccumulate)
{
    txWrite64(*sys, 0, 0xa000, 1);
    txWrite64(*sys, 0, 0xa040, 2);
    const EngineStats &s = sys->engine(0).stats();
    EXPECT_EQ(s.commits, 2u);
    EXPECT_EQ(s.atomicStores, 2u);
    EXPECT_EQ(s.firstWrites, 2u);
    EXPECT_EQ(s.aborts, 0u);
}

TEST_F(SspEngineTest, ClockAdvancesOnCommit)
{
    const Cycles before = sys->machine().clock(0);
    txWrite64(*sys, 0, 0xb000, 1);
    EXPECT_GT(sys->machine().clock(0), before);
}

TEST_F(SspEngineTest, JournalReceivesUpdateAndCommitRecords)
{
    txWrite64(*sys, 0, 0xc000, 1);
    // One Update + one Commit record per transaction.
    const auto &journal = sys->controller().journal();
    EXPECT_GE(journal.persistedBytes(), 48u);
    EXPECT_GT(journal.lineWrites(), 0u);
}

} // namespace

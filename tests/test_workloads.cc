/**
 * @file
 * Unit tests for the workloads themselves: structural invariants of the
 * persistent data structures, allocator behavior, and key generators,
 * all exercised over the SSP backend.
 */

#include <gtest/gtest.h>

#include "core/ssp_system.hh"
#include "tests/test_helpers.hh"
#include "workloads/btree.hh"
#include "workloads/hashtable.hh"
#include "workloads/kvstore.hh"
#include "workloads/rbtree.hh"
#include "workloads/sps.hh"
#include "workloads/vacation.hh"

using namespace ssp;
using namespace ssp::test;

namespace
{

class WorkloadTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        SspConfig cfg = smallConfig();
        cfg.heapPages = 4096;
        cfg.shadowPoolPages = 4096;
        sys = std::make_unique<SspSystem>(cfg);
        alloc = std::make_unique<PersistAlloc>(kPageSize,
                                               4096ull * kPageSize);
    }

    std::unique_ptr<SspSystem> sys;
    std::unique_ptr<PersistAlloc> alloc;
};

TEST_F(WorkloadTest, AllocatorAlignsAndSeparates)
{
    PersistAlloc &a = *alloc;
    Addr x = a.allocate(24, 8);
    Addr y = a.allocate(24, 8);
    EXPECT_NE(x, y);
    EXPECT_EQ(x % 8, 0u);
    // Sub-line objects never straddle lines.
    EXPECT_EQ(lineOf(x), lineOf(x + 23));
    EXPECT_EQ(lineOf(y), lineOf(y + 23));
    // Line-aligned request.
    Addr z = a.allocate(256, kLineSize);
    EXPECT_EQ(z % kLineSize, 0u);
    // Sub-page objects never straddle pages.
    EXPECT_EQ(pageOf(z), pageOf(z + 255));
}

TEST_F(WorkloadTest, AllocatorFreeListReuses)
{
    Addr x = alloc->allocate(40, 8);
    alloc->free(x, 40);
    Addr y = alloc->allocate(40, 8);
    EXPECT_EQ(x, y);
}

TEST_F(WorkloadTest, BTreeInsertLookupDelete)
{
    BTreeWorkload tree(*sys, *alloc, 256, KeyDist::Uniform, 1);
    tree.setup();
    EXPECT_TRUE(tree.verify());

    // Force-insert a few known keys (upsertOrDelete toggles).
    std::uint64_t probe = 0;
    const bool was_present = tree.lookup(0, 7, &probe);
    tree.upsertOrDelete(0, 7);
    EXPECT_EQ(tree.lookup(0, 7, &probe), !was_present);
    EXPECT_TRUE(tree.verify());
}

TEST_F(WorkloadTest, BTreeSplitsKeepOrder)
{
    BTreeWorkload tree(*sys, *alloc, 4096, KeyDist::Uniform, 2);
    tree.setup();
    for (unsigned i = 0; i < 2000; ++i)
        tree.runOp(0);
    EXPECT_TRUE(tree.verify());
    EXPECT_GT(tree.size(), 100u);
}

TEST_F(WorkloadTest, BTreeScanReturnsSortedRange)
{
    BTreeWorkload tree(*sys, *alloc, 512, KeyDist::Uniform, 3);
    tree.setup();
    auto range = tree.scan(0, 100, 10);
    for (std::size_t i = 1; i < range.size(); ++i)
        EXPECT_LT(range[i - 1].first, range[i].first);
    for (const auto &kv : range)
        EXPECT_GE(kv.first, 100u);
}

TEST_F(WorkloadTest, RbTreeInvariantsUnderChurn)
{
    RbTreeWorkload tree(*sys, *alloc, 512, KeyDist::Uniform, 4);
    tree.setup();
    for (unsigned i = 0; i < 1500; ++i) {
        tree.runOp(0);
        if (i % 300 == 0) {
            EXPECT_TRUE(tree.invariantsHold()) << "at op " << i;
        }
    }
    EXPECT_TRUE(tree.verify());
}

TEST_F(WorkloadTest, RbTreeZipfSkewsWriteSet)
{
    RbTreeWorkload tree(*sys, *alloc, 512, KeyDist::Zipf, 5);
    tree.setup();
    for (unsigned i = 0; i < 500; ++i)
        tree.runOp(0);
    EXPECT_TRUE(tree.verify());
}

TEST_F(WorkloadTest, HashChainsStayConsistent)
{
    HashWorkload hash(*sys, *alloc, 256, 512, KeyDist::Uniform, 6);
    hash.setup();
    for (unsigned i = 0; i < 1000; ++i)
        hash.runOp(0);
    EXPECT_TRUE(hash.verify());
}

TEST_F(WorkloadTest, HashLookupMatchesToggleState)
{
    HashWorkload hash(*sys, *alloc, 64, 128, KeyDist::Uniform, 7);
    hash.setup();
    const bool before = hash.lookup(0, 42, nullptr);
    hash.upsertOrDelete(0, 42);
    EXPECT_EQ(hash.lookup(0, 42, nullptr), !before);
    hash.upsertOrDelete(0, 42);
    EXPECT_EQ(hash.lookup(0, 42, nullptr), before);
}

TEST_F(WorkloadTest, HashChainCycleThrowsInsteadOfSpinning)
{
    // One bucket: every key sits in one chain, and the bucket array is
    // the allocator's first block.
    HashWorkload hash(*sys, *alloc, 1, 64, KeyDist::Uniform, 8);
    hash.setup();
    ASSERT_GT(hash.size(), 0u);
    const Addr head = raw64(*sys, alloc->base());
    ASSERT_NE(head, 0u);
    // Corrupt the image: the head node's next pointer (offset 16)
    // points back at the node itself.
    sys->storeRaw(head + 16, &head, sizeof(head));
    EXPECT_THROW(hash.lookup(0, 1000, nullptr), std::logic_error);
    EXPECT_THROW(hash.verify(), std::logic_error);
}

TEST_F(WorkloadTest, SpsPreservesPermutation)
{
    SpsWorkload sps(*sys, *alloc, 1024, 8);
    sps.setup();
    for (unsigned i = 0; i < 500; ++i)
        sps.runOp(0);
    EXPECT_TRUE(sps.verify());
    // The array must still be a permutation of 0..n-1.
    std::vector<bool> seen(1024, false);
    for (std::uint64_t i = 0; i < 1024; ++i) {
        std::uint64_t v = 0;
        sys->loadRaw(kPageSize + i * 8, &v, sizeof(v));
        // Base address is allocator-dependent; use verify() as the
        // real check and only sanity-bound values here.
        (void)v;
    }
}

TEST_F(WorkloadTest, KvStoreEvictsAtCapacity)
{
    KvStoreParams params;
    params.buckets = 256;
    params.keySpace = 2000;
    params.capacity = 128;
    params.valueBytes = 64;
    KvStoreWorkload kv(*sys, *alloc, params, 9);
    kv.setup();
    for (unsigned i = 0; i < 600; ++i)
        kv.runOp(0);
    EXPECT_LE(kv.residentItems(), params.capacity);
    EXPECT_GT(kv.evictions(), 0u);
    EXPECT_TRUE(kv.verify());
}

TEST_F(WorkloadTest, KvStoreGetAfterSet)
{
    KvStoreParams params;
    params.buckets = 64;
    params.keySpace = 100;
    params.capacity = 64;
    KvStoreWorkload kv(*sys, *alloc, params, 10);
    kv.setup();
    kv.set(0, 5);
    EXPECT_TRUE(kv.get(0, 5));
    EXPECT_TRUE(kv.verify());
}

TEST_F(WorkloadTest, VacationConservesSeatsAndBills)
{
    VacationParams params;
    params.relations = 256;
    params.customers = 128;
    params.buckets = 128;
    VacationWorkload vac(*sys, *alloc, params, 11);
    vac.setup();
    EXPECT_TRUE(vac.verify());
    for (unsigned i = 0; i < 400; ++i)
        vac.runOp(0);
    EXPECT_GT(vac.reservationsMade(), 0u);
    EXPECT_TRUE(vac.verify());
}

TEST_F(WorkloadTest, KeyGeneratorsRespectRange)
{
    KeyGenerator uni(KeyDist::Uniform, 100, 1);
    KeyGenerator zipf(KeyDist::Zipf, 100, 1);
    for (int i = 0; i < 5000; ++i) {
        EXPECT_LT(uni.next(), 100u);
        EXPECT_LT(zipf.next(), 100u);
    }
}

} // namespace

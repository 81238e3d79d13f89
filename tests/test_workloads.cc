/**
 * @file
 * Unit tests for the workloads themselves: structural invariants of the
 * persistent data structures, allocator behavior and key generators,
 * all exercised over the SSP backend; that each keyed workload's
 * verify() rejects a corrupted image; and the dense reference model
 * against a std::map.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "common/rng.hh"
#include "core/ssp_system.hh"
#include "tests/test_helpers.hh"
#include "workloads/btree.hh"
#include "workloads/hashtable.hh"
#include "workloads/keyed_reference.hh"
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

    /**
     * Overwrite the word at @p addr with @p value and expect @p w's
     * verify() to fail; then restore the word and expect it to pass,
     * which shows that @p addr held what the caller meant to corrupt.
     */
    void
    expectCorruptionCaught(Workload &w, Addr addr, std::uint64_t value)
    {
        const std::uint64_t saved = raw64(*sys, addr);
        ASSERT_NE(saved, value);
        sys->storeRaw(addr, &value, sizeof(value));
        EXPECT_FALSE(w.verify());
        sys->storeRaw(addr, &saved, sizeof(saved));
        EXPECT_TRUE(w.verify());
    }

    std::unique_ptr<SspSystem> sys;
    std::unique_ptr<PersistAlloc> alloc;
};

/** Expect @p ref to hold exactly @p model, walked in ascending order. */
void
expectSameAsMap(const KeyedReference &ref,
                const std::map<std::uint64_t, std::uint64_t> &model)
{
    ASSERT_EQ(ref.size(), model.size());
    EXPECT_EQ(ref.empty(), model.empty());
    std::uint64_t k = ref.next(0);
    for (const auto &[key, value] : model) {
        ASSERT_EQ(k, key);
        const std::uint64_t *found = ref.find(key);
        ASSERT_NE(found, nullptr);
        EXPECT_EQ(*found, value);
        k = ref.next(key + 1);
    }
    EXPECT_EQ(k, ref.keySpace());
}

TEST(KeyedReference, MatchesStdMapUnderRandomSteps)
{
    for (const std::uint64_t space : {1u, 64u, 65u, 4096u}) {
        SCOPED_TRACE(space);
        KeyedReference ref(space);
        std::map<std::uint64_t, std::uint64_t> model;
        Rng rng(space);
        // Half the keys land on the edges of the key space and of the
        // first 64-key bitmap word.
        const std::uint64_t edges[] = {
            0, space - 1, std::min<std::uint64_t>(63, space - 1),
            std::min<std::uint64_t>(64, space - 1)};
        for (unsigned step = 0; step < 20000; ++step) {
            const std::uint64_t key = rng.nextBool(0.5)
                                          ? edges[rng.nextBounded(4)]
                                          : rng.nextBounded(space);
            switch (rng.nextBounded(4)) {
              case 0: {
                const std::uint64_t value = rng.next();
                ref.set(key, value);
                model[key] = value;
                break;
              }
              case 1:
                ref.erase(key);
                model.erase(key);
                break;
              case 2: {
                const auto it = model.find(key);
                const std::uint64_t *found = ref.find(key);
                ASSERT_EQ(found != nullptr, it != model.end());
                if (found != nullptr) {
                    EXPECT_EQ(*found, it->second);
                }
                break;
              }
              default: {
                const auto it = model.lower_bound(key);
                EXPECT_EQ(ref.next(key),
                          it == model.end() ? space : it->first);
                break;
              }
            }
            ASSERT_EQ(ref.size(), model.size());
            if (step % 256 == 0)
                expectSameAsMap(ref, model);
        }
        expectSameAsMap(ref, model);
    }
}

TEST(KeyedReference, EdgesAndRepeats)
{
    for (const std::uint64_t space : {1u, 64u, 65u, 4096u}) {
        SCOPED_TRACE(space);
        KeyedReference ref(space);
        EXPECT_TRUE(ref.empty());
        EXPECT_EQ(ref.next(0), space);

        // A full key space walks every key once, in order.
        std::map<std::uint64_t, std::uint64_t> model;
        for (std::uint64_t k = 0; k < space; ++k) {
            ref.set(k, 3 * k + 1);
            model[k] = 3 * k + 1;
        }
        expectSameAsMap(ref, model);
        EXPECT_EQ(ref.find(space), nullptr);
        EXPECT_EQ(ref.find(~std::uint64_t{0}), nullptr);
        EXPECT_EQ(ref.next(space), space);
        EXPECT_EQ(ref.next(~std::uint64_t{0}), space);
        EXPECT_THROW(ref.set(space, 1), std::logic_error);
        EXPECT_THROW(ref.erase(space), std::logic_error);

        // A repeated set replaces the value and keeps the count.
        ref.set(space - 1, 7);
        ref.set(space - 1, 8);
        EXPECT_EQ(ref.size(), space);
        EXPECT_EQ(*ref.find(space - 1), 8u);

        // A repeated erase drops the count once.
        ref.erase(0);
        ref.erase(0);
        EXPECT_EQ(ref.size(), space - 1);
        EXPECT_EQ(ref.find(0), nullptr);
        EXPECT_EQ(ref.next(0), space == 1 ? space : 1u);
        ref.erase(space - 1);
        ref.erase(space - 1);
        EXPECT_EQ(ref.size(), space < 2 ? 0u : space - 2);
        EXPECT_EQ(ref.find(space - 1), nullptr);
    }
}

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

TEST_F(WorkloadTest, BTreeVerifyRejectsCorruptedImage)
{
    BTreeWorkload tree(*sys, *alloc, 256, KeyDist::Uniform, 12);
    tree.setup();
    for (unsigned i = 0; i < 200; ++i)
        tree.runOp(0);
    ASSERT_TRUE(tree.verify());
    ASSERT_GT(tree.size(), 0u);
    // The root pointer is the allocator's first block.  Nodes: is_leaf
    // at 0, count at 8, next leaf at 16, keys from 64, slots from 384.
    Addr n = raw64(*sys, alloc->base());
    while (raw64(*sys, n) == 0)
        n = raw64(*sys, n + 384);
    expectCorruptionCaught(tree, n + 384, raw64(*sys, n + 384) + 1);
    // The largest key, raised to the key space, keeps the leaves sorted.
    while (raw64(*sys, n + 16) != 0)
        n = raw64(*sys, n + 16);
    const std::uint64_t cnt = raw64(*sys, n + 8);
    ASSERT_GT(cnt, 0u);
    expectCorruptionCaught(tree, n + 64 + 8 * (cnt - 1), 256);
}

TEST_F(WorkloadTest, RbTreeVerifyRejectsCorruptedImage)
{
    RbTreeWorkload tree(*sys, *alloc, 256, KeyDist::Uniform, 13);
    tree.setup();
    for (unsigned i = 0; i < 200; ++i)
        tree.runOp(0);
    ASSERT_TRUE(tree.verify());
    // The root pointer is the allocator's first block.  Nodes: key at
    // 0, value at 8, right child at 24.
    Addr n = raw64(*sys, alloc->base());
    ASSERT_NE(n, 0u);
    expectCorruptionCaught(tree, n + 8, raw64(*sys, n + 8) + 1);
    // The largest key, raised to the key space, keeps the BST order.
    while (raw64(*sys, n + 24) != 0)
        n = raw64(*sys, n + 24);
    expectCorruptionCaught(tree, n, 256);
}

TEST_F(WorkloadTest, HashVerifyRejectsCorruptedImage)
{
    // One bucket, whose head is the allocator's first block, so a key
    // moved past the key space still sits in its bucket.
    HashWorkload hash(*sys, *alloc, 1, 64, KeyDist::Uniform, 14);
    hash.setup();
    for (unsigned i = 0; i < 100; ++i)
        hash.runOp(0);
    ASSERT_TRUE(hash.verify());
    const Addr head = raw64(*sys, alloc->base());
    ASSERT_NE(head, 0u);
    // Nodes: key at 0, value at 8.
    expectCorruptionCaught(hash, head + 8, raw64(*sys, head + 8) + 1);
    expectCorruptionCaught(hash, head, 64);
    expectCorruptionCaught(hash, head, ~std::uint64_t{0});
}

TEST_F(WorkloadTest, KvStoreVerifyRejectsCorruptedImage)
{
    KvStoreParams params;
    params.buckets = 1;
    params.keySpace = 100;
    params.capacity = 64;
    params.valueBytes = 64;
    KvStoreWorkload kv(*sys, *alloc, params, 15);
    kv.setup();
    for (unsigned i = 0; i < 100; ++i)
        kv.runOp(0);
    ASSERT_TRUE(kv.verify());
    // One bucket, whose head is the allocator's first block.  Items:
    // key at 0, value stamp at 8.  The payload bytes repeat the stamp's
    // low byte, so a stamp 256 higher still matches its payload.
    const Addr head = raw64(*sys, alloc->base());
    ASSERT_NE(head, 0u);
    expectCorruptionCaught(kv, head + 8, raw64(*sys, head + 8) + 256);
    expectCorruptionCaught(kv, head, params.keySpace);
}

TEST_F(WorkloadTest, VacationVerifyRejectsCorruptedImage)
{
    VacationParams params;
    params.relations = 256;
    params.customers = 128;
    params.buckets = 128;
    VacationWorkload vac(*sys, *alloc, params, 16);
    vac.setup();
    for (unsigned i = 0; i < 200; ++i)
        vac.runOp(0);
    ASSERT_GT(vac.reservationsMade(), 0u);
    ASSERT_TRUE(vac.verify());
    // The three resource tables' bucket arrays, then the customers',
    // are the allocator's first blocks, back to back.
    const auto first_bucket = [&](Addr table) {
        for (std::uint64_t b = 0; b < params.buckets; ++b) {
            if (raw64(*sys, table + 8 * b) != 0)
                return table + 8 * b;
        }
        return Addr{0};
    };
    // Resources: id at 0, free seats at 24, next at 32.
    const Addr bucket = first_bucket(alloc->base());
    ASSERT_NE(bucket, 0u);
    const Addr tuple = raw64(*sys, bucket);
    expectCorruptionCaught(vac, tuple + 24, raw64(*sys, tuple + 24) + 1);
    expectCorruptionCaught(vac, tuple, params.relations);
    // A tuple unlinked from its chain is missing from the image.
    expectCorruptionCaught(vac, bucket, raw64(*sys, tuple + 32));
    // Customers: id at 0.
    const Addr customers =
        first_bucket(alloc->base() + 3 * params.buckets * 8);
    ASSERT_NE(customers, 0u);
    expectCorruptionCaught(vac, raw64(*sys, customers), params.customers);
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

/**
 * @file
 * Unit tests for the SSP cache: slot allocation/eviction, reference
 * counting behavior, the L3-partition latency model, and the
 * persistent half.
 */

#include <vector>

#include <gtest/gtest.h>

#include "nvram/ssp_cache.hh"

using namespace ssp;

namespace
{

TEST(SspCache, AllocateAndFind)
{
    SspCache cache(8, 0);
    EXPECT_EQ(cache.findSlot(5), kInvalidSlot);
    SlotId sid = cache.allocateSlot(5);
    EXPECT_EQ(cache.findSlot(5), sid);
    EXPECT_TRUE(cache.entry(sid).valid);
    EXPECT_EQ(cache.entry(sid).vpn, 5u);
    EXPECT_EQ(cache.validEntries(), 1u);
}

TEST(SspCache, FreeSlotClears)
{
    SspCache cache(8, 0);
    SlotId sid = cache.allocateSlot(5);
    cache.freeSlot(sid);
    EXPECT_EQ(cache.findSlot(5), kInvalidSlot);
    EXPECT_EQ(cache.validEntries(), 0u);
}

TEST(SspCache, EvictsConsolidatedUnreferencedWhenFull)
{
    SspCache cache(2, 0);
    SlotId a = cache.allocateSlot(1);
    SlotId b = cache.allocateSlot(2);
    // Slot a is consolidated (committed zero) and unreferenced; slot b
    // is TLB-referenced.
    cache.entry(b).tlbRefCount = 1;

    SspCacheEntry displaced;
    SlotId c = cache.allocateSlot(3, &displaced);
    EXPECT_TRUE(displaced.valid);
    EXPECT_EQ(displaced.vpn, 1u);
    EXPECT_EQ(c, a); // reused the evicted slot
    EXPECT_EQ(cache.findSlot(1), kInvalidSlot);
    EXPECT_EQ(cache.findSlot(2), b);
}

TEST(SspCache, GrowsWhenNoEntryIsEvictable)
{
    SspCache cache(2, 0);
    SlotId a = cache.allocateSlot(1);
    SlotId b = cache.allocateSlot(2);
    cache.entry(a).tlbRefCount = 1;
    cache.entry(b).coreRefCount = 1;
    SlotId c = cache.allocateSlot(3);
    EXPECT_NE(c, kInvalidSlot);
    EXPECT_EQ(cache.numSlots(), 3u);
}

TEST(SspCache, ReferencedDirtyEntriesNotEvicted)
{
    SspCache cache(2, 0);
    SlotId a = cache.allocateSlot(1);
    cache.entry(a).committed.set(3); // not consolidated
    cache.allocateSlot(2);
    SspCacheEntry displaced;
    cache.allocateSlot(3, &displaced);
    // Only vpn 2 (consolidated) may have been displaced.
    if (displaced.valid) {
        EXPECT_EQ(displaced.vpn, 2u);
    }
    EXPECT_NE(cache.findSlot(1), kInvalidSlot);
}

TEST(SspCache, HotSetLatencyModel)
{
    // The L3 partition holds the 1024 most recently used entries; a hit
    // costs the L3's 27 cycles, a miss DRAM's 185.
    SspCache cache(1100, 0);
    std::vector<SlotId> sids;
    for (Vpn vpn = 0; vpn < 1025; ++vpn)
        sids.push_back(cache.allocateSlot(vpn));
    const SlotId a = sids[0];

    EXPECT_EQ(cache.access(a, 0), 185u); // cold
    EXPECT_EQ(cache.access(a, 0), 27u);  // hot
    for (std::size_t i = 1; i < 1024; ++i)
        cache.access(sids[i], 0); // 1023 others: a is still resident
    EXPECT_EQ(cache.access(a, 0), 27u);
    for (std::size_t i = 1; i < 1025; ++i)
        cache.access(sids[i], 0); // 1024 others, newer than a: evicted
    EXPECT_EQ(cache.access(a, 0), 185u); // cold again
    EXPECT_EQ(cache.hotHits(), 2u + 1023u);
    EXPECT_EQ(cache.hotMisses(), 2u + 1024u);
}

TEST(SspCache, FixedLatencyOverride)
{
    SspCache cache(8, 60);
    SlotId a = cache.allocateSlot(1);
    EXPECT_EQ(cache.access(a, 100), 160u);
    EXPECT_EQ(cache.access(a, 100), 160u);
}

TEST(SspCache, PersistentHalfSurvivesPowerFail)
{
    SspCache cache(4, 0);
    SlotId sid = cache.allocateSlot(7);
    cache.entry(sid).ppn0 = 70;
    cache.entry(sid).ppn1 = 71;
    cache.entry(sid).committed = Bitmap64(0xf0);

    PersistentSlot &p = cache.persistentSlot(sid);
    p.valid = true;
    p.vpn = 7;
    p.ppn0 = 70;
    p.ppn1 = 71;
    p.committed = Bitmap64(0xf0);

    cache.powerFail();
    EXPECT_EQ(cache.validEntries(), 0u);
    EXPECT_EQ(cache.findSlot(7), kInvalidSlot);

    cache.reloadFromPersistent(sid);
    const SspCacheEntry &e = cache.entry(sid);
    EXPECT_TRUE(e.valid);
    EXPECT_EQ(e.vpn, 7u);
    EXPECT_EQ(e.ppn0, 70u);
    EXPECT_EQ(e.committed.raw(), 0xf0u);
    // Section 4.4: current is initialized from committed.
    EXPECT_EQ(e.current.raw(), 0xf0u);
    EXPECT_EQ(e.tlbRefCount, 0u);
    EXPECT_EQ(cache.findSlot(7), sid);
}

TEST(SspCache, ValidSlotsEnumerates)
{
    SspCache cache(4, 0);
    cache.allocateSlot(1);
    cache.allocateSlot(2);
    EXPECT_EQ(cache.validSlots().size(), 2u);
}

} // namespace

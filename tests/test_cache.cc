/**
 * @file
 * Unit tests for the cache level and the hierarchy, including the SSP
 * extensions (TX bit, tag remap) and write-back accounting.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cache/cache.hh"
#include "cache/hierarchy.hh"
#include "common/rng.hh"
#include "mem/memory_bus.hh"
#include "mem/phys_mem.hh"

using namespace ssp;

namespace
{

CacheParams
tinyCache(unsigned size_kib, unsigned ways, Cycles lat)
{
    return CacheParams{"t", size_kib * 1024ull, ways, lat};
}

HierarchyParams
smallHierParams()
{
    HierarchyParams p;
    p.l1 = CacheParams{"l1", 1024, 2, 4};
    p.l2 = CacheParams{"l2", 4096, 4, 6};
    p.l3 = CacheParams{"l3", 16384, 4, 27};
    return p;
}

TEST(Cache, MissThenHit)
{
    Cache c(tinyCache(4, 4, 1));
    auto r1 = c.access(0x1000, false);
    EXPECT_FALSE(r1.hit);
    auto r2 = c.access(0x1000, false);
    EXPECT_TRUE(r2.hit);
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(Cache, WriteMarksDirty)
{
    Cache c(tinyCache(4, 4, 1));
    c.access(0x40, true);
    EXPECT_TRUE(c.isDirty(0x40));
    EXPECT_TRUE(c.cleanIfDirty(0x40));
    EXPECT_FALSE(c.isDirty(0x40));
    EXPECT_FALSE(c.cleanIfDirty(0x40)); // already clean
    EXPECT_TRUE(c.probe(0x40));          // clwb keeps the line
}

TEST(Cache, LruEvictsOldestAndReportsDirtyVictim)
{
    // 2 sets x 2 ways of 64B lines = 256B cache.
    Cache c(CacheParams{"t", 256, 2, 1});
    // Fill set 0 (addresses with even line index).
    c.access(0 * 64, true);  // set 0
    c.access(2 * 64, false); // set 0
    auto r = c.access(4 * 64, false); // set 0 -> evict line 0 (dirty)
    EXPECT_TRUE(r.writeback);
    EXPECT_EQ(r.victimAddr, 0u);
    EXPECT_FALSE(c.probe(0));
}

TEST(Cache, LruKeepsRecentlyTouched)
{
    Cache c(CacheParams{"t", 256, 2, 1});
    c.access(0 * 64, false);
    c.access(2 * 64, false);
    c.access(0 * 64, false);       // touch line 0
    c.access(4 * 64, false);       // evicts line 2, not 0
    EXPECT_TRUE(c.probe(0));
    EXPECT_FALSE(c.probe(2 * 64));
}

TEST(Cache, RemapMovesStateAndDirtiness)
{
    Cache c(tinyCache(4, 4, 1));
    c.access(0x100, true);
    c.setTxBit(0x100, true);
    auto r = c.remap(0x100, 0x2100);
    EXPECT_TRUE(r.hit);
    EXPECT_FALSE(c.probe(0x100));
    EXPECT_TRUE(c.probe(0x2100));
    EXPECT_TRUE(c.isDirty(0x2100));
    EXPECT_TRUE(c.txBit(0x2100));
}

TEST(Cache, RemapOfAbsentLineIsNoop)
{
    Cache c(tinyCache(4, 4, 1));
    auto r = c.remap(0x100, 0x200);
    EXPECT_FALSE(r.hit);
    EXPECT_FALSE(c.probe(0x200));
}

TEST(Cache, InvalidateDropsWithoutWriteback)
{
    Cache c(tinyCache(4, 4, 1));
    c.access(0x40, true);
    EXPECT_TRUE(c.invalidate(0x40));
    EXPECT_FALSE(c.probe(0x40));
    EXPECT_FALSE(c.invalidate(0x40));
}

TEST(Cache, InvalidateAll)
{
    Cache c(tinyCache(4, 4, 1));
    for (unsigned i = 0; i < 16; ++i)
        c.access(i * 64, true);
    EXPECT_GT(c.validLines(), 0u);
    c.invalidateAll();
    EXPECT_EQ(c.validLines(), 0u);
}

class HierarchyTest : public ::testing::Test
{
  protected:
    HierarchyTest()
        : mem(64, 16),
          bus(mem, MemTimingParams{4, 1024, 100, 100, 0.4},
              MemTimingParams{4, 1024, 200, 800, 0.4}),
          hier(2, smallHierParams(), bus)
    {
    }

    PhysMem mem;
    MemoryBus bus;
    CacheHierarchy hier;
};

TEST_F(HierarchyTest, ColdReadGoesToMemory)
{
    const Cycles t = hier.read(0, 0x1000, 0);
    // L1 + L2 + L3 latencies plus NVRAM read.
    EXPECT_GE(t, 4u + 6u + 27u + 200u);
    EXPECT_EQ(bus.nvramReads(), 1u);
}

TEST_F(HierarchyTest, WarmReadHitsL1)
{
    hier.read(0, 0x1000, 0);
    const Cycles t0 = 1000;
    const Cycles t = hier.read(0, 0x1000, t0);
    EXPECT_EQ(t - t0, 4u);
}

TEST_F(HierarchyTest, FlushWritesBackDirtyLineOnce)
{
    hier.write(0, 0x2000, 0);
    EXPECT_TRUE(hier.isDirty(0, 0x2000));
    hier.flushLine(0, 0x2000, WriteCategory::Data, 100);
    EXPECT_FALSE(hier.isDirty(0, 0x2000));
    EXPECT_EQ(bus.nvramWrites(WriteCategory::Data), 1u);
    // Second flush: clean line, no extra write.
    hier.flushLine(0, 0x2000, WriteCategory::Data, 200);
    EXPECT_EQ(bus.nvramWrites(WriteCategory::Data), 1u);
}

TEST_F(HierarchyTest, PrivateCachesArePerCore)
{
    hier.read(0, 0x3000, 0);
    EXPECT_TRUE(hier.l1(0).probe(0x3000));
    EXPECT_FALSE(hier.l1(1).probe(0x3000));
    // But the shared L3 serves both.
    EXPECT_TRUE(hier.l3().probe(0x3000));
}

TEST_F(HierarchyTest, RemapAppliesEverywherePresent)
{
    hier.write(0, 0x4000, 0);
    hier.remapLine(0, 0x4000, 0x5000, 10);
    EXPECT_FALSE(hier.isCached(0, 0x4000));
    EXPECT_TRUE(hier.isCached(0, 0x5000));
    EXPECT_TRUE(hier.isDirty(0, 0x5000));
}

TEST_F(HierarchyTest, EvictionChainsReachMemory)
{
    // Write far more lines than the hierarchy holds; dirty victims must
    // eventually be written back to NVRAM as Data.
    for (unsigned i = 0; i < 2048; ++i)
        hier.write(0, i * kLineSize, i);
    EXPECT_GT(bus.nvramWrites(WriteCategory::Data), 0u);
}

TEST_F(HierarchyTest, InvalidateAllDropsEverything)
{
    hier.write(0, 0x6000, 0);
    hier.invalidateAll();
    EXPECT_FALSE(hier.isCached(0, 0x6000));
}

// ---- sharer index ---------------------------------------------------------

/** Every multi-core hierarchy is indexed; the parameter is its core
 *  count. */
class SharerIndexTest : public ::testing::TestWithParam<unsigned>
{
  protected:
    SharerIndexTest()
        : cores(GetParam()), mem(64, 16),
          bus(mem, MemTimingParams{4, 1024, 100, 100, 0.4},
              MemTimingParams{4, 1024, 200, 800, 0.4}),
          hier(cores, smallHierParams(), bus)
    {
    }

    /** Brute-force ground truth the index must match exactly. */
    CoreBitmap
    probeMask(Addr line) const
    {
        CoreBitmap mask;
        for (CoreId c = 0; c < cores; ++c) {
            if (hier.l1(c).probe(line) || hier.l2(c).probe(line))
                mask.set(c);
        }
        return mask;
    }

    void
    expectIndexConsistent(const std::vector<Addr> &lines)
    {
        for (Addr line : lines) {
            EXPECT_EQ(hier.sharerIndex().sharers(line), probeMask(line))
                << "sharer mask diverged for line 0x" << std::hex << line;
        }
    }

    const unsigned cores;
    PhysMem mem;
    MemoryBus bus;
    mutable CacheHierarchy hier;
};

TEST_P(SharerIndexTest, TracksAccessInsertInvalidateRemap)
{
    ASSERT_TRUE(hier.sharerIndexed());
    const Addr a = 0x1000, b = 0x2000;
    const CoreId last = static_cast<CoreId>(cores - 1);
    hier.read(0, a, 0);
    hier.read(last, a, 0);
    expectIndexConsistent({a});
    CoreBitmap both = CoreBitmap::ofCore(last);
    both.set(0);
    EXPECT_EQ(hier.sharerIndex().sharers(a), both);

    hier.remapLine(last, a, b, 10);
    expectIndexConsistent({a, b});

    hier.invalidateLine(a);
    hier.invalidateLine(b);
    expectIndexConsistent({a, b});
    EXPECT_TRUE(hier.sharerIndex().sharers(a).none());
    EXPECT_TRUE(hier.sharerIndex().sharers(b).none());
}

TEST_P(SharerIndexTest, RandomizedOpsKeepMaskExact)
{
    // The index must stay bit-exact through every mutation path the
    // hierarchy has: timed reads/writes (fills + LRU evictions), the
    // SSP remap, remote shootdowns, abort-path drops, and power
    // failure.  Any divergence would silently change which peers are
    // charged coherence traffic.
    Rng rng(12345);
    std::vector<Addr> lines;
    for (unsigned i = 0; i < 48; ++i)
        lines.push_back(i * kLineSize * 3); // collide across a few sets
    for (unsigned step = 0; step < 4000; ++step) {
        const CoreId core = static_cast<CoreId>(rng.nextBounded(cores));
        const Addr line = lines[rng.nextBounded(lines.size())];
        switch (rng.nextBounded(6)) {
          case 0:
            hier.read(core, line, step);
            break;
          case 1:
            hier.write(core, line, step);
            break;
          case 2:
            hier.invalidateLine(line);
            break;
          case 3:
            hier.invalidateLineRemote(core, line);
            break;
          case 4:
            hier.remapLine(core, line,
                           lines[rng.nextBounded(lines.size())], step);
            break;
          case 5:
            if (rng.nextBool(0.02))
                hier.invalidateAll(); // simulated power failure
            else
                hier.read(core, line + kLineSize, step);
            break;
        }
        if (step % 64 == 0)
            expectIndexConsistent(lines);
    }
    expectIndexConsistent(lines);
    hier.invalidateAll();
    EXPECT_EQ(hier.sharerIndex().trackedLines(), 0u);
}

INSTANTIATE_TEST_SUITE_P(CoreCounts, SharerIndexTest,
                         ::testing::Values(2u, 3u, 4u, 8u));

// ---- Cache vs. a naive reference model ----------------------------------

/**
 * The textbook cache the packed, mask-indexed Cache must be
 * indistinguishable from: set = (line >> 6) % sets, a linear scan over
 * per-way structs, first invalid way else true LRU.
 */
class RefCache
{
  public:
    RefCache(std::uint64_t size_bytes, unsigned ways)
        : sets_(size_bytes / kLineSize / ways), ways_(ways),
          way_(sets_ * ways)
    {
    }

    CacheAccessResult
    access(Addr line, bool is_write)
    {
        if (Way *w = find(line)) {
            w->dirty |= is_write;
            w->lru = ++clock_;
            CacheAccessResult res;
            res.hit = true;
            return res;
        }
        return fill(line, is_write, false);
    }

    CacheAccessResult
    insert(Addr line, bool dirty, bool tx)
    {
        if (Way *w = find(line)) {
            w->dirty |= dirty;
            w->tx |= tx;
            w->lru = ++clock_;
            return {};
        }
        return fill(line, dirty, tx);
    }

    CacheAccessResult
    remap(Addr old_line, Addr new_line)
    {
        Way *w = find(old_line);
        if (w == nullptr)
            return {};
        w->valid = false;
        CacheAccessResult res = insert(new_line, w->dirty, w->tx);
        res.hit = true;
        return res;
    }

    bool
    invalidate(Addr line)
    {
        Way *w = find(line);
        if (w != nullptr)
            w->valid = false;
        return w != nullptr;
    }

    void
    invalidateAll()
    {
        for (Way &w : way_)
            w = Way{};
    }

    bool
    cleanIfDirty(Addr line)
    {
        Way *w = find(line);
        if (w == nullptr || !w->dirty)
            return false;
        w->dirty = false;
        return true;
    }

    void
    setTxBit(Addr line, bool tx)
    {
        if (Way *w = find(line))
            w->tx = tx;
    }

    bool probe(Addr line) { return find(line) != nullptr; }
    bool isDirty(Addr line) { return find(line) && find(line)->dirty; }
    bool txBit(Addr line) { return find(line) && find(line)->tx; }
    std::uint64_t evictions() const { return evictions_; }

    std::uint64_t
    validLines() const
    {
        std::uint64_t n = 0;
        for (const Way &w : way_)
            n += w.valid ? 1 : 0;
        return n;
    }

  private:
    struct Way
    {
        bool valid = false;
        bool dirty = false;
        bool tx = false;
        Addr tag = 0;
        std::uint64_t lru = 0;
    };

    Way *
    setBase(Addr line)
    {
        return &way_[((line >> kLineShift) % sets_) * ways_];
    }

    Way *
    find(Addr line)
    {
        Way *set = setBase(line);
        for (unsigned i = 0; i < ways_; ++i) {
            if (set[i].valid && set[i].tag == line)
                return &set[i];
        }
        return nullptr;
    }

    CacheAccessResult
    fill(Addr line, bool dirty, bool tx)
    {
        Way *set = setBase(line);
        Way *victim = nullptr;
        for (unsigned i = 0; i < ways_ && victim == nullptr; ++i) {
            if (!set[i].valid)
                victim = &set[i];
        }
        if (victim == nullptr) {
            victim = &set[0];
            for (unsigned i = 1; i < ways_; ++i) {
                if (set[i].lru < victim->lru)
                    victim = &set[i];
            }
        }
        CacheAccessResult res;
        if (victim->valid) {
            ++evictions_;
            if (victim->dirty) {
                res.writeback = true;
                res.victimAddr = victim->tag;
                res.victimTx = victim->tx;
            }
        }
        *victim = Way{true, dirty, tx, line, ++clock_};
        return res;
    }

    std::uint64_t sets_;
    unsigned ways_;
    std::vector<Way> way_;
    std::uint64_t clock_ = 0;
    std::uint64_t evictions_ = 0;
};

void
expectSameResult(const CacheAccessResult &got, const CacheAccessResult &want,
                 unsigned step)
{
    EXPECT_EQ(got.hit, want.hit) << "step " << step;
    EXPECT_EQ(got.writeback, want.writeback) << "step " << step;
    if (want.writeback) {
        EXPECT_EQ(got.victimAddr, want.victimAddr) << "step " << step;
        EXPECT_EQ(got.victimTx, want.victimTx) << "step " << step;
    }
}

/**
 * Every way position of one set, the vector probe's lane boundaries
 * 3|4, 7|8 and 11|12 included.  @p ways congruent lines fill an empty
 * set in order, so line k lands in way k, with the dirty and TX flags
 * in a pattern that shifts by one lane per group of four ways, which
 * the probe's mask must drop.  Before each lookup the hint is aimed at
 * a line of another set, so the set probe, not the hint, answers.  A
 * writing hit must mark only its own way dirty, and the hits' touches
 * must leave the LRU order the reference has: the next fill evicts the
 * way touched longest ago.  Line address 0 in an empty set is absent:
 * an all-zero (invalid) tag word holds its line number.
 */
void
probeEveryWay(Cache &cache, RefCache &ref, std::uint64_t sets,
              unsigned ways)
{
    ASSERT_FALSE(cache.probe(0));
    const std::uint64_t set = sets / 2;
    auto line = [&](std::uint64_t k) {
        return Addr{(set + k * sets) << kLineShift};
    };
    const Addr elsewhere = (set + 1) << kLineShift;
    expectSameResult(cache.insert(elsewhere, false, false),
                     ref.insert(elsewhere, false, false), 0);
    for (unsigned k = 0; k < ways; ++k) {
        const unsigned flags = (k + k / 4) % 4;
        expectSameResult(cache.insert(line(k), flags & 1, flags & 2),
                         ref.insert(line(k), flags & 1, flags & 2), k);
    }
    auto expectSet = [&](unsigned step) {
        for (unsigned j = 0; j < ways; ++j) {
            ASSERT_TRUE(cache.probe(elsewhere));
            ASSERT_EQ(cache.probe(line(j)), ref.probe(line(j)))
                << "step " << step << " way " << j;
            EXPECT_EQ(cache.isDirty(line(j)), ref.isDirty(line(j)))
                << "step " << step << " way " << j;
            EXPECT_EQ(cache.txBit(line(j)), ref.txBit(line(j)))
                << "step " << step << " way " << j;
        }
        ASSERT_TRUE(cache.probe(elsewhere));
        EXPECT_EQ(cache.probe(line(ways)), ref.probe(line(ways)))
            << "step " << step;
    };
    expectSet(0);
    // Writing hits from the last way down, so way 0 ends most recently
    // used and the last way is the victim.
    for (unsigned k = ways; k-- > 0;) {
        ASSERT_TRUE(cache.probe(elsewhere));
        ASSERT_TRUE(cache.tryHit(line(k), true)) << "way " << k;
        ref.access(line(k), true);
        expectSet(ways - k);
    }
    expectSameResult(cache.insert(line(ways), false, false),
                     ref.insert(line(ways), false, false), ways + 1);
    expectSet(ways + 1);
}

/**
 * Random access/insert/remap/invalidate/cleanIfDirty/setTxBit sequences,
 * with a power failure (invalidateAll) about one step in 400, over a
 * line pool that piles into a few sets — both as congruent lines
 * (line % sets equal) and as lines that agree only in their low bits,
 * which a mask-indexed non-power-of-two geometry would wrongly merge.
 * Congruent lines also straddle line number 2^32 and sit near the top
 * of the address space, so the set index is pinned over the whole
 * line-number range, not just where simulated machines put memory.
 *
 * About one step in three repeats the previous line, the case the slot
 * hint serves; one op drops that hinted line (invalidate, remap away
 * or power failure) and then touches it again, which a hint that
 * trusted a stale slot would wrongly hit.  The split tryHit/fillMiss
 * access and cleanIfDirty run against the same reference.  The
 * sequence starts from probeEveryWay()'s filled set.
 */
void
runCacheDifferential(std::uint64_t size_bytes, unsigned ways,
                     std::uint64_t seed)
{
    Cache cache(CacheParams{"dut", size_bytes, ways, 1});
    RefCache ref(size_bytes, ways);
    const std::uint64_t sets = size_bytes / kLineSize / ways;
    probeEveryWay(cache, ref, sets, ways);

    std::vector<Addr> pool;
    for (std::uint64_t base : {std::uint64_t{3}, sets - 1}) {
        for (std::uint64_t k = 0; k < 2 * ways; ++k)
            pool.push_back((base + k * sets) << kLineShift);
    }
    for (std::uint64_t k = 0; k < 2 * ways; ++k)
        pool.push_back((5 + (k << 20)) << kLineShift);
    // High line numbers: one class straddles line 2^28, the top bit of
    // a tag's line field, and one ends at the last line a tag can name.
    const std::uint64_t k0 = (kMaxPhysLines / 2) / sets;
    for (std::uint64_t k = k0 - ways; k < k0 + ways; ++k)
        pool.push_back((3 + k * sets) << kLineShift);
    for (std::uint64_t k = 0; k < 2 * ways; ++k)
        pool.push_back((kMaxPhysLines - 1 - k * sets) << kLineShift);
    Rng rng(seed);
    for (unsigned i = 0; i < 16; ++i)
        pool.push_back(
            lineBase(rng.nextBounded(kMaxPhysLines << kLineShift)));

    Addr last = pool[0];
    for (unsigned step = 0; step < 20000; ++step) {
        const Addr line = rng.nextBounded(3) == 0
                              ? last
                              : pool[rng.nextBounded(pool.size())];
        last = line;
        if (rng.nextBounded(400) == 0) {
            cache.invalidateAll();
            ref.invalidateAll();
            ASSERT_EQ(cache.validLines(), 0u) << "step " << step;
            continue;
        }
        switch (rng.nextBounded(10)) {
          case 0:
          case 1:
          case 2: {
            const bool w = rng.nextBool(0.4);
            expectSameResult(cache.access(line, w), ref.access(line, w),
                             step);
            break;
          }
          case 3: {
            const bool d = rng.nextBool(0.5), t = rng.nextBool(0.3);
            expectSameResult(cache.insert(line, d, t),
                             ref.insert(line, d, t), step);
            break;
          }
          case 4: {
            const Addr to = pool[rng.nextBounded(pool.size())];
            expectSameResult(cache.remap(line, to), ref.remap(line, to),
                             step);
            break;
          }
          case 5:
            EXPECT_EQ(cache.invalidate(line), ref.invalidate(line))
                << "step " << step;
            break;
          case 6:
            EXPECT_EQ(cache.cleanIfDirty(line), ref.cleanIfDirty(line))
                << "step " << step;
            break;
          case 7: {
            const bool t = rng.nextBool(0.5);
            cache.setTxBit(line, t);
            ref.setTxBit(line, t);
            break;
          }
          case 8: {
            // The hierarchy's split access: hit-only, then miss-fill.
            const bool w = rng.nextBool(0.4);
            CacheAccessResult got;
            got.hit = cache.tryHit(line, w);
            if (!got.hit)
                got = cache.fillMiss(line, w);
            expectSameResult(got, ref.access(line, w), step);
            break;
          }
          case 9: {
            // Aim the hint at the line, drop the line, touch it again.
            ASSERT_EQ(cache.probe(line), ref.probe(line)) << "step " << step;
            // Power failures are rare: each one clears the reference's
            // every way.
            const unsigned drop = rng.nextBounded(16);
            if (drop < 8) {
                EXPECT_EQ(cache.invalidate(line), ref.invalidate(line))
                    << "step " << step;
            } else if (drop < 15) {
                const Addr to = pool[rng.nextBounded(pool.size())];
                expectSameResult(cache.remap(line, to),
                                 ref.remap(line, to), step);
            } else {
                cache.invalidateAll();
                ref.invalidateAll();
            }
            const bool w = rng.nextBool(0.4);
            expectSameResult(cache.access(line, w), ref.access(line, w),
                             step);
            break;
          }
        }
        ASSERT_EQ(cache.probe(line), ref.probe(line)) << "step " << step;
        EXPECT_EQ(cache.isDirty(line), ref.isDirty(line)) << "step " << step;
        EXPECT_EQ(cache.txBit(line), ref.txBit(line)) << "step " << step;
        EXPECT_EQ(cache.evictions(), ref.evictions()) << "step " << step;
        if (step % 1000 == 0) {
            EXPECT_EQ(cache.validLines(), ref.validLines());
        }
    }
    EXPECT_EQ(cache.validLines(), ref.validLines());
}

/**
 * runCacheDifferential twice over, the second time on the block the
 * first cache retired with lines still valid: the pool must hand it
 * back as clean as calloc's, or stale tags and recency words show up
 * as hits and victims the reference never had.
 */
void
runFreshThenRecycled(std::uint64_t size_bytes, unsigned ways,
                     std::uint64_t seed)
{
    runCacheDifferential(size_bytes, ways, seed);
    const std::uint64_t recycled = Cache::recycledBlocks();
    runCacheDifferential(size_bytes, ways, seed);
    EXPECT_EQ(Cache::recycledBlocks(), recycled + 1)
        << "the rerun did not take the retired block";
}

// One geometry per way count the recency word packs differently:
// direct-mapped (a single nibble, never reordered), 2, 4, 8, 12 (not a
// power of two, so the LRU nibble sits mid-word) and 16 (every nibble).
// 4, 8, 12 and 16 ways take the vector tag probe (one, two, three and
// four compares a set), 1 and 2 the scalar scan.  Each runs on fresh
// arrays, then again on the recycled ones.

TEST(CacheGeometry, DirectMappedMatchesTheReference)
{
    runFreshThenRecycled(4 * 1024, 1, 4); // 64 sets
}

TEST(CacheGeometry, TwoWayMatchesTheReference)
{
    runFreshThenRecycled(8 * 1024, 2, 5); // 64 sets
}

TEST(CacheGeometry, FourWayMatchesTheReference)
{
    runFreshThenRecycled(16 * 1024, 4, 6); // 64 sets
}

TEST(CacheGeometry, PowerOfTwoSetsMatchTheReference)
{
    runFreshThenRecycled(32 * 1024, 8, 1); // 64 sets (L1)
}

TEST(CacheGeometry, TwelveWayMatchesTheReference)
{
    runFreshThenRecycled(3ull << 20, 12, 7); // 4,096 sets
}

TEST(CacheGeometry, TwelveMiBL3MatchesTheReference)
{
    runFreshThenRecycled(12ull << 20, 16, 2); // 12,288 sets
}

TEST(CacheGeometry, NinetySixMiBL3MatchesTheReference)
{
    runFreshThenRecycled(96ull << 20, 16, 3); // 98,304 sets
}

TEST(CacheRecycling, EachThreadRecyclesOnlyItsOwnGeometry)
{
    const std::uint64_t main_recycled = Cache::recycledBlocks();
    // A new thread starts with an empty pool of its own.
    std::thread([] {
        EXPECT_EQ(Cache::recycledBlocks(), 0u);
        const CacheParams l2{"l2", 256 * 1024, 8, 6}; // 512 sets
        {
            Cache c(l2);
            for (Addr a = 0; a < 2048 * kLineSize; a += kLineSize)
                c.access(a, true);
        }
        // Another geometry gets a fresh block.
        {
            Cache c(CacheParams{"l1", 32 * 1024, 8, 4});
            EXPECT_EQ(Cache::recycledBlocks(), 0u);
        }
        Cache c(l2);
        EXPECT_EQ(Cache::recycledBlocks(), 1u);
        EXPECT_EQ(c.validLines(), 0u);
        EXPECT_FALSE(c.access(0, false).hit);
    }).join();
    EXPECT_EQ(Cache::recycledBlocks(), main_recycled);
}

TEST(CacheGeometry, FillBeyondTheTagLimitThrows)
{
    // Line 2^29 would wrap to line 0 in a 29-bit line field.
    Cache c(tinyCache(32, 8, 4));
    const Addr last = (kMaxPhysLines - 1) << kLineShift;
    EXPECT_FALSE(c.access(last, true).hit);
    EXPECT_TRUE(c.probe(last));
    EXPECT_THROW(c.access(kMaxPhysLines << kLineShift, false),
                 std::logic_error);
    EXPECT_THROW(c.insert(kMaxPhysLines << kLineShift, true, false),
                 std::logic_error);
    EXPECT_EQ(c.validLines(), 1u);
}

TEST(CacheGeometry, MoreThanSixteenWaysIsFatal)
{
    // ssp_fatal throws, so a configuration error is catchable here.
    EXPECT_NO_THROW(Cache(CacheParams{"l3", 64 * 1024, 16, 1}));
    try {
        Cache c(CacheParams{"l3", 68 * 1024, 17, 1});
        FAIL() << "a 17-way cache was built";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("limit of 16"),
                  std::string::npos)
            << e.what();
    }
}

} // namespace

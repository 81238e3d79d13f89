/**
 * @file
 * Directory coherence on the 2D mesh: the wide CoreBitmap, the mesh
 * geometry, the directory cost model, the snoop filter's eviction /
 * back-invalidation semantics, and the sharer-index cross-checks at
 * core counts past one 64-bit word (65/128/256).
 */

#include <gtest/gtest.h>

#include <iterator>
#include <list>
#include <map>
#include <stdexcept>
#include <vector>

#include "cache/hierarchy.hh"
#include "common/bitmap64.hh"
#include "common/rng.hh"
#include "core/machine.hh"
#include "interconnect/directory.hh"
#include "interconnect/mesh.hh"
#include "mem/memory_bus.hh"
#include "mem/phys_mem.hh"
#include "tests/test_helpers.hh"

namespace ssp::test
{
namespace
{

// ---- CoreBitmap past the first word ---------------------------------------

TEST(CoreBitmapWide, SingleBitOpsCrossWordBoundaries)
{
    const std::vector<CoreId> bits = {0, 63, 64, 65, 127, 128, 191, 255};
    CoreBitmap b;
    EXPECT_TRUE(b.none());
    for (CoreId c : bits)
        b.set(c);
    EXPECT_EQ(b.count(), bits.size());
    for (CoreId c : bits)
        EXPECT_TRUE(b.test(c)) << "core " << c;
    EXPECT_FALSE(b.test(66));
    EXPECT_FALSE(b.test(254));

    // forEachSet visits in ascending core order — the iteration order
    // every deterministic charge path depends on.
    std::vector<CoreId> seen;
    b.forEachSet([&](CoreId c) { seen.push_back(c); });
    EXPECT_EQ(seen, bits);

    b.reset(64);
    b.reset(255);
    EXPECT_FALSE(b.test(64));
    EXPECT_TRUE(b.test(65));
    EXPECT_EQ(b.count(), bits.size() - 2);

    EXPECT_EQ(CoreBitmap::ofCore(200).word(3), std::uint64_t{1} << 8);
    EXPECT_EQ(CoreBitmap::fromMask(0xff).word(0), 0xffu);
    EXPECT_EQ(CoreBitmap::fromMask(0xff).word(1), 0u);
}

TEST(CoreBitmapWide, RandomizedSetAlgebraMatchesBruteForce)
{
    // The mask is the sharer set the directory charges by; cross-check
    // every operation the charge paths use against a plain bool vector
    // over the full 256-core width.
    Rng rng(2024);
    CoreBitmap a, b;
    std::vector<bool> ra(kMaxCores, false), rb(kMaxCores, false);
    for (unsigned step = 0; step < 4000; ++step) {
        const CoreId c = static_cast<CoreId>(rng.nextBounded(kMaxCores));
        switch (rng.nextBounded(4)) {
          case 0:
            a.set(c);
            ra[c] = true;
            break;
          case 1:
            a.reset(c);
            ra[c] = false;
            break;
          case 2:
            b.set(c);
            rb[c] = true;
            break;
          case 3:
            b.reset(c);
            rb[c] = false;
            break;
        }
        if (step % 64 != 0)
            continue;
        unsigned expect_count = 0;
        const CoreBitmap uni = a | b;
        const CoreBitmap both = a & b;
        for (unsigned i = 0; i < kMaxCores; ++i) {
            EXPECT_EQ(a.test(i), static_cast<bool>(ra[i])) << "bit " << i;
            EXPECT_EQ(uni.test(i), ra[i] || rb[i]) << "bit " << i;
            EXPECT_EQ(both.test(i), ra[i] && rb[i]) << "bit " << i;
            expect_count += ra[i] ? 1 : 0;
        }
        EXPECT_EQ(a.count(), expect_count);
        EXPECT_EQ(a.none(), expect_count == 0);
    }
}

TEST(CoreBitmapWide, ToStringListsSetCores)
{
    CoreBitmap b;
    b.set(0);
    b.set(3);
    b.set(65);
    EXPECT_EQ(b.toString(), "{0, 3, 65}");
    EXPECT_EQ(CoreBitmap{}.toString(), "{}");
}

// ---- mesh geometry --------------------------------------------------------

TEST(Mesh, DerivedDimensionsCoverPowerOfTwoCoreCounts)
{
    const struct
    {
        unsigned cores, width, height;
    } expect[] = {
        {1, 1, 1},   {2, 2, 1},   {4, 2, 2},    {8, 4, 2},
        {16, 4, 4},  {64, 8, 8},  {128, 16, 8}, {256, 16, 16},
    };
    for (const auto &e : expect) {
        const MeshGeometry m = MeshGeometry::forCores(e.cores);
        EXPECT_EQ(m.width, e.width) << e.cores << " cores";
        EXPECT_EQ(m.height, e.height) << e.cores << " cores";
        EXPECT_GE(m.tiles(), e.cores);
    }
    // Non-power-of-two counts still get seated (with spare tiles).
    const MeshGeometry odd = MeshGeometry::forCores(65);
    EXPECT_GE(odd.tiles(), 65u);
}

TEST(Mesh, ManhattanDistanceAndPageGranularHomes)
{
    const MeshGeometry m = MeshGeometry::forCores(16); // 4x4
    EXPECT_EQ(m.distance(0, 15), 6u); // (0,0) -> (3,3)
    EXPECT_EQ(m.distance(15, 0), 6u);
    EXPECT_EQ(m.distance(5, 6), 1u);
    for (unsigned t = 0; t < m.tiles(); ++t)
        EXPECT_EQ(m.distance(t, t), 0u);

    // Page-granular homing: every line of a page shares one home node,
    // so a sub-page shootdown is one directory transaction.
    for (Ppn p = 0; p < 32; ++p) {
        const Addr page = pageBase(p);
        EXPECT_EQ(m.homeTile(page), p % m.tiles());
        for (unsigned l = 1; l < kPageSize / kLineSize; ++l) {
            EXPECT_EQ(m.homeTile(page + l * kLineSize), m.homeTile(page));
        }
    }
}

// ---- directory cost model -------------------------------------------------

CoherenceParams
directoryParams(unsigned snoop_filter_entries = 0)
{
    CoherenceParams p;
    p.mode = CoherenceMode::Directory;
    p.snoopFilterEntries = snoop_filter_entries;
    return p;
}

TEST(DirectoryCost, SingleCoreEventsAreFree)
{
    // Parity with the broadcast model: one core has no peers and no
    // mesh to cross, so flips cost nothing and move no messages.
    DirectoryCoherence dir(1, directoryParams());
    EXPECT_EQ(dir.flipCurrentBit(0, pageBase(3), CoreBitmap{}, 1000), 1000u);
    EXPECT_EQ(dir.messages(), 0u);
    EXPECT_EQ(dir.directoryLookups(), 0u);
    EXPECT_EQ(dir.hopTraversalCycles(), 0u);
    EXPECT_EQ(dir.flipMessages(), 1u); // the event itself is counted
}

TEST(DirectoryCost, PricesRequestLookupAndFarthestSharer)
{
    DirectoryCoherence dir(16, directoryParams()); // 4x4 mesh
    constexpr Cycles hop = DirectoryCoherence::kHopCycles;
    constexpr Cycles lookup = DirectoryCoherence::kLookupCycles;
    // Home of page 10 is tile 10 = (2,2); sender 0 = (0,0) is 4 hops
    // away, sharer 15 = (3,3) is 2 hops from the home.  Every hop is
    // traversed twice (request/ack, invalidation/ack).
    const Addr line = pageBase(10);
    const unsigned request_hops = 2 * 4;
    const unsigned sharer_hops = 2 * 2;

    const Cycles done =
        dir.invalidate(0, line, CoreBitmap::ofCore(15), 500);
    EXPECT_EQ(done, 500 + hop * (request_hops + sharer_hops) + lookup);
    EXPECT_EQ(dir.directoryLookups(), 1u);
    // One request/ack pair plus one invalidation/ack pair.
    EXPECT_EQ(dir.messages(), 4u);
    EXPECT_EQ(dir.hopTraversalCycles(), hop * (request_hops + sharer_hops));

    // A flip with no cached peers still crosses to the home and back.
    const Cycles flip_done = dir.flipCurrentBit(0, line, CoreBitmap{}, 500);
    EXPECT_EQ(flip_done, 500 + hop * request_hops + lookup);

    // Receiver charge scales with the home -> sharer distance; a sharer
    // co-located with the home pays nothing extra.
    EXPECT_EQ(dir.shootdownReceiverCost(15, line), hop * 2);
    EXPECT_EQ(dir.shootdownReceiverCost(10, line), 0u);
}

TEST(DirectoryCost, SenderIsNeverItsOwnInvalidationTarget)
{
    DirectoryCoherence dir(16, directoryParams());
    const Addr line = pageBase(10);
    CoreBitmap with_self = CoreBitmap::ofCore(15);
    with_self.set(0);
    const Cycles a = dir.invalidate(0, line, CoreBitmap::ofCore(15), 0);
    const Cycles b = dir.invalidate(0, line, with_self, 0);
    EXPECT_EQ(a, b);
}

// ---- snoop filter ---------------------------------------------------------

/** Hierarchy + directory wired the way Machine wires them. */
class SnoopFilterTest : public ::testing::Test
{
  protected:
    static constexpr unsigned kCores = 8;

    explicit SnoopFilterTest(unsigned filter_entries = 1,
                             unsigned cores = kCores)
        : mem(64, 16),
          bus(mem, MemTimingParams{4, 1024, 100, 100, 0.4},
              MemTimingParams{4, 1024, 200, 800, 0.4}),
          hier(cores, smallParams(), bus),
          dir(cores, directoryParams(filter_entries))
    {
        hier.attachCoherence(&dir);
        dir.attachBackInvalidator([this](Addr line, Cycles now) {
            return hier.backInvalidateLine(line, now);
        });
    }

    static HierarchyParams
    smallParams()
    {
        HierarchyParams p;
        p.l1 = CacheParams{"l1", 1024, 2, 4};
        p.l2 = CacheParams{"l2", 4096, 4, 6};
        p.l3 = CacheParams{"l3", 16384, 4, 27};
        return p;
    }

    std::size_t
    totalFilterSize() const
    {
        std::size_t n = 0;
        for (unsigned t = 0; t < dir.mesh().tiles(); ++t)
            n += dir.filterSize(t);
        return n;
    }

    PhysMem mem;
    MemoryBus bus;
    CacheHierarchy hier;
    DirectoryCoherence dir;
};

TEST_F(SnoopFilterTest, EvictionForcesBackInvalidationOfCleanCopies)
{
    // Two lines of one page share a home tile whose filter holds one
    // entry: filling the second must evict the first, and inclusion
    // demands the evicted line's cached copies be dropped.
    const Addr a = 0, b = kLineSize;
    hier.read(0, a, 0);
    ASSERT_TRUE(hier.l1(0).probe(a));
    EXPECT_EQ(dir.filterSize(0), 1u);

    hier.read(0, b, 100);
    EXPECT_FALSE(hier.l1(0).probe(a));
    EXPECT_FALSE(hier.l2(0).probe(a));
    EXPECT_TRUE(hier.l1(0).probe(b));
    EXPECT_EQ(dir.snoopFilterEvictions(), 1u);
    EXPECT_EQ(dir.backInvalidations(), 1u);
    EXPECT_TRUE(hier.sharerIndex().sharers(a).none());
    EXPECT_EQ(dir.filterSize(0), 1u);
}

TEST_F(SnoopFilterTest, DirtyVictimFallsIntoSharedL3NotDropped)
{
    // A back-invalidated dirty pre-commit line must not lose its write:
    // the copy falls into the shared L3 as a normal dirty victim, so
    // its commit-time flush still finds it.
    const Addr a = 0, b = kLineSize;
    hier.write(0, a, 0);
    ASSERT_TRUE(hier.isDirty(0, a));

    const std::uint64_t mem_writes = bus.nvramWrites();
    hier.read(0, b, 100);
    EXPECT_FALSE(hier.l1(0).probe(a));
    EXPECT_FALSE(hier.l2(0).probe(a));
    EXPECT_TRUE(hier.l3().probe(a));
    EXPECT_TRUE(hier.l3().isDirty(a));
    // No premature write-back: the data went sideways, not to memory.
    EXPECT_EQ(bus.nvramWrites(), mem_writes);
}

TEST_F(SnoopFilterTest, PowerFailClearsFiltersButKeepsCounters)
{
    hier.read(0, 0, 0);
    hier.read(0, kLineSize, 10); // forces one eviction
    ASSERT_EQ(dir.snoopFilterEvictions(), 1u);
    ASSERT_GT(totalFilterSize(), 0u);

    hier.invalidateAll();
    dir.powerFail();
    EXPECT_EQ(totalFilterSize(), 0u);
    // Counters are measurement state; they survive the failure.
    EXPECT_EQ(dir.snoopFilterEvictions(), 1u);
}

class SnoopFilterLruTest : public SnoopFilterTest
{
  protected:
    SnoopFilterLruTest() : SnoopFilterTest(2) {}
};

TEST_F(SnoopFilterLruTest, TouchKeepsRecentlyUsedLinesTracked)
{
    // The filter LRU is fill-ordered: a second core's fill of an
    // already-tracked line touches it to most-recently-used, so the
    // next capacity eviction picks the other line.
    const Addr a = 0, b = kLineSize, c = 2 * kLineSize;
    hier.read(0, a, 0);
    hier.read(0, b, 10);
    hier.read(1, a, 20); // core 1 fills a: touch to MRU
    hier.read(0, c, 30); // evicts b, not a
    EXPECT_TRUE(hier.l1(0).probe(a));
    EXPECT_TRUE(hier.l1(1).probe(a));
    EXPECT_FALSE(hier.l1(0).probe(b));
    EXPECT_TRUE(hier.l1(0).probe(c));
    EXPECT_EQ(dir.snoopFilterEvictions(), 1u);
    EXPECT_EQ(dir.filterSize(0), 2u);
}

class SnoopFilterMixTest : public SnoopFilterTest
{
  protected:
    SnoopFilterMixTest() : SnoopFilterTest(8, 4) {}
};

TEST_F(SnoopFilterMixTest, NoMaintenanceIsPendingAfterAnyHierarchyCall)
{
    // The inline L1-hit paths skip the maintenance drain, which is only
    // exact if no public hierarchy call ever returns with a snoop-filter
    // back-invalidation still queued.  Mixed calls over lines that
    // overflow the 8-entry filters must each leave the queue empty.
    // The broadcast bus never queues anything.
    EXPECT_FALSE(BroadcastCoherence(4).maintenancePending());
    Rng rng(2024);
    std::vector<Addr> lines;
    for (unsigned i = 0; i < 48; ++i)
        lines.push_back(i * kLineSize * 3);
    std::uint64_t steps_with_eviction = 0;
    for (unsigned step = 0; step < 6000; ++step) {
        const CoreId core = static_cast<CoreId>(rng.nextBounded(4));
        const Addr line = lines[rng.nextBounded(lines.size())];
        const std::uint64_t evictions = dir.snoopFilterEvictions();
        switch (rng.nextBounded(8)) {
          case 0:
          case 1:
            hier.read(core, line, step);
            break;
          case 2:
            hier.write(core, line, step);
            break;
          case 3:
            hier.remapLine(core, line,
                           lines[rng.nextBounded(lines.size())], step);
            break;
          case 4:
            if (rng.nextBool(0.5)) {
                hier.flushLine(core, line, WriteCategory::Data, step);
            } else {
                const Addr batch[2] = {line, line + kLineSize};
                hier.flushLines(core, batch, 2, WriteCategory::Data, step);
            }
            break;
          case 5:
            hier.invalidateLine(line);
            break;
          case 6:
            hier.invalidateLineRemote(core, line);
            break;
          case 7:
            if (rng.nextBool(0.02)) {
                hier.invalidateAll();
                dir.powerFail();
            } else {
                hier.setTxBit(core, line, rng.nextBool(0.5));
            }
            break;
        }
        ASSERT_FALSE(dir.maintenancePending()) << "step " << step;
        // Every back-invalidation has been drained, so the bounded
        // filters track exactly the lines with a private copy.
        ASSERT_EQ(totalFilterSize(), hier.sharerIndex().trackedLines())
            << "step " << step;
        steps_with_eviction += dir.snoopFilterEvictions() > evictions;
    }
    // The filters really overflowed, so there was work to drain.
    EXPECT_GT(steps_with_eviction, 100u);
    EXPECT_GT(dir.backInvalidations(), 0u);
}

// ---- the snoop filter against a reference LRU -----------------------------

/**
 * The snoop filters as a plain per-tile std::list LRU (most recent at
 * the front) with a line -> node map: the model the slot-linked filter
 * must reproduce, eviction for eviction.
 */
class ReferenceFilters
{
  public:
    ReferenceFilters(const MeshGeometry &mesh, unsigned capacity)
        : mesh_(mesh), capacity_(capacity), lru_(mesh.tiles())
    {
    }

    void
    cached(Addr line)
    {
        std::list<Addr> &lru = lru_[mesh_.homeTile(line)];
        auto it = nodes_.find(line);
        if (it != nodes_.end()) {
            lru.splice(lru.begin(), lru, it->second);
            return;
        }
        lru.push_front(line);
        nodes_[line] = lru.begin();
        if (capacity_ == 0 || lru.size() <= capacity_)
            return;
        pending.push_back(lru.back());
        nodes_.erase(lru.back());
        lru.pop_back();
    }

    void
    uncached(Addr line)
    {
        auto it = nodes_.find(line);
        if (it == nodes_.end())
            return;
        lru_[mesh_.homeTile(line)].erase(it->second);
        nodes_.erase(it);
    }

    std::size_t size(unsigned tile) const { return lru_[tile].size(); }

    /** Evicted lines not yet drained, in eviction order. */
    std::vector<Addr> pending;

  private:
    MeshGeometry mesh_;
    unsigned capacity_;
    std::vector<std::list<Addr>> lru_;
    std::map<Addr, std::list<Addr>::iterator> nodes_;
};

/**
 * Drive the directory through the listener API alone, with the slots
 * held here the way SharerIndex entries hold them, and compare every
 * tile's size and every victim with the reference after each step.
 */
void
expectFilterMatchesReferenceLru(unsigned capacity, std::uint64_t seed)
{
    constexpr unsigned kCores = 4;
    DirectoryCoherence dir(kCores, directoryParams(capacity));
    ASSERT_GE(dir.mesh().tiles(), 3u);
    ReferenceFilters ref(dir.mesh(), capacity);
    std::map<Addr, std::uint32_t> slots; // lines with a private copy
    std::vector<Addr> victims;
    auto cache = [&](Addr line) {
        dir.lineCached(line, slots.try_emplace(line, kNoSlot).first->second);
        ref.cached(line);
    };
    auto uncache = [&](Addr line) {
        auto it = slots.find(line);
        if (it == slots.end())
            return false;
        dir.lineUncached(it->second);
        slots.erase(it);
        ref.uncached(line);
        return true;
    };
    dir.attachBackInvalidator([&](Addr line, Cycles) {
        victims.push_back(line);
        return uncache(line) ? CoreBitmap::ofCore(0) : CoreBitmap{};
    });

    // Sixteen pages spread over the tiles, six lines each.
    std::vector<Addr> lines;
    for (unsigned i = 0; i < 96; ++i)
        lines.push_back(pageBase(i % 16) + (i / 16) * kLineSize);
    Rng rng(seed);
    std::uint64_t undrained_refills = 0;
    for (unsigned step = 0; step < 4000; ++step) {
        const unsigned op = static_cast<unsigned>(rng.nextBounded(10));
        if (op < 6 || (op == 6 && ref.pending.empty())) {
            cache(lines[rng.nextBounded(lines.size())]);
        } else if (op == 6) {
            // Refill a line whose back-invalidation is still queued.
            const Addr line =
                ref.pending[rng.nextBounded(ref.pending.size())];
            undrained_refills += slots.count(line);
            cache(line);
        } else if (op < 9) {
            if (!slots.empty()) {
                auto it = slots.begin();
                std::advance(it, rng.nextBounded(slots.size()));
                uncache(it->first);
            }
        } else {
            // The directory drains its queue newest first.
            const std::vector<Addr> expect(ref.pending.rbegin(),
                                           ref.pending.rend());
            ref.pending.clear();
            victims.clear();
            dir.drainMaintenance(step);
            ASSERT_EQ(victims, expect) << "step " << step;
        }
        std::size_t total = 0;
        for (unsigned t = 0; t < dir.mesh().tiles(); ++t) {
            ASSERT_EQ(dir.filterSize(t), ref.size(t))
                << "capacity " << capacity << ", step " << step
                << ", tile " << t;
            total += dir.filterSize(t);
        }
        ASSERT_LE(total, slots.size());
        ASSERT_EQ(dir.maintenancePending(), !ref.pending.empty());
    }
    if (capacity == 0) {
        EXPECT_EQ(dir.snoopFilterEvictions(), 0u);
    } else {
        EXPECT_GT(dir.snoopFilterEvictions(), 500u);
        EXPECT_GT(undrained_refills, 100u);
    }

    // Uncaching every line empties every filter; power failure checks
    // that, and the freed slots serve the next fills.
    dir.drainMaintenance(0);
    while (!slots.empty())
        uncache(slots.begin()->first);
    dir.powerFail();
    for (Addr line : lines)
        cache(line);
    for (unsigned t = 0; t < dir.mesh().tiles(); ++t)
        EXPECT_EQ(dir.filterSize(t), ref.size(t)) << "tile " << t;
}

TEST(SnoopFilterReference, MatchesListLruAtCapacities1_2_8AndUnbounded)
{
    for (unsigned capacity : {1u, 2u, 8u, 0u}) {
        for (std::uint64_t seed : {7u, 2024u}) {
            SCOPED_TRACE(testing::Message() << "capacity " << capacity
                                            << ", seed " << seed);
            expectFilterMatchesReferenceLru(capacity, seed);
            if (testing::Test::HasFatalFailure())
                return;
        }
    }
}

// ---- sharer masks past 64 cores -------------------------------------------

/**
 * The directory's invalidation targets are exactly the sharer index's
 * masks, so the index must stay brute-force-exact through every
 * mutation path at core counts past one bitmap word — with the
 * directory listener attached, since its filter bookkeeping rides the
 * same add/remove hooks.
 */
void
expectMasksMatchBruteForce(unsigned cores, unsigned steps,
                           std::uint64_t seed)
{
    PhysMem mem(64, 16);
    MemoryBus bus(mem, MemTimingParams{4, 1024, 100, 100, 0.4},
                  MemTimingParams{4, 1024, 200, 800, 0.4});
    HierarchyParams params;
    params.l1 = CacheParams{"l1", 1024, 2, 4};
    params.l2 = CacheParams{"l2", 4096, 4, 6};
    params.l3 = CacheParams{"l3", 16384, 4, 27};
    CacheHierarchy hier(cores, params, bus);
    DirectoryCoherence dir(cores, directoryParams(/*unbounded*/ 0));
    hier.attachCoherence(&dir);
    dir.attachBackInvalidator([&hier](Addr line, Cycles now) {
        return hier.backInvalidateLine(line, now);
    });

    std::vector<Addr> lines;
    for (unsigned i = 0; i < 48; ++i)
        lines.push_back(i * kLineSize * 3);

    auto probe_mask = [&](Addr line) {
        CoreBitmap mask;
        for (CoreId c = 0; c < cores; ++c) {
            if (hier.l1(c).probe(line) || hier.l2(c).probe(line))
                mask.set(c);
        }
        return mask;
    };
    auto check = [&]() {
        for (Addr line : lines) {
            EXPECT_EQ(hier.sharerIndex().sharers(line), probe_mask(line))
                << cores << " cores, line 0x" << std::hex << line;
        }
        // The unbounded filter mirrors the index: it tracks exactly the
        // lines with at least one private copy.
        std::size_t filter_lines = 0;
        for (unsigned t = 0; t < dir.mesh().tiles(); ++t)
            filter_lines += dir.filterSize(t);
        EXPECT_EQ(filter_lines, hier.sharerIndex().trackedLines());
    };

    Rng rng(seed);
    for (unsigned step = 0; step < steps; ++step) {
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
            if (rng.nextBool(0.02)) {
                // Simulated power failure, machine-style: the caches
                // and the volatile filter state die together.
                hier.invalidateAll();
                dir.powerFail();
            } else {
                hier.read(core, line + kLineSize, step);
            }
            break;
        }
        if (step % 64 == 0)
            check();
    }
    check();
}

TEST(SharerMaskWide, MatchesBruteForceAt65Cores)
{
    expectMasksMatchBruteForce(65, 3000, 777);
}

TEST(SharerMaskWide, MatchesBruteForceAt128Cores)
{
    expectMasksMatchBruteForce(128, 1500, 778);
}

TEST(SharerMaskWide, MatchesBruteForceAt256Cores)
{
    expectMasksMatchBruteForce(256, 1000, 779);
}

// ---- full machine in directory mode ---------------------------------------

SspConfig
directoryConfig(unsigned cores)
{
    SspConfig cfg = smallConfig(cores);
    cfg.coherence.mode = CoherenceMode::Directory;
    return cfg;
}

TEST(DirectoryMachine, CowRemapShootdownDropsPeerStaleLines)
{
    // The flip-current-bit shootdown contract, under the directory
    // model: the peer's stale copy is dropped, the peer is charged for
    // the message, and subsequent reads see the remapped line.
    SspSystem sys(directoryConfig(2));
    // Directory machines keep the sharer index at any core count (the
    // snoop filter is fed by it).
    EXPECT_TRUE(sys.machine().caches().sharerIndexed());

    const Addr addr = pageBase(1) + 8;
    txWrite64(sys, 0, addr, 111);
    EXPECT_EQ(timed64(sys, 1, addr), 111u);
    const Addr stale = lineBase(sys.committedLocation(addr));
    ASSERT_TRUE(sys.machine().caches().l1(1).probe(stale));

    const std::uint64_t received_before =
        sys.machine().coherence().messagesReceived(1);
    const std::uint64_t lookups_before =
        sys.machine().coherence().directoryLookups();
    txWrite64(sys, 0, addr, 222);
    EXPECT_FALSE(sys.machine().caches().l1(1).probe(stale));
    EXPECT_FALSE(sys.machine().caches().l2(1).probe(stale));
    EXPECT_GT(sys.machine().coherence().messagesReceived(1),
              received_before);
    EXPECT_GT(sys.machine().coherence().directoryLookups(), lookups_before);
    EXPECT_EQ(timed64(sys, 1, addr), 222u);
}

TEST(DirectoryMachine, PowerFailClearsFilterStateWithTheCaches)
{
    Machine m(directoryConfig(4));
    auto &dir = dynamic_cast<DirectoryCoherence &>(m.coherence());
    m.caches().read(0, lineAddr(2, 0), 0);
    m.caches().read(1, lineAddr(3, 1), 0);
    std::size_t tracked = 0;
    for (unsigned t = 0; t < dir.mesh().tiles(); ++t)
        tracked += dir.filterSize(t);
    ASSERT_GT(tracked, 0u);

    m.powerFail();
    tracked = 0;
    for (unsigned t = 0; t < dir.mesh().tiles(); ++t)
        tracked += dir.filterSize(t);
    EXPECT_EQ(tracked, 0u);
    EXPECT_EQ(m.caches().sharerIndex().trackedLines(), 0u);
}

} // namespace
} // namespace ssp::test

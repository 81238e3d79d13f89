/**
 * @file
 * Unit tests for the page table and the extended TLB.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "vm/page_table.hh"
#include "vm/tlb.hh"

using namespace ssp;

namespace
{

TEST(PageTable, MapTranslateUnmap)
{
    PageTable pt(60, 16);
    pt.map(5, 500);
    EXPECT_TRUE(pt.isMapped(5));
    EXPECT_EQ(pt.translate(5), 500u);
    EXPECT_TRUE(pt.unmap(5));
    EXPECT_FALSE(pt.isMapped(5));
    EXPECT_FALSE(pt.unmap(5));
}

TEST(PageTable, RemapOverwrites)
{
    PageTable pt(60, 16);
    pt.map(7, 70);
    pt.map(7, 71);
    EXPECT_EQ(pt.translate(7), 71u);
    EXPECT_EQ(pt.size(), 1u);
}

TEST(PageTable, WalkCostsConfiguredCycles)
{
    PageTable pt(60, 16);
    EXPECT_EQ(pt.walk(100), 160u);
}

TEST(PageTable, TranslateUnmappedPanics)
{
    PageTable pt(60, 16);
    EXPECT_THROW(pt.translate(9), std::logic_error);
}

TEST(PageTable, EndOfTheTableIsUnmappedAndAsserts)
{
    PageTable pt(60, 16);
    pt.map(15, 150); // the last page
    EXPECT_TRUE(pt.isMapped(15));
    EXPECT_FALSE(pt.isMapped(16));
    EXPECT_FALSE(pt.isMapped(~Vpn{0}));
    EXPECT_THROW(pt.map(16, 160), std::logic_error);
    EXPECT_THROW(pt.translate(16), std::logic_error);
    EXPECT_FALSE(pt.unmap(16));
    EXPECT_EQ(pt.size(), 1u);
}

TlbEntry
entry(Vpn vpn, Ppn ppn0 = 0, SlotId slot = kInvalidSlot)
{
    TlbEntry e;
    e.valid = true;
    e.vpn = vpn;
    e.ppn0 = ppn0;
    e.slot = slot;
    return e;
}

TEST(Tlb, HitAfterInsert)
{
    Tlb tlb(4);
    tlb.insert(entry(3, 30));
    TlbEntry *hit = tlb.lookup(3);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->ppn0, 30u);
    EXPECT_EQ(tlb.hits(), 1u);
}

TEST(Tlb, MissReturnsNull)
{
    Tlb tlb(4);
    EXPECT_EQ(tlb.lookup(9), nullptr);
}

TEST(Tlb, LruEvictionReturnsVictim)
{
    Tlb tlb(2);
    tlb.insert(entry(1));
    tlb.insert(entry(2));
    auto displaced = tlb.insert(entry(3));
    ASSERT_TRUE(displaced.has_value());
    EXPECT_EQ(displaced->vpn, 1u); // LRU
    EXPECT_EQ(tlb.lookup(1), nullptr);
    EXPECT_NE(tlb.lookup(2), nullptr);
}

TEST(Tlb, LookupRefreshesLru)
{
    Tlb tlb(2);
    tlb.insert(entry(1));
    tlb.insert(entry(2));
    tlb.lookup(1); // 2 becomes LRU
    auto displaced = tlb.insert(entry(3));
    ASSERT_TRUE(displaced.has_value());
    EXPECT_EQ(displaced->vpn, 2u);
}

TEST(Tlb, ExplicitEvict)
{
    Tlb tlb(4);
    tlb.insert(entry(5, 50, 7));
    auto out = tlb.evict(5);
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out->slot, 7u);
    EXPECT_EQ(tlb.lookup(5), nullptr);
    EXPECT_FALSE(tlb.evict(5).has_value());
}

TEST(Tlb, CapacityHonored)
{
    Tlb tlb(8);
    for (Vpn v = 0; v < 20; ++v)
        tlb.insert(entry(v));
    EXPECT_EQ(tlb.validEntries().size(), 8u);
    EXPECT_EQ(tlb.evictions(), 12u);
}

TEST(Tlb, FlushAllEmpties)
{
    Tlb tlb(4);
    tlb.insert(entry(1));
    tlb.insert(entry(2));
    tlb.flushAll();
    EXPECT_TRUE(tlb.validEntries().empty());
    EXPECT_EQ(tlb.lookup(1), nullptr);
}

TEST(Tlb, InsertReusesInvalidSlotsFirst)
{
    Tlb tlb(2);
    tlb.insert(entry(1));
    tlb.insert(entry(2));
    tlb.evict(1);
    auto displaced = tlb.insert(entry(3));
    EXPECT_FALSE(displaced.has_value()); // used the invalidated slot
    EXPECT_NE(tlb.lookup(2), nullptr);
}

/** The plain fully-associative, true-LRU TLB: a linear scan per call. */
class RefTlb
{
  public:
    explicit RefTlb(unsigned n) : entries_(n) {}

    TlbEntry *
    lookup(Vpn vpn)
    {
        for (TlbEntry &e : entries_) {
            if (e.valid && e.vpn == vpn) {
                e.lru = ++clock_;
                ++hits_;
                return &e;
            }
        }
        ++misses_;
        return nullptr;
    }

    std::optional<TlbEntry>
    insert(const TlbEntry &in)
    {
        TlbEntry *victim = nullptr;
        for (TlbEntry &e : entries_) {
            if (!e.valid) {
                victim = &e;
                break;
            }
            if (victim == nullptr || e.lru < victim->lru)
                victim = &e;
        }
        std::optional<TlbEntry> out;
        if (victim->valid) {
            ++evictions_;
            out = *victim;
        }
        *victim = in;
        victim->lru = ++clock_;
        return out;
    }

    std::optional<TlbEntry>
    evict(Vpn vpn)
    {
        for (TlbEntry &e : entries_) {
            if (e.valid && e.vpn == vpn) {
                e.valid = false;
                TlbEntry out = e;
                out.valid = true;
                return out;
            }
        }
        return std::nullopt;
    }

    void
    flushAll()
    {
        for (TlbEntry &e : entries_)
            e.valid = false;
    }

    std::vector<TlbEntry>
    validEntries() const
    {
        std::vector<TlbEntry> out;
        for (const TlbEntry &e : entries_) {
            if (e.valid)
                out.push_back(e);
        }
        return out;
    }

    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t evictions_ = 0;

  private:
    std::vector<TlbEntry> entries_;
    std::uint64_t clock_ = 0;
};

void
expectSameEntry(const TlbEntry &got, const TlbEntry &want, unsigned step)
{
    EXPECT_EQ(got.valid, want.valid) << "step " << step;
    EXPECT_EQ(got.vpn, want.vpn) << "step " << step;
    EXPECT_EQ(got.ppn0, want.ppn0) << "step " << step;
    EXPECT_EQ(got.ppn1, want.ppn1) << "step " << step;
    EXPECT_EQ(got.slot, want.slot) << "step " << step;
    EXPECT_EQ(got.lru, want.lru) << "step " << step;
}

void
expectSameDisplaced(const std::optional<TlbEntry> &got,
                    const std::optional<TlbEntry> &want, unsigned step)
{
    ASSERT_EQ(got.has_value(), want.has_value()) << "step " << step;
    if (want)
        expectSameEntry(*got, *want, step);
}

/** Drive @p tlb and @p ref the engine's way for one vpn: lookup, and on
 *  a miss count it and fill (insert only ever sees an absent vpn). */
void
lookupOrFill(Tlb &tlb, RefTlb &ref, Vpn vpn, unsigned step)
{
    TlbEntry *got = tlb.lookup(vpn);
    TlbEntry *want = ref.lookup(vpn);
    ASSERT_EQ(got == nullptr, want == nullptr) << "step " << step;
    if (want != nullptr) {
        expectSameEntry(*got, *want, step);
        return;
    }
    tlb.countMiss();
    TlbEntry fill = entry(vpn, 1000 + step, step % 7);
    fill.ppn1 = 2000 + step;
    expectSameDisplaced(tlb.insert(fill), ref.insert(fill), step);
}

void
expectSameState(const Tlb &tlb, const RefTlb &ref, unsigned step)
{
    ASSERT_EQ(tlb.hits(), ref.hits_) << "step " << step;
    ASSERT_EQ(tlb.misses(), ref.misses_) << "step " << step;
    ASSERT_EQ(tlb.evictions(), ref.evictions_) << "step " << step;
}

void
expectSameLayout(const Tlb &tlb, const RefTlb &ref, unsigned step)
{
    const auto got = tlb.validEntries();
    const auto want = ref.validEntries();
    ASSERT_EQ(got.size(), want.size()) << "step " << step;
    for (std::size_t i = 0; i < got.size(); ++i)
        expectSameEntry(got[i], want[i], step);
}

class TlbGeometry : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(TlbGeometry, MatchesALinearScanTrueLruReference)
{
    // The vpn index, LRU list and invalid bitmap must be invisible:
    // same hits, same victims, same slot layout as the scan.  The vpn
    // pool holds four groups of vpns that agree in their low 12 bits,
    // so they share a chain of any low-bit index, and it is larger
    // than the TLB so LRU eviction runs constantly.  The capacities
    // straddle the bitmap's 64-entry words.
    const unsigned entries = GetParam();
    Tlb tlb(entries);
    RefTlb ref(entries);
    std::vector<Vpn> pool;
    for (Vpn low : {Vpn{0}, Vpn{1}, Vpn{7}, Vpn{255}}) {
        for (Vpn k = 0; k < std::max(40u, entries); ++k)
            pool.push_back(low + (k << 12));
    }
    Rng rng(2024);
    unsigned step = 0;
    for (; step < 40000; ++step) {
        const Vpn vpn = pool[rng.nextBounded(pool.size())];
        const std::uint64_t op = rng.nextBounded(100);
        if (op < 85) {
            lookupOrFill(tlb, ref, vpn, step);
            if (HasFatalFailure())
                return;
        } else if (op < 99) {
            expectSameDisplaced(tlb.evict(vpn), ref.evict(vpn), step);
        } else {
            tlb.flushAll();
            ref.flushAll();
        }
        expectSameState(tlb, ref, step);
        if (step % 256 == 0)
            expectSameLayout(tlb, ref, step);
        if (HasFatalFailure())
            return;
    }

    // Flush, then refill every entry and one more: the refill takes
    // the entries in order, and the extra vpn evicts the first.
    tlb.flushAll();
    ref.flushAll();
    for (unsigned i = 0; i <= entries; ++i, ++step) {
        lookupOrFill(tlb, ref, pool[i], step);
        expectSameState(tlb, ref, step);
        expectSameLayout(tlb, ref, step);
        if (HasFatalFailure())
            return;
    }
    EXPECT_EQ(tlb.validEntries().size(), entries);
    EXPECT_EQ(tlb.lookup(pool[0]), nullptr);
    EXPECT_NE(tlb.lookup(pool[entries]), nullptr);
}

INSTANTIATE_TEST_SUITE_P(Tlb, TlbGeometry,
                         ::testing::Values(1u, 2u, 3u, 63u, 64u, 65u, 130u),
                         [](const auto &info) {
                             return "entries" + std::to_string(info.param);
                         });

} // namespace

/**
 * @file
 * The extended data TLB.
 *
 * Paper section 4.1.1: each TLB entry is widened to also cache the second
 * physical page number (PPN1) and the per-page current bitmap fetched
 * from the memory controller's SSP cache.  The updated bitmap lives in a
 * separate write-set buffer (section 4.2), so a burst of non-transactional
 * accesses can evict in-transaction pages from the TLB without losing the
 * write set.
 *
 * The simulator keeps the *authoritative* current bitmap inside the SSP
 * cache entry (all TLBs and the controller see one value, kept coherent
 * in hardware by the flip-current-bit broadcast, section 4.1.1); the TLB
 * entry carries the slot reference.  The TLB's job here is reach/timing:
 * hits are free, misses cost a page walk plus an SSP-cache fetch, and
 * evictions decrement the controller's TLB reference count, which is the
 * trigger for page consolidation.
 */

#ifndef SSP_VM_TLB_HH
#define SSP_VM_TLB_HH

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/bitmap64.hh"
#include "common/types.hh"

namespace ssp
{

/** One extended TLB entry. */
struct TlbEntry
{
    bool valid = false;
    Vpn vpn = 0;
    /** Original physical page. */
    Ppn ppn0 = kInvalidPpn;
    /** Second (shadow) physical page; kInvalidPpn for non-SSP backends. */
    Ppn ppn1 = kInvalidPpn;
    /** SSP cache slot this entry references; kInvalidSlot for non-SSP. */
    SlotId slot = kInvalidSlot;
    /** LRU timestamp. */
    std::uint64_t lru = 0;
};

/**
 * Fully-associative, true-LRU TLB (64 entries in Table 2).
 *
 * The caller (the engine) performs the fill on a miss and passes the
 * fetched metadata to insert(); insert() reports the displaced victim so
 * the controller's TLB reference count can be maintained.
 */
class Tlb
{
  public:
    explicit Tlb(unsigned num_entries);

    /** Look up @p vpn; updates LRU on hit.  Inline: every simulated
     *  access translates, and the hinted hit needs no call. */
    TlbEntry *
    lookup(Vpn vpn)
    {
        const unsigned idx = find(vpn);
        if (idx == kNoEntry)
            return nullptr;
        TlbEntry &entry = entries_[idx];
        entry.lru = ++lruClock_;
        ++hits_;
        return &entry;
    }

    /**
     * Insert a new translation, evicting the LRU entry if full.
     * @return The displaced valid entry, if any.
     */
    std::optional<TlbEntry> insert(const TlbEntry &entry);

    /**
     * Remove @p vpn from the TLB (shootdown), returning the entry if it
     * was present.
     */
    std::optional<TlbEntry> evict(Vpn vpn);

    /** All valid entries, in no particular order (for flush paths). */
    std::vector<TlbEntry> validEntries() const;

    /** Drop everything (power failure / full shootdown). */
    void flushAll();

    unsigned capacity() const { return capacity_; }
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t evictions() const { return evictions_; }

    /** Record a miss (the engine calls this when lookup() fails). */
    void countMiss() { ++misses_; }

  private:
    /** Hint-table size: a power of two, 4x the Table 2 TLB, so the
     *  pages of a clustered working set rarely share a slot. */
    static constexpr unsigned kHintSlots = 256;
    /** "Not present" from find(). */
    static constexpr unsigned kNoEntry = ~0u;

    /**
     * Index of @p vpn's valid entry, or kNoEntry; no LRU/counter side
     * effects.  Expected O(1): the hinted entry is checked first (see
     * hints_).  Valid entries hold distinct vpns (insert() runs only
     * after a miss), so the hint and the scan cannot disagree on the
     * match.
     */
    unsigned
    find(Vpn vpn)
    {
        const unsigned hint = hints_[hintOf(vpn)];
        const TlbEntry &hinted = entries_[hint];
        if (hinted.valid && hinted.vpn == vpn)
            return hint;
        return scan(vpn);
    }

    /** find()'s fallback: the full scan, re-pointing the hint on a hit. */
    unsigned scan(Vpn vpn);

    static unsigned
    hintOf(Vpn vpn)
    {
        return static_cast<unsigned>(vpn & (kHintSlots - 1));
    }

    unsigned capacity_;
    std::vector<TlbEntry> entries_;
    /**
     * vpn-indexed lookup hint: hints_[hintOf(vpn)] is the entry that
     * last held a vpn hashing there, always an index into entries_
     * (which never reallocates).  It is only a guess — the entry is
     * re-verified on use and the full scan is the fallback — so
     * eviction, flush and colliding vpns need no bookkeeping, and
     * lookups answer exactly what the fully-associative scan would.
     */
    std::array<unsigned, kHintSlots> hints_{};
    std::uint64_t lruClock_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t evictions_ = 0;
};

} // namespace ssp

#endif // SSP_VM_TLB_HH

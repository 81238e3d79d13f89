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
#include "common/logging.hh"
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
 *
 * Nothing scans the entries.  Three structures over the entry indices
 * answer exactly what a linear scan would:
 *  - a vpn index: kBuckets chains, linked through a 16-bit next index,
 *    holding every valid entry and nothing else;
 *  - the LRU list: the valid entries, doubly linked from the most to
 *    the least recently used, so the tail is the entry with the
 *    smallest lru stamp (every stamp is taken by moving to the front);
 *  - a bitmap of invalid entries, so insert() still fills the
 *    lowest-numbered invalid entry before it evicts anything.
 * Debug builds check each miss and each victim against the scan.
 */
class Tlb
{
  public:
    explicit Tlb(unsigned num_entries);

    /** Look up @p vpn; updates LRU on hit.  Inline: every simulated
     *  access translates, and a hit needs no call. */
    TlbEntry *
    lookup(Vpn vpn)
    {
        const unsigned idx = find(vpn);
        if (idx == kNil) {
            ssp_assert_dbg(scan(vpn) == kNil, "TLB index lost a vpn");
            return nullptr;
        }
        TlbEntry &entry = entries_[idx];
        entry.lru = ++lruClock_;
        ++hits_;
        if (idx != mru_) {
            unlinkLru(idx);
            pushMru(idx);
        }
        return &entry;
    }

    /**
     * Insert a translation for a vpn the TLB does not hold, into the
     * lowest-numbered invalid entry, else over the LRU entry.
     * @return The displaced valid entry, if any.
     */
    std::optional<TlbEntry> insert(const TlbEntry &entry);

    /**
     * Remove @p vpn from the TLB (shootdown), returning the entry if it
     * was present.
     */
    std::optional<TlbEntry> evict(Vpn vpn);

    /** All valid entries in entry order.  Only tests read it, to
     *  compare layouts with a reference. */
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
    /** vpn-index chains: a power of two, 4x the Table 2 TLB, so the
     *  pages of a clustered working set rarely share a chain. */
    static constexpr unsigned kBuckets = 256;
    /** End of a chain or list; also find()'s "not present". */
    static constexpr std::uint16_t kNil = 0xFFFF;

    /** An entry's links: its vpn chain and its LRU neighbours. */
    struct Links
    {
        std::uint16_t chain = kNil;
        std::uint16_t newer = kNil;
        std::uint16_t older = kNil;
    };

    /** Index of @p vpn's valid entry, or kNil; no side effects. */
    unsigned
    find(Vpn vpn) const
    {
        unsigned idx = buckets_[bucketOf(vpn)];
        while (idx != kNil && entries_[idx].vpn != vpn)
            idx = links_[idx].chain;
        return idx;
    }

    static unsigned
    bucketOf(Vpn vpn)
    {
        return static_cast<unsigned>(vpn & (kBuckets - 1));
    }

    void
    unlinkLru(unsigned idx)
    {
        const Links &l = links_[idx];
        (l.newer == kNil ? mru_ : links_[l.newer].older) = l.older;
        (l.older == kNil ? lru_ : links_[l.older].newer) = l.newer;
    }

    void
    pushMru(unsigned idx)
    {
        links_[idx].newer = kNil;
        links_[idx].older = mru_;
        (mru_ == kNil ? lru_ : links_[mru_].newer) =
            static_cast<std::uint16_t>(idx);
        mru_ = static_cast<std::uint16_t>(idx);
    }

    /** Take valid entry @p idx out of the index and the LRU list. */
    void unlink(unsigned idx);

    /** The entry insert() fills: the lowest invalid one, else the LRU. */
    unsigned victim() const;

    /** Brute-force find() and victim(), for the Debug cross-checks. */
    unsigned scan(Vpn vpn) const;
    unsigned scanVictim() const;

    unsigned capacity_;
    std::vector<TlbEntry> entries_;
    std::vector<Links> links_;
    /** Chain heads of the vpn index. */
    std::array<std::uint16_t, kBuckets> buckets_{};
    /** Most and least recently used valid entries. */
    std::uint16_t mru_ = kNil;
    std::uint16_t lru_ = kNil;
    /** Bit i of word i / 64 is set while entry i is invalid. */
    std::vector<std::uint64_t> invalid_;
    unsigned numInvalid_ = 0;
    std::uint64_t lruClock_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t evictions_ = 0;
};

} // namespace ssp

#endif // SSP_VM_TLB_HH

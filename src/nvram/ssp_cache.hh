/**
 * @file
 * The SSP cache: centralized per-page metadata storage in the memory
 * controller (paper section 4.1.2).
 *
 * An entry describes one actively-updated virtual page: the original and
 * second physical page numbers (PPN0/PPN1), the durable committed bitmap,
 * the volatile current bitmap, a TLB reference count (how many TLBs cache
 * the translation — the consolidation trigger) and a core reference count
 * (cores with in-flight transactional writes to the page — a
 * consolidation/eviction blocker, section 4.2).
 *
 * The cache is split (section 4.2, "SSP Cache Organization"):
 *  - the transient half (DRAM / a reserved L3 partition) serves requests;
 *  - the persistent half (NVRAM) holds only the durable fields and is
 *    written by checkpointing, read only during recovery.
 *
 * Access latency is modeled after the paper's method: a small L3
 * partition caches hot entries; a hit costs the L3 latency, a miss the
 * DRAM latency.  Figure 9's sweep replaces this with a fixed latency.
 */

#ifndef SSP_NVRAM_SSP_CACHE_HH
#define SSP_NVRAM_SSP_CACHE_HH

#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "common/bitmap64.hh"
#include "common/logging.hh"
#include "common/types.hh"

namespace ssp
{

/** Volatile (transient) SSP cache entry. */
struct SspCacheEntry
{
    bool valid = false;
    Vpn vpn = 0;
    Ppn ppn0 = kInvalidPpn;
    Ppn ppn1 = kInvalidPpn;
    /** Durable state: which page (0=P0, 1=P1) holds each committed line. */
    Bitmap64 committed;
    /** Volatile: which page holds the *newest* version of each line. */
    Bitmap64 current;
    /** TLBs currently caching this translation. */
    std::uint32_t tlbRefCount = 0;
    /** Cores with un-committed transactional writes to this page. */
    std::uint32_t coreRefCount = 0;
    /** Entry is queued for / undergoing consolidation. */
    bool consolidating = false;
};

/** Durable image of a slot (what checkpoints write, recovery reads). */
struct PersistentSlot
{
    bool valid = false;
    Vpn vpn = 0;
    Ppn ppn0 = kInvalidPpn;
    Ppn ppn1 = kInvalidPpn;
    Bitmap64 committed;
};

/** Latency configuration for SSP-cache accesses. */
struct SspCacheLatencyParams
{
    /** Entries that fit in the reserved L3 partition (~1K in the paper). */
    unsigned l3ResidentEntries = 1024;
    /** Latency when the entry is L3-resident (Table 2 L3: 27 cycles). */
    Cycles hitLatency = 27;
    /** Latency when it must come from DRAM (paper: 185 cycles). */
    Cycles missLatency = 185;
    /** When non-zero, every access costs exactly this (Figure 9 sweep). */
    Cycles fixedLatency = 0;
};

/**
 * The SSP cache proper: slot storage, vpn index, LRU hot-set latency
 * model, and the persistent half.
 */
class SspCache
{
  public:
    /**
     * @param num_slots Capacity (paper: cores x TLB entries + overflow).
     * @param latency Latency model parameters.
     */
    SspCache(unsigned num_slots, const SspCacheLatencyParams &latency);

    /** Look up the slot for @p vpn; kInvalidSlot if absent. */
    SlotId findSlot(Vpn vpn) const;

    /**
     * Allocate a slot for @p vpn, evicting a consolidated, unreferenced
     * entry if the cache is full (growing as a last resort, as the paper
     * allows).  The entry is default-initialized; the caller fills it.
     *
     * @param evicted When non-null, receives the entry displaced to make
     *        room (so the controller can recycle its shadow page).
     */
    SlotId allocateSlot(Vpn vpn, SspCacheEntry *evicted = nullptr);

    /** Free a slot (after eviction of a consolidated page). */
    void freeSlot(SlotId sid);

    /** Slot @p sid.  Inline, and bounds-checked in Debug builds only:
     *  the ids come from the TLB, the write set or this cache. */
    SspCacheEntry &
    entry(SlotId sid)
    {
        ssp_assert_dbg(sid < slots_.size(), "slot id %u out of range", sid);
        return slots_[sid];
    }

    const SspCacheEntry &
    entry(SlotId sid) const
    {
        ssp_assert_dbg(sid < slots_.size(), "slot id %u out of range", sid);
        return slots_[sid];
    }

    /**
     * Timed access to a slot's metadata: models the L3-partition hot set.
     * @return completion time.
     */
    Cycles access(SlotId sid, Cycles now);

    unsigned numSlots() const
    {
        return static_cast<unsigned>(slots_.size());
    }
    std::uint64_t validEntries() const;
    std::uint64_t hotHits() const { return hotHits_; }
    std::uint64_t hotMisses() const { return hotMisses_; }

    /** Iterate valid slot ids (for recovery / invariant checks). */
    std::vector<SlotId> validSlots() const;

    // ---- persistent half ------------------------------------------------

    /** Durable image of slot @p sid (written by checkpointing). */
    PersistentSlot &persistentSlot(SlotId sid);
    const std::vector<PersistentSlot> &persistentSlots() const
    {
        return persistent_;
    }

    /** Simulated power failure: all transient entries disappear. */
    void powerFail();

    /** Recovery: reload a transient entry from its persistent image. */
    void reloadFromPersistent(SlotId sid);

  private:
    void touchHot(SlotId sid);

    SspCacheLatencyParams latency_;
    std::vector<SspCacheEntry> slots_;
    std::vector<PersistentSlot> persistent_;
    std::unordered_map<Vpn, SlotId> byVpn_;
    std::vector<SlotId> freeSlots_;

    // LRU hot set modeling the reserved L3 partition.
    std::list<SlotId> hotLru_;
    std::unordered_map<SlotId, std::list<SlotId>::iterator> hotIndex_;
    std::uint64_t hotHits_ = 0;
    std::uint64_t hotMisses_ = 0;
};

} // namespace ssp

#endif // SSP_NVRAM_SSP_CACHE_HH

/**
 * @file
 * One level of set-associative, write-back, write-allocate cache.
 *
 * The simulator keeps functional data in PhysMem, so caches are tag+state
 * arrays only: they decide hit/miss, track dirtiness for write-back
 * accounting, and carry the two SSP extensions from the paper:
 *
 *  - a per-line TX bit marking lines speculatively written by the current
 *    transaction (section 3.5), and
 *  - tag remapping: on the first transactional write to a line, the cached
 *    copy is re-tagged to the "other" physical page instead of performing
 *    a copy-on-write (section 3.2, Figure 4 step 3).
 */

#ifndef SSP_CACHE_CACHE_HH
#define SSP_CACHE_CACHE_HH

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace ssp
{

class SharerIndex;

/** Geometry and latency of one cache level. */
struct CacheParams
{
    /** Owned: params objects outlive whatever buffer named them (the
     *  same dangling-pointer class MemTimingParams::name fixed). */
    std::string name = "cache";
    std::uint64_t sizeBytes = 32 * 1024;
    unsigned ways = 8;
    /** Lookup latency in core cycles (Table 2: 4 / 6 / 27). */
    Cycles latency = 4;
};

/** Result of a cache lookup/allocation. */
struct CacheAccessResult
{
    bool hit = false;
    /** A dirty victim was evicted and must be handled by the caller. */
    bool writeback = false;
    /** Line address of the dirty victim (valid when writeback). */
    Addr victimAddr = 0;
    /** TX bit of the dirty victim. */
    bool victimTx = false;
};

/**
 * Tag/state array for one cache level.  True-LRU replacement within the
 * set; victims are reported to the caller, which models the next level.
 *
 * Storage is structure-of-arrays: one packed tag word per line (the
 * 64-byte-aligned line address with the valid/dirty/TX flags packed into
 * the low bits) plus a separate LRU-stamp array.  A whole 8-way set's
 * tags then sit in a single host cache line, so the way scan every
 * access performs touches one line instead of striding across fat
 * structs — the hot loop of the whole simulator at 64 cores.
 */
class Cache
{
  public:
    explicit Cache(const CacheParams &params);

    /**
     * Register this cache as core @p core's level-@p level private
     * cache in the hierarchy's sharer index.  Every later tag
     * insertion/eviction/invalidation notifies the index, keeping its
     * per-line presence masks exact.  Attached by CacheHierarchy to
     * private L1/L2 caches of multi-core machines only; a detached
     * cache (single core, the shared L3, standalone tests) pays no
     * bookkeeping.
     */
    void
    attachSharerIndex(SharerIndex *index, CoreId core, unsigned level)
    {
        sharers_ = index;
        shareCore_ = core;
        shareLevel_ = level;
    }

    /**
     * Look up @p line_addr, allocating it on a miss.
     *
     * @param line_addr 64-byte-aligned physical address.
     * @param is_write Marks the line dirty on a write.
     * @return hit/miss and any dirty victim.
     *
     * The hit path is inline: an L1 hit, the common case of every
     * simulated access, costs one set scan and no out-of-line call.
     */
    CacheAccessResult
    access(Addr line_addr, bool is_write)
    {
        ssp_assert_dbg(lineOffset(line_addr) == 0, "unaligned line address");
        const std::uint64_t idx = findIdx(line_addr);
        if (idx == kNoLine)
            return accessMiss(line_addr, is_write);
        ++hits_;
        if (is_write)
            tags_[idx] |= kDirtyBit;
        touch(idx);
        CacheAccessResult res;
        res.hit = true;
        return res;
    }

    /** Look up without allocating; returns true on hit. */
    bool probe(Addr line_addr) const { return findIdx(line_addr) != kNoLine; }

    /** True if present and dirty. */
    bool
    isDirty(Addr line_addr) const
    {
        const std::uint64_t idx = findIdx(line_addr);
        return idx != kNoLine && (tags_[idx] & kDirtyBit) != 0;
    }

    /** Clear the dirty bit (after an explicit clwb write-back). */
    void cleanLine(Addr line_addr);

    /** Mark/clear the TX bit on a present line. */
    void setTxBit(Addr line_addr, bool tx);

    /** TX bit of a present line; false if absent. */
    bool txBit(Addr line_addr) const;

    /** Drop a line (no write-back); returns true if it was present. */
    bool invalidate(Addr line_addr);

    /**
     * SSP tag remap: move the state of @p old_addr to @p new_addr.
     * @return true if the old line was present (and thus moved).
     *
     * The dirty bit travels with the line.  The destination must not
     * collide with a live different line in the same slot — if the new
     * tag's set has no free way, the caller receives the victim exactly
     * as in access().
     */
    CacheAccessResult remap(Addr old_addr, Addr new_addr);

    /**
     * Insert a line (used for fills from lower levels / victims from
     * upper levels), returning any dirty victim.
     */
    CacheAccessResult insert(Addr line_addr, bool dirty, bool tx);

    /**
     * Drop everything (simulated power failure).  Costs the sets filled
     * since the last call, not the whole array.
     */
    void invalidateAll();

    Cycles latency() const { return params_.latency; }
    const CacheParams &params() const { return params_; }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t evictions() const { return evictions_; }

    /** Number of currently valid lines (for tests). */
    std::uint64_t validLines() const;

  private:
    /**
     * Packed tag word: the 64-byte-aligned line address ORed with the
     * state flags in the low bits.  All-zero is the invalid/reset
     * state, so the backing array can be calloc'd: a big L3's tag
     * array then costs address space, not a touched page per set,
     * until lines actually land in it.
     */
    static constexpr std::uint64_t kValidBit = 1;
    static constexpr std::uint64_t kDirtyBit = 2;
    static constexpr std::uint64_t kTxFlagBit = 4;
    static constexpr std::uint64_t kFlagsMask = kLineSize - 1;
    static constexpr std::uint64_t kTagMask = ~kFlagsMask;
    /** "No such line" sentinel index. */
    static constexpr std::uint64_t kNoLine = ~std::uint64_t{0};

    /** Set index: line number modulo the set count, taken with a mask
     *  when the count is a power of two (L1, L2) and with a division
     *  otherwise (the 12- and 96-MiB L3s). */
    std::uint64_t
    setOf(Addr line_addr) const
    {
        const std::uint64_t line = line_addr >> kLineShift;
        return setsPow2_ ? (line & (numSets_ - 1)) : line % numSets_;
    }

    /** Index of @p line_addr's slot, or kNoLine when absent. */
    std::uint64_t
    findIdx(Addr line_addr) const
    {
        const std::uint64_t base = setOf(line_addr) * params_.ways;
        // One compare per way: tag equality and the valid bit test fold
        // into a single masked comparison against addr|valid.
        const std::uint64_t want = line_addr | kValidBit;
        for (unsigned w = 0; w < params_.ways; ++w) {
            if ((tags_[base + w] & (kTagMask | kValidBit)) == want)
                return base + w;
        }
        return kNoLine;
    }

    /** Victim slot in @p set: first invalid way, else lowest LRU. */
    std::uint64_t victimIn(std::uint64_t set) const;
    void touch(std::uint64_t idx) { lru_[idx] = ++lruClock_; }
    /** access() after findIdx() proved @p line_addr absent. */
    CacheAccessResult accessMiss(Addr line_addr, bool is_write);
    void notifyAdd(Addr line_addr);
    void notifyRemove(Addr line_addr);
    /** Allocate @p line_addr (known absent) over the set's victim. */
    CacheAccessResult fillVictim(Addr line_addr, bool dirty, bool tx);

    SharerIndex *sharers_ = nullptr;
    CoreId shareCore_ = 0;
    unsigned shareLevel_ = 0;
    CacheParams params_;
    std::uint64_t numSets_;
    /** numSets_ is a power of two, so setOf() can mask. */
    bool setsPow2_;
    std::uint64_t numLines_;
    /** numLines_ packed tag words, set-major; calloc'd (see above). */
    std::unique_ptr<std::uint64_t[], FreeDeleter> tags_;
    /** numLines_ LRU stamps, parallel to tags_; calloc'd. */
    std::unique_ptr<std::uint64_t[], FreeDeleter> lru_;
    /** One bit per set: some way was filled since the last
     *  invalidateAll().  Only fillVictim() makes a slot valid, so an
     *  unmarked set holds no valid line. */
    std::vector<std::uint64_t> filledSets_;
    std::uint64_t lruClock_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t evictions_ = 0;
};

} // namespace ssp

#endif // SSP_CACHE_CACHE_HH

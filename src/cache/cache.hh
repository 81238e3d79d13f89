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

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

#ifdef __SSE2__
#include <emmintrin.h>
#endif

namespace ssp
{

class SharerIndex;

/** Geometry and latency of one cache level. */
struct CacheParams
{
    /** Owned: params objects outlive whatever buffer named them. */
    std::string name = "cache";
    std::uint64_t sizeBytes = 32 * 1024;
    /** Associativity, 1 to Cache::kMaxWays (16): a set's LRU order
     *  is one 64-bit word of 4-bit way numbers. */
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
 * Storage is one 32-bit tag word per line plus one 64-bit recency word
 * per set.  A tag word holds the line number in bits 3-31 and the
 * valid, dirty and TX flags in bits 0-2: it is the line address shifted
 * right by 3, ORed with the flags, and the address reads back as
 * (tag & ~7) << 3.  29 bits of line number reach physical addresses
 * below 32 GiB (kMaxPhysLines), 64 times the largest preset's 504 MiB.
 * PhysMem refuses a larger space, and fillVictim(), the one place a tag
 * is built from an address, checks every fill against the limit.  A
 * whole 16-way set's tags fill one 64-byte host line.
 *
 * True LRU needs only the order of a set's ways, not when each was
 * used: the recency word holds that order as a permutation of way
 * numbers, one 4-bit nibble each, most recently used in nibble 0 (so at
 * most kMaxWays = 16 ways).  It is stored XOR kIdentityOrder, the
 * permutation 0, 1, ..., 15, so an all-zero word is a valid order.
 * The victim is the first invalid way, else the order's last nibble,
 * the least recently used way — exactly what per-line timestamps
 * would pick: an invalid way always wins, and every fill touches its
 * way, so once all ways are valid the order ranks each by its last
 * use.  Replacement state is 8 bytes per set rather than per line.
 *
 * A lookup compares tag words under a mask that keeps the line number
 * and the valid bit and drops the dirty and TX flags, against the
 * line's tag bits ORed with the valid bit.  It takes three steps:
 *
 *  - The hint: the last slot found or filled, compared first.
 *    Consecutive accesses often repeat a line, and then the lookup
 *    costs one compare.
 *  - The set probe, when the hint misses: with SSE2 and a way count
 *    that is a multiple of 4 (every preset level), four tag words per
 *    vector compare, whose hits gather into a mask of ways; the lowest
 *    set bit is the way, which becomes the hint.  It has no early exit
 *    and no branch per way.  The tags start on a host line, so every
 *    such set starts 16-byte aligned.
 *  - The scalar scan, one way at a time: the probe for other way
 *    counts and targets without SSE2, and in Debug builds the check of
 *    every vector probe's answer.
 *
 * All three give the same slot: a valid line lives in exactly one
 * slot, so a hinted slot holding it is that slot, and at most one way
 * of a set matches.
 *
 * Both arrays live in one block: the recency words first, where they
 * stay 8-byte aligned, padded to whole host lines so that the tags
 * after them start on one.  The block starts all zero, and a retired
 * cache hands it back that way: a word outside the sets marked in
 * filledSets_ is always zero, so the destructor zeroes just the filled
 * sets and returns the block to a per-thread pool keyed by geometry.
 * The next cache of that geometry on the thread takes it instead of
 * calling calloc.  Every machine builds fresh caches, and a recycled
 * block is memory that is already resident and needs no zeroing beyond
 * what the last machine touched.  A calloc'd block that an earlier
 * machine freed would instead come back from the heap, zeroed in full
 * (glibc's mmap threshold rises to the size of the largest mapping
 * freed), and the freed copies would stay resident between machines.
 */
class Cache
{
  public:
    /** Largest associativity: 16 four-bit way numbers fill the
     *  recency word. */
    static constexpr unsigned kMaxWays = 16;

    explicit Cache(const CacheParams &params);
    /** Zeroes the filled sets and returns the block to the calling
     *  thread's pool. */
    ~Cache();
    Cache(const Cache &) = delete;
    Cache &operator=(const Cache &) = delete;

    /** Blocks that caches built on the calling thread took from its
     *  pool instead of calloc. */
    static std::uint64_t recycledBlocks();

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
     */
    CacheAccessResult
    access(Addr line_addr, bool is_write)
    {
        if (!tryHit(line_addr, is_write))
            return fillMiss(line_addr, is_write);
        CacheAccessResult res;
        res.hit = true;
        return res;
    }

    /**
     * The hit half of access(): on a hit, count it, mark the line dirty
     * on a write, touch it and return true; on a miss change nothing
     * and return false.  Inline, so a hit costs no out-of-line call.
     */
    bool
    tryHit(Addr line_addr, bool is_write)
    {
        ssp_assert_dbg(lineOffset(line_addr) == 0, "unaligned line address");
        const std::uint64_t idx = findIdx(line_addr);
        if (idx == kNoLine)
            return false;
        ++hits_;
        if (is_write)
            tags_[idx] |= kDirtyBit;
        touchHint();
        return true;
    }

    /**
     * The miss half of access(): count a miss and allocate
     * @p line_addr, which tryHit() just found absent, over the set's
     * victim.
     */
    CacheAccessResult fillMiss(Addr line_addr, bool is_write);

    /** Look up without allocating; returns true on hit. */
    bool probe(Addr line_addr) const { return findIdx(line_addr) != kNoLine; }

    /** True if present and dirty. */
    bool
    isDirty(Addr line_addr) const
    {
        const std::uint64_t idx = findIdx(line_addr);
        return idx != kNoLine && (tags_[idx] & kDirtyBit) != 0;
    }

    /**
     * Clear the dirty bit of a present line (after an explicit clwb
     * write-back), with one lookup.
     * @return true if the line was present and dirty.
     */
    bool
    cleanIfDirty(Addr line_addr)
    {
        const std::uint64_t idx = findIdx(line_addr);
        if (idx == kNoLine || (tags_[idx] & kDirtyBit) == 0)
            return false;
        tags_[idx] &= ~kDirtyBit;
        return true;
    }

    /** Mark/clear the TX bit on a present line. */
    void setTxBit(Addr line_addr, bool tx);

    /** TX bit of a present line; false if absent. */
    bool txBit(Addr line_addr) const;

    /** Drop a line (no write-back), zeroing its whole tag word;
     *  returns true if it was present. */
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
     * Drop everything (simulated power failure): zero the tags and the
     * recency word of every set filled since the last call, which is
     * all it costs.  Zeroing the recency word is exact: every way is
     * then invalid, so each is filled, and thereby touched, before it
     * can be a victim.
     */
    void invalidateAll();

    /**
     * Call @p fn(line) for every valid line, in ascending slot order.
     * Like invalidateAll(), it visits only the sets filled since the
     * last invalidateAll(), so an idle cache's arrays stay untouched.
     */
    template <typename Fn>
    void
    forEachLine(Fn &&fn) const
    {
        forEachFilledSet([&](std::uint64_t set) {
            const std::uint64_t base = set * params_.ways;
            for (std::uint64_t i = base; i < base + params_.ways; ++i) {
                if ((tags_[i] & kValidBit) != 0)
                    fn(addrOf(tags_[i]));
            }
        });
    }

    Cycles latency() const { return params_.latency; }
    const CacheParams &params() const { return params_; }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t evictions() const { return evictions_; }

    /** Number of currently valid lines (for tests). */
    std::uint64_t validLines() const;

  private:
    /**
     * Packed tag word: the line number above three state flags (see
     * the class comment).  All-zero is the invalid/reset state, and
     * the only invalid one: dropping a line zeroes its word.
     */
    using Tag = std::uint32_t;
    static constexpr Tag kValidBit = 1;
    static constexpr Tag kDirtyBit = 2;
    static constexpr Tag kTxFlagBit = 4;
    /** Right shift from a line address to its tag bits: the line
     *  number lands just above the three flags. */
    static constexpr unsigned kTagShift = kLineShift - 3;
    static constexpr Tag kTagMask = ~Tag{7};
    static_assert((kMaxPhysLines << 3) - 1 <= Tag(~Tag{0}),
                  "the line number field must reach kMaxPhysLines");
    /** "No such line" sentinel index. */
    static constexpr std::uint64_t kNoLine = ~std::uint64_t{0};
    /** Stored recency word XOR this is the set's MRU-first order; the
     *  nibbles at positions >= ways keep their identity value. */
    static constexpr std::uint64_t kIdentityOrder = 0xFEDCBA9876543210;
    static constexpr std::uint64_t kNibbleOnes = 0x1111111111111111;

    /** Tag bits of the line at @p line_addr, below kMaxPhysLines. */
    static Tag
    tagOf(Addr line_addr)
    {
        return static_cast<Tag>(line_addr >> kTagShift);
    }
    /** Line address named by the tag bits of @p tag. */
    static Addr addrOf(Tag tag) { return Addr{tag & kTagMask} << kTagShift; }

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
        // Tag equality and the valid bit test fold into a single
        // masked comparison against tag|valid.  A found slot becomes
        // the hint, which carries its set and way to touch(), so no
        // caller divides a slot index by the ways.
        ssp_assert_dbg(lineOf(line_addr) < kMaxPhysLines,
                       "line address beyond the tag range");
        const Tag want = tagOf(line_addr) | kValidBit;
        if ((tags_[hint_] & (kTagMask | kValidBit)) == want)
            return hint_;
        const std::uint64_t set = setOf(line_addr);
        const unsigned way = probeSet(set, want);
        if (way == params_.ways)
            return kNoLine;
        hint_ = set * params_.ways + way;
        hintSet_ = set;
        hintWay_ = way;
        return hint_;
    }

    /** Way of @p set whose masked tag word equals @p want, or
     *  params_.ways when none does. */
    unsigned
    probeSet(std::uint64_t set, Tag want) const
    {
        const Tag *tags = tags_ + set * params_.ways;
#ifdef __SSE2__
        if (params_.ways % 4 == 0) {
            // Four ways per compare; a set of 4k ways starts 16-byte
            // aligned, since the tags start on a host line.  Each
            // compare's hits land in the way mask at their way
            // numbers, above a sentinel bit at params_.ways that
            // answers "absent" when no way matched.
            const __m128i mask =
                _mm_set1_epi32(static_cast<int>(kTagMask | kValidBit));
            const __m128i key = _mm_set1_epi32(static_cast<int>(want));
            const auto *lanes = reinterpret_cast<const __m128i *>(tags);
            unsigned hits = 1u << params_.ways;
            for (unsigned w = 0; w < params_.ways; w += 4) {
                const __m128i four = _mm_load_si128(lanes + w / 4);
                const __m128i eq =
                    _mm_cmpeq_epi32(_mm_and_si128(four, mask), key);
                const int eq_mask = _mm_movemask_ps(_mm_castsi128_ps(eq));
                hits |= static_cast<unsigned>(eq_mask) << w;
            }
            const unsigned way = std::countr_zero(hits);
            ssp_assert_dbg(way == scanWay(tags, want),
                           "tag probe found way %u, the scan way %u", way,
                           scanWay(tags, want));
            return way;
        }
#endif
        return scanWay(tags, want);
    }

    /** probeSet() one way at a time, over the set starting at
     *  @p tags: the path for way counts that are not a multiple of 4
     *  and for targets without SSE2, and the Debug cross-check of the
     *  vector probe. */
    unsigned
    scanWay(const Tag *tags, Tag want) const
    {
        for (unsigned w = 0; w < params_.ways; ++w) {
            if ((tags[w] & (kTagMask | kValidBit)) == want)
                return w;
        }
        return params_.ways;
    }

    /** Call @p fn(set) for every set marked in filledSets_, in
     *  ascending order. */
    template <typename Fn>
    void
    forEachFilledSet(Fn &&fn) const
    {
        for (std::uint64_t w = 0; w < filledSets_.size(); ++w) {
            for (std::uint64_t bits = filledSets_[w]; bits != 0;
                 bits &= bits - 1)
                fn(w * 64 + std::countr_zero(bits));
        }
    }
    /** Zero the tags and recency word of every filled set and unmark
     *  them all, leaving both arrays all zero. */
    void clearFilledSets();

    /** Victim way in @p set: first invalid way, else the LRU way. */
    unsigned victimIn(std::uint64_t set) const;
    /** Make way @p way of @p set its most recently used. */
    void
    touch(std::uint64_t set, unsigned way)
    {
        const std::uint64_t order = recency_[set] ^ kIdentityOrder;
        if ((order & 0xF) == way)
            return; // already MRU: a repeated hit changes nothing
        // The nibble equal to way is the lowest zero nibble of x; the
        // borrow trick marks it exactly (only nibbles above the first
        // zero can be marked falsely).
        const std::uint64_t x = order ^ (way * kNibbleOnes);
        const std::uint64_t zeros =
            (x - kNibbleOnes) & ~x & (kNibbleOnes << 3);
        ssp_assert_dbg(zeros != 0, "way %u missing from the recency order",
                       way);
        // Shift the nibbles before way's position up one, put way first.
        const std::uint64_t below =
            (std::uint64_t{1} << (std::countr_zero(zeros) - 3)) - 1;
        const std::uint64_t moved = (below << 4) | 0xF;
        recency_[set] = ((order & ~moved) | ((order & below) << 4) | way) ^
                        kIdentityOrder;
    }
    /** touch() the slot findIdx() just returned. */
    void touchHint() { touch(hintSet_, hintWay_); }
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
    /** The recycled or calloc'd block the arrays below live in (see
     *  the class comment), as the pool hands it out and takes it back. */
    void *block_ = nullptr;
    /** numSets_ recency words, stored XOR kIdentityOrder, at the first
     *  host-line boundary in the block. */
    std::uint64_t *recency_ = nullptr;
    /** numLines_ packed tag words, set-major, from the host line after
     *  the recency words. */
    Tag *tags_ = nullptr;
    /** Index of the last slot found or filled, with its set and way;
     *  any in-range slot is safe, since findIdx() re-verifies it in
     *  full. */
    mutable std::uint64_t hint_ = 0;
    mutable std::uint64_t hintSet_ = 0;
    mutable unsigned hintWay_ = 0;
    /** One bit per set: some way was filled since the last
     *  invalidateAll().  Only fillVictim() makes a slot valid, and
     *  only a valid line's tag or set is ever written, so an unmarked
     *  set's tag and recency words are all zero. */
    std::vector<std::uint64_t> filledSets_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t evictions_ = 0;
};

} // namespace ssp

#endif // SSP_CACHE_CACHE_HH

#include "cache/cache.hh"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "cache/sharer_index.hh"

namespace ssp
{

namespace
{

/** Bytes in a host cache line, the alignment of a cache's tags. */
constexpr std::uint64_t kHostLine = 64;

/** Recency words in a block: the set count rounded up to whole host
 *  lines, so the tags after them start on a host-line boundary. */
std::uint64_t
recencyWords(std::uint64_t sets)
{
    return (sets + 7) & ~std::uint64_t{7};
}

/** Bytes of a block: one host line of alignment slack, the padded
 *  recency words, then the tags. */
std::uint64_t
blockBytes(std::uint64_t sets, unsigned ways)
{
    return kHostLine + recencyWords(sets) * sizeof(std::uint64_t) +
           sets * ways * sizeof(std::uint32_t);
}

/** Set once the calling thread's pool is gone; a cache destroyed after
 *  that (during thread exit) frees its arrays itself. */
thread_local bool poolDestroyed = false;

/**
 * The calling thread's retired array blocks (a cache's recency words
 * followed by its tags), all zero, in one pile per geometry.  Freed at
 * thread exit.
 */
class ArrayPool
{
  public:
    ArrayPool() = default;
    ArrayPool(const ArrayPool &) = delete;
    ArrayPool &operator=(const ArrayPool &) = delete;
    ~ArrayPool()
    {
        for (Pile &pile : piles_) {
            for (void *p : pile.blocks)
                std::free(p);
        }
        poolDestroyed = true;
    }

    /** An all-zero block of blockBytes(@p sets, @p ways) bytes. */
    void *
    take(std::uint64_t sets, unsigned ways)
    {
        const std::uint64_t len = blockBytes(sets, ways);
        std::vector<void *> &blocks = pile(sets, ways);
        if (blocks.empty()) {
            void *p = std::calloc(len, 1);
            ssp_assert(p != nullptr);
            return p;
        }
        void *p = blocks.back();
        blocks.pop_back();
        ++recycled;
        const auto *bytes = static_cast<const unsigned char *>(p);
        ssp_assert_dbg(std::all_of(bytes, bytes + len,
                                   [](unsigned char b) { return b == 0; }),
                       "recycled cache block is not all zero");
        return p;
    }

    /** Keep the all-zero block @p p that take() handed out. */
    void
    give(std::uint64_t sets, unsigned ways, void *p)
    {
        pile(sets, ways).push_back(p);
    }

    /** Blocks take() returned from a pile. */
    std::uint64_t recycled = 0;

  private:
    struct Pile
    {
        std::uint64_t sets;
        unsigned ways;
        std::vector<void *> blocks;
    };

    std::vector<void *> &
    pile(std::uint64_t sets, unsigned ways)
    {
        auto it = std::find_if(piles_.begin(), piles_.end(),
                               [&](const Pile &p) {
                                   return p.sets == sets && p.ways == ways;
                               });
        if (it == piles_.end())
            it = piles_.insert(piles_.end(), Pile{sets, ways, {}});
        return it->blocks;
    }

    std::vector<Pile> piles_;
};

thread_local ArrayPool pool;

} // namespace

Cache::Cache(const CacheParams &params) : params_(params)
{
    ssp_assert(params.ways > 0);
    if (params.ways > kMaxWays)
        ssp_fatal("cache '%s': %u ways exceeds the limit of %u (one "
                  "4-bit way number per recency-word nibble)",
                  params.name.c_str(), params.ways, kMaxWays);
    const std::uint64_t num_lines = params.sizeBytes / kLineSize;
    ssp_assert(num_lines % params.ways == 0,
               "cache size must be a multiple of ways*line");
    numSets_ = num_lines / params.ways;
    ssp_assert(numSets_ > 0);
    setsPow2_ = (numSets_ & (numSets_ - 1)) == 0;
    numLines_ = num_lines;
    // One all-zero block holds the recency words, then the tags: an
    // all-zero recency word is the identity order and an all-zero tag
    // word is invalid (see the class comment).  A recycled block is
    // already resident; a fresh calloc of a big one maps zero pages
    // lazily, so a 96 MiB L3's tags cost only the sets that lines
    // actually land in.
    block_ = pool.take(numSets_, params.ways);
    const std::uintptr_t first_line =
        (reinterpret_cast<std::uintptr_t>(block_) + kHostLine - 1) &
        ~std::uintptr_t{kHostLine - 1};
    recency_ = reinterpret_cast<std::uint64_t *>(first_line);
    tags_ = reinterpret_cast<Tag *>(recency_ + recencyWords(numSets_));
    filledSets_.assign((numSets_ + 63) / 64, 0);
}

Cache::~Cache()
{
    clearFilledSets();
    if (poolDestroyed)
        std::free(block_);
    else
        pool.give(numSets_, params_.ways, block_);
}

std::uint64_t
Cache::recycledBlocks()
{
    return pool.recycled;
}

unsigned
Cache::victimIn(std::uint64_t set) const
{
    const std::uint64_t base = set * params_.ways;
    for (unsigned w = 0; w < params_.ways; ++w) {
        if ((tags_[base + w] & kValidBit) == 0)
            return w;
    }
    const std::uint64_t order = recency_[set] ^ kIdentityOrder;
    return static_cast<unsigned>(order >> (4 * (params_.ways - 1))) & 0xF;
}

void
Cache::notifyAdd(Addr line_addr)
{
    if (sharers_ != nullptr)
        sharers_->add(shareCore_, shareLevel_, line_addr);
}

void
Cache::notifyRemove(Addr line_addr)
{
    if (sharers_ != nullptr)
        sharers_->remove(shareCore_, shareLevel_, line_addr);
}

CacheAccessResult
Cache::fillMiss(Addr line_addr, bool is_write)
{
    ssp_assert_dbg(findIdx(line_addr) == kNoLine, "fill of a present line");
    ++misses_;
    return fillVictim(line_addr, is_write, false);
}

CacheAccessResult
Cache::insert(Addr line_addr, bool dirty, bool tx)
{
    CacheAccessResult res;
    const std::uint64_t idx = findIdx(line_addr);
    if (idx != kNoLine) {
        // Merging an insert into a present line keeps the stickier state.
        tags_[idx] |= (dirty ? kDirtyBit : 0) | (tx ? kTxFlagBit : 0);
        touchHint();
        return res;
    }
    return fillVictim(line_addr, dirty, tx);
}

CacheAccessResult
Cache::fillVictim(Addr line_addr, bool dirty, bool tx)
{
    ssp_assert(lineOf(line_addr) < kMaxPhysLines,
               "line address %#llx is outside the 32 GiB a tag can name",
               static_cast<unsigned long long>(line_addr));
    CacheAccessResult res;
    const std::uint64_t set = setOf(line_addr);
    filledSets_[set >> 6] |= std::uint64_t{1} << (set & 63);
    const unsigned way = victimIn(set);
    const std::uint64_t idx = set * params_.ways + way;
    const Tag old = tags_[idx];
    if ((old & kValidBit) != 0) {
        ++evictions_;
        if ((old & kDirtyBit) != 0) {
            res.writeback = true;
            res.victimAddr = addrOf(old);
            res.victimTx = (old & kTxFlagBit) != 0;
        }
        notifyRemove(addrOf(old));
    }
    notifyAdd(line_addr);
    tags_[idx] = tagOf(line_addr) | kValidBit | (dirty ? kDirtyBit : 0) |
                 (tx ? kTxFlagBit : 0);
    touch(set, way);
    hint_ = idx;
    hintSet_ = set;
    hintWay_ = way;
    return res;
}

void
Cache::setTxBit(Addr line_addr, bool tx)
{
    const std::uint64_t idx = findIdx(line_addr);
    if (idx != kNoLine) {
        if (tx)
            tags_[idx] |= kTxFlagBit;
        else
            tags_[idx] &= ~kTxFlagBit;
    }
}

bool
Cache::txBit(Addr line_addr) const
{
    const std::uint64_t idx = findIdx(line_addr);
    return idx != kNoLine && (tags_[idx] & kTxFlagBit) != 0;
}

bool
Cache::invalidate(Addr line_addr)
{
    const std::uint64_t idx = findIdx(line_addr);
    if (idx != kNoLine) {
        notifyRemove(line_addr);
        tags_[idx] = 0;
        return true;
    }
    return false;
}

CacheAccessResult
Cache::remap(Addr old_addr, Addr new_addr)
{
    CacheAccessResult res;
    const std::uint64_t idx = findIdx(old_addr);
    if (idx == kNoLine)
        return res;
    const bool dirty = (tags_[idx] & kDirtyBit) != 0;
    const bool tx = (tags_[idx] & kTxFlagBit) != 0;
    notifyRemove(old_addr);
    tags_[idx] = 0;
    res = insert(new_addr, dirty, tx);
    res.hit = true; // signals "old line was present and moved"
    return res;
}

void
Cache::invalidateAll()
{
    // forEachLine() visits the lines in ascending slot order, as a
    // full scan would, so the sharer index sees the same removals.
    if (sharers_ != nullptr)
        forEachLine([&](Addr line) { notifyRemove(line); });
    clearFilledSets();
}

void
Cache::clearFilledSets()
{
    // Untouched sets are never read, which keeps a lazily mapped
    // array's untouched pages unmapped.
    forEachFilledSet([&](std::uint64_t set) {
        std::fill_n(tags_ + set * params_.ways, params_.ways, 0);
        recency_[set] = 0;
    });
    std::fill(filledSets_.begin(), filledSets_.end(), 0);
}

std::uint64_t
Cache::validLines() const
{
    std::uint64_t n = 0;
    for (std::uint64_t i = 0; i < numLines_; ++i)
        n += (tags_[i] & kValidBit) != 0 ? 1 : 0;
    return n;
}

} // namespace ssp

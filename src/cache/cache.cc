#include "cache/cache.hh"

#include <algorithm>

#include "cache/sharer_index.hh"

namespace ssp
{

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
    // calloc: all-zero tag words are valid==false, and the OS hands back
    // lazily-mapped zero pages — a 96 MiB L3's tag array costs nothing
    // until its sets are actually filled (every sweep cell builds a
    // fresh machine, so eager zeroing was measurable per-cell setup).
    // An all-zero recency word is the identity order (see the class
    // comment).
    tags_.reset(static_cast<std::uint64_t *>(
        std::calloc(num_lines, sizeof(std::uint64_t))));
    recency_.reset(static_cast<std::uint64_t *>(
        std::calloc(numSets_, sizeof(std::uint64_t))));
    ssp_assert(tags_ != nullptr && recency_ != nullptr);
    filledSets_.assign((numSets_ + 63) / 64, 0);
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
    CacheAccessResult res;
    const std::uint64_t set = setOf(line_addr);
    filledSets_[set >> 6] |= std::uint64_t{1} << (set & 63);
    const unsigned way = victimIn(set);
    const std::uint64_t idx = set * params_.ways + way;
    const std::uint64_t old = tags_[idx];
    if ((old & kValidBit) != 0) {
        ++evictions_;
        if ((old & kDirtyBit) != 0) {
            res.writeback = true;
            res.victimAddr = old & kTagMask;
            res.victimTx = (old & kTxFlagBit) != 0;
        }
        notifyRemove(old & kTagMask);
    }
    notifyAdd(line_addr);
    tags_[idx] = line_addr | kValidBit | (dirty ? kDirtyBit : 0) |
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
        tags_[idx] &= kTagMask;
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
    tags_[idx] &= kTagMask;
    res = insert(new_addr, dirty, tx);
    res.hit = true; // signals "old line was present and moved"
    return res;
}

void
Cache::invalidateAll()
{
    // Visit only sets marked by fillVictim(), in ascending slot order as
    // a full scan would, so the sharer index sees the same removals.
    // Untouched sets are never read, which keeps the calloc-backed
    // arrays' untouched pages unmapped across simulated power failures.
    // Recency words are left as they are: every way is invalid, so
    // each is filled, and thereby touched, before it can be a victim.
    forEachFilledSet([&](std::uint64_t base) {
        for (std::uint64_t i = base; i < base + params_.ways; ++i) {
            if ((tags_[i] & kValidBit) == 0)
                continue;
            notifyRemove(tags_[i] & kTagMask);
            tags_[i] = 0;
        }
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

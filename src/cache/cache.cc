#include "cache/cache.hh"

#include <bit>

#include "cache/sharer_index.hh"

namespace ssp
{

Cache::Cache(const CacheParams &params) : params_(params)
{
    ssp_assert(params.ways > 0);
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
    tags_.reset(static_cast<std::uint64_t *>(
        std::calloc(num_lines, sizeof(std::uint64_t))));
    lru_.reset(static_cast<std::uint64_t *>(
        std::calloc(num_lines, sizeof(std::uint64_t))));
    ssp_assert(tags_ != nullptr && lru_ != nullptr);
    filledSets_.assign((numSets_ + 63) / 64, 0);
}

std::uint64_t
Cache::victimIn(std::uint64_t set) const
{
    const std::uint64_t base = set * params_.ways;
    std::uint64_t victim = kNoLine;
    for (unsigned w = 0; w < params_.ways; ++w) {
        if ((tags_[base + w] & kValidBit) == 0)
            return base + w;
        if (victim == kNoLine || lru_[base + w] < lru_[victim])
            victim = base + w;
    }
    return victim;
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
Cache::accessMiss(Addr line_addr, bool is_write)
{
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
        touch(idx);
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
    const std::uint64_t idx = victimIn(set);
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
    touch(idx);
    return res;
}

void
Cache::cleanLine(Addr line_addr)
{
    const std::uint64_t idx = findIdx(line_addr);
    if (idx != kNoLine)
        tags_[idx] &= ~kDirtyBit;
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
    for (std::uint64_t w = 0; w < filledSets_.size(); ++w) {
        for (std::uint64_t bits = filledSets_[w]; bits != 0;
             bits &= bits - 1) {
            const std::uint64_t base =
                (w * 64 + std::countr_zero(bits)) * params_.ways;
            for (std::uint64_t i = base; i < base + params_.ways; ++i) {
                if ((tags_[i] & kValidBit) == 0)
                    continue;
                notifyRemove(tags_[i] & kTagMask);
                tags_[i] = 0;
                lru_[i] = 0;
            }
        }
        filledSets_[w] = 0;
    }
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

#include "nvram/ssp_cache.hh"

#include "common/logging.hh"

namespace ssp
{

SspCache::SspCache(unsigned num_slots, const SspCacheLatencyParams &latency)
    : latency_(latency)
{
    ssp_assert(num_slots > 0);
    slots_.resize(num_slots);
    persistent_.resize(num_slots);
    freeSlots_.reserve(num_slots);
    for (unsigned i = 0; i < num_slots; ++i)
        freeSlots_.push_back(num_slots - 1 - i); // allocate low slots first
}

SlotId
SspCache::findSlot(Vpn vpn) const
{
    auto it = byVpn_.find(vpn);
    return it == byVpn_.end() ? kInvalidSlot : it->second;
}

SlotId
SspCache::allocateSlot(Vpn vpn, SspCacheEntry *evicted)
{
    ssp_assert(findSlot(vpn) == kInvalidSlot, "vpn already has a slot");
    if (freeSlots_.empty()) {
        // Evict a consolidated (committed bitmap zero), unreferenced,
        // quiescent entry — the paper's replacement rule.
        for (SlotId sid = 0; sid < slots_.size(); ++sid) {
            SspCacheEntry &e = slots_[sid];
            if (e.valid && e.committed.none() && e.tlbRefCount == 0 &&
                e.coreRefCount == 0 && !e.consolidating) {
                if (evicted != nullptr)
                    *evicted = e;
                byVpn_.erase(e.vpn);
                persistent_[sid].valid = false;
                e = SspCacheEntry{};
                freeSlots_.push_back(sid);
                auto hot = hotIndex_.find(sid);
                if (hot != hotIndex_.end()) {
                    hotLru_.erase(hot->second);
                    hotIndex_.erase(hot);
                }
                break;
            }
        }
    }
    if (freeSlots_.empty()) {
        // "If under rare conditions the cache entries we reserve are not
        // enough, we can resize the SSP cache" — grow by one slot.
        slots_.emplace_back();
        persistent_.emplace_back();
        freeSlots_.push_back(static_cast<SlotId>(slots_.size() - 1));
    }
    SlotId sid = freeSlots_.back();
    freeSlots_.pop_back();
    SspCacheEntry &e = slots_[sid];
    e = SspCacheEntry{};
    e.valid = true;
    e.vpn = vpn;
    byVpn_[vpn] = sid;
    return sid;
}

void
SspCache::freeSlot(SlotId sid)
{
    SspCacheEntry &e = entry(sid);
    ssp_assert(e.valid);
    ssp_assert(e.tlbRefCount == 0 && e.coreRefCount == 0,
               "freeing a referenced slot");
    byVpn_.erase(e.vpn);
    e = SspCacheEntry{};
    persistent_[sid].valid = false;
    auto it = hotIndex_.find(sid);
    if (it != hotIndex_.end()) {
        hotLru_.erase(it->second);
        hotIndex_.erase(it);
    }
    freeSlots_.push_back(sid);
}

void
SspCache::touchHot(SlotId sid)
{
    auto it = hotIndex_.find(sid);
    if (it != hotIndex_.end()) {
        hotLru_.erase(it->second);
    } else if (hotLru_.size() >= latency_.l3ResidentEntries) {
        SlotId cold = hotLru_.back();
        hotLru_.pop_back();
        hotIndex_.erase(cold);
    }
    hotLru_.push_front(sid);
    hotIndex_[sid] = hotLru_.begin();
}

Cycles
SspCache::access(SlotId sid, Cycles now)
{
    if (latency_.fixedLatency != 0) {
        touchHot(sid);
        return now + latency_.fixedLatency;
    }
    const bool hit = hotIndex_.contains(sid);
    touchHot(sid);
    if (hit) {
        ++hotHits_;
        return now + latency_.hitLatency;
    }
    ++hotMisses_;
    return now + latency_.missLatency;
}

std::uint64_t
SspCache::validEntries() const
{
    std::uint64_t n = 0;
    for (const auto &e : slots_)
        n += e.valid ? 1 : 0;
    return n;
}

std::vector<SlotId>
SspCache::validSlots() const
{
    std::vector<SlotId> out;
    for (SlotId sid = 0; sid < slots_.size(); ++sid) {
        if (slots_[sid].valid)
            out.push_back(sid);
    }
    return out;
}

PersistentSlot &
SspCache::persistentSlot(SlotId sid)
{
    ssp_assert(sid < persistent_.size());
    return persistent_[sid];
}

void
SspCache::powerFail()
{
    for (auto &e : slots_)
        e = SspCacheEntry{};
    byVpn_.clear();
    freeSlots_.clear();
    for (unsigned i = 0; i < slots_.size(); ++i)
        freeSlots_.push_back(static_cast<SlotId>(slots_.size() - 1 - i));
    hotLru_.clear();
    hotIndex_.clear();
}

void
SspCache::reloadFromPersistent(SlotId sid)
{
    const PersistentSlot &p = persistent_[sid];
    ssp_assert(p.valid, "reloading an invalid persistent slot");
    // The slot must currently be free.
    SspCacheEntry &e = slots_[sid];
    ssp_assert(!e.valid, "reload over a live transient entry");
    e.valid = true;
    e.vpn = p.vpn;
    e.ppn0 = p.ppn0;
    e.ppn1 = p.ppn1;
    e.committed = p.committed;
    e.current = p.committed; // section 4.4: current := committed
    e.tlbRefCount = 0;
    e.coreRefCount = 0;
    e.consolidating = false;
    byVpn_[p.vpn] = sid;
    std::erase(freeSlots_, sid);
}

} // namespace ssp

#include "interconnect/directory.hh"

#include <algorithm>

#include "common/logging.hh"

namespace ssp
{

DirectoryCoherence::DirectoryCoherence(unsigned num_cores,
                                       const CoherenceParams &params)
    : CoherenceModel(num_cores),
      mesh_(MeshGeometry::forCores(num_cores)),
      filterCapacity_(params.snoopFilterEntries), filters_(mesh_.tiles())
{
}

Cycles
DirectoryCoherence::transact(CoreId sender, Addr line,
                             const CoreBitmap &peers, Cycles now)
{
    const unsigned home = mesh_.homeTile(line);
    // Request to the home plus the final ack back to the sender.
    const unsigned request_hops = 2 * mesh_.distance(mesh_.tileOf(sender),
                                                     home);
    // The home multicasts invalidations to the actual sharers and
    // collects their acks; the sender stalls for the farthest one.
    unsigned worst_sharer_hops = 0;
    std::uint64_t sharer_hops = 0;
    std::uint64_t sharer_count = 0;
    peers.forEachSet([&](CoreId peer) {
        const unsigned d = 2 * mesh_.distance(home, mesh_.tileOf(peer));
        worst_sharer_hops = std::max(worst_sharer_hops, d);
        sharer_hops += d;
        ++sharer_count;
    });
    ++lookups_;
    // One request + one ack, plus an invalidation/ack pair per sharer —
    // against the broadcast model's unconditional numCores-1 fan-out.
    countMessages(2 + 2 * sharer_count);
    hopTraversalCycles_ += kHopCycles * (request_hops + sharer_hops);
    return now + kHopCycles * (request_hops + worst_sharer_hops) +
           kLookupCycles;
}

Cycles
DirectoryCoherence::flipCurrentBit(CoreId sender, Addr line,
                                   const CoreBitmap &peers, Cycles now)
{
    countFlip();
    // Single-core machines have no peers and no mesh to cross; keep
    // parity with the broadcast model's free single-core flips.
    if (numCores() <= 1)
        return now;
    CoreBitmap targets = peers;
    targets.reset(sender);
    return transact(sender, line, targets, now);
}

Cycles
DirectoryCoherence::invalidate(CoreId sender, Addr line,
                               const CoreBitmap &peers, Cycles now)
{
    countInvalidation();
    if (numCores() <= 1)
        return now;
    CoreBitmap targets = peers;
    targets.reset(sender);
    return transact(sender, line, targets, now);
}

Cycles
DirectoryCoherence::shootdownReceiverCost(CoreId receiver, Addr line) const
{
    // The receiver stalls for the invalidation's trip from the line's
    // home tile; a sharer co-located with the home processes it in the
    // directory pipeline itself.
    return kHopCycles *
           mesh_.distance(mesh_.homeTile(line), mesh_.tileOf(receiver));
}

void
DirectoryCoherence::lineCached(Addr line)
{
    TileFilter &f = filters_[mesh_.homeTile(line)];
    auto it = f.map.find(line);
    if (it != f.map.end()) {
        // Already tracked: touch to most-recently-used.
        f.lru.splice(f.lru.begin(), f.lru, it->second);
        return;
    }
    f.lru.push_front(line);
    f.map.emplace(line, f.lru.begin());
    if (filterCapacity_ == 0 || f.map.size() <= filterCapacity_)
        return;
    // Capacity exceeded: evict the LRU line.  Inclusion demands its
    // live sharer copies be dropped, but this callback runs inside a
    // cache fill — queue the back-invalidation for the post-access
    // drain instead of re-entering the tag arrays here.
    const Addr victim = f.lru.back();
    f.map.erase(victim);
    f.lru.pop_back();
    ++filterEvictions_;
    pendingBackInvals_.push_back(victim);
}

void
DirectoryCoherence::lineUncached(Addr line)
{
    TileFilter &f = filters_[mesh_.homeTile(line)];
    auto it = f.map.find(line);
    if (it == f.map.end())
        return;
    f.lru.erase(it->second);
    f.map.erase(it);
}

void
DirectoryCoherence::drainMaintenance(Cycles now)
{
    while (!pendingBackInvals_.empty()) {
        const Addr victim = pendingBackInvals_.back();
        pendingBackInvals_.pop_back();
        ssp_assert(backInvalidate_,
                   "directory snoop filter evicted a line with no "
                   "back-invalidator attached");
        // Dropping the copies fires lineUncached (the filter entry is
        // already gone) and may write back dirty data — both safe here,
        // outside any in-flight access.
        const CoreBitmap dropped = backInvalidate_(victim, now);
        const unsigned home = mesh_.homeTile(victim);
        std::uint64_t dropped_hops = 0;
        std::uint64_t dropped_count = 0;
        dropped.forEachSet([&](CoreId core) {
            dropped_hops += 2 * mesh_.distance(home, mesh_.tileOf(core));
            ++dropped_count;
        });
        backInvals_ += dropped_count;
        countMessages(2 * dropped_count);
        hopTraversalCycles_ += kHopCycles * dropped_hops;
    }
}

void
DirectoryCoherence::powerFail()
{
    // The filters are home-tile SRAM: volatile, like the caches whose
    // contents they mirror.  Pending evictions die with the copies they
    // would have dropped.
    for (TileFilter &f : filters_) {
        f.lru.clear();
        f.map.clear();
    }
    pendingBackInvals_.clear();
}

} // namespace ssp

#include "interconnect/directory.hh"

#include <algorithm>

#include "common/logging.hh"

namespace ssp
{

DirectoryCoherence::DirectoryCoherence(unsigned num_cores,
                                       const CoherenceParams &params)
    : CoherenceModel(num_cores),
      mesh_(MeshGeometry::forCores(num_cores)),
      filterCapacity_(params.snoopFilterEntries), tracked_(mesh_.tiles())
{
    // Each tile's ring starts as its sentinel alone.
    for (std::uint32_t t = 0; t < mesh_.tiles(); ++t)
        links_.push_back(Link{t, t, 0});
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
DirectoryCoherence::lineCached(Addr line, std::uint32_t &slot)
{
    const unsigned tile = mesh_.homeTile(line);
    if (slot == kNoSlot) {
        if (freeSlots_ != kNoSlot) {
            slot = freeSlots_;
            freeSlots_ = links_[slot].next;
            links_[slot].line = line;
        } else {
            // Fewer than 2^32 slots: physical memory holds 2^29 lines.
            slot = static_cast<std::uint32_t>(links_.size());
            links_.push_back(Link{kNoSlot, kNoSlot, line});
        }
    } else if (links_[slot].prev != kNoSlot) {
        // Already tracked: touch to most-recently-used.
        if (links_[slot].prev != tile) {
            unlink(slot);
            linkFront(tile, slot);
        }
        return;
    }
    linkFront(tile, slot);
    if (++tracked_[tile] <= filterCapacity_ || filterCapacity_ == 0)
        return;
    // Capacity exceeded: evict the LRU line.  Inclusion demands its
    // live sharer copies be dropped, but this callback runs inside a
    // cache fill — queue the back-invalidation for the post-access
    // drain instead of re-entering the tag arrays here.  The victim's
    // slot stays its entry's until lineUncached frees it.
    const std::uint32_t victim = links_[tile].prev;
    unlink(victim);
    --tracked_[tile];
    ++filterEvictions_;
    pendingBackInvals_.push_back(links_[victim].line);
}

void
DirectoryCoherence::lineUncached(std::uint32_t slot)
{
    ssp_assert_dbg(slot >= mesh_.tiles() && slot < links_.size(),
                   "a line uncached without a snoop filter slot");
    Link &l = links_[slot];
    if (l.prev != kNoSlot) {
        unlink(slot);
        --tracked_[mesh_.homeTile(l.line)];
    }
    l.next = freeSlots_;
    freeSlots_ = slot;
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
        // Dropping the copies fires lineUncached (which frees the
        // victim's unlinked slot) and may write back dirty data — both
        // safe here, outside any in-flight access.
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
    // contents they mirror.  The caches' invalidateAll has already
    // uncached every line, and so emptied every filter.  Pending
    // evictions die with the copies they would have dropped.
    for (unsigned t = 0; t < mesh_.tiles(); ++t)
        ssp_assert(tracked_[t] == 0,
                   "a snoop filter outlived the caches it mirrors");
    pendingBackInvals_.clear();
}

} // namespace ssp

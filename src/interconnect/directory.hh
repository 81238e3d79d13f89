/**
 * @file
 * Home-node directory coherence on a 2D mesh.
 *
 * Every coherence event is a directory transaction at the home tile of
 * the target line's page: the request crosses the mesh to the home,
 * one directory lookup resolves the sharer set from the hierarchy's
 * exact SharerIndex bitmap, invalidations multicast to the actual
 * sharers (not to every core, the broadcast model's flat assumption),
 * and the acks return.  The sender stalls for the request round trip,
 * the lookup, and the farthest sharer's invalidation round trip; every
 * traversed hop is also accumulated into hopTraversalCycles so tile
 * placement shows up in the counters, not just in the stall.
 *
 * Sharer tracking is bounded the way real directories bound it: each
 * home tile owns a capacity-limited snoop filter (an LRU over tracked
 * lines, fed by the SharerIndex listener hook).  Filling a new line
 * into a full filter evicts the LRU line, and the eviction forces a
 * back-invalidation of the victim's live sharer copies — the inclusion
 * property that lets the filter stay authoritative (JETTY, HPCA '01;
 * the SGI Origin's directory plays the same role, ISCA '97).  Because
 * the listener fires mid-fill, evictions are queued and drained by the
 * hierarchy after the access completes (drainMaintenance), never
 * re-entering the cache arrays.
 *
 * The filters add no second map from line to filter entry: every
 * SharerIndex entry holds the index of its line's slot, and every
 * tile's LRU is a doubly linked list over slot indices in one shared
 * vector (slots 0..tiles-1 are the tiles' sentinels).  An evicted slot
 * stays owned by its index entry, unlinked, until the line's last
 * private copy goes (lineUncached frees it), so no slot is reused while
 * an entry still names it, and a refill before the drain relinks it.
 */

#ifndef SSP_INTERCONNECT_DIRECTORY_HH
#define SSP_INTERCONNECT_DIRECTORY_HH

#include <cstdint>
#include <vector>

#include "cache/coherence.hh"
#include "cache/sharer_index.hh"
#include "interconnect/mesh.hh"

namespace ssp
{

/** Mesh directory cost model (see file doc). */
class DirectoryCoherence final : public CoherenceModel,
                                 public SharerListener
{
  public:
    /** Cycles one message takes per mesh hop (link + router). */
    static constexpr Cycles kHopCycles = 3;
    /** Cycles one home-node directory lookup takes (SRAM tag array). */
    static constexpr Cycles kLookupCycles = 12;

    DirectoryCoherence(unsigned num_cores, const CoherenceParams &params);

    // ---- CoherenceModel ------------------------------------------------
    Cycles flipCurrentBit(CoreId sender, Addr line, const CoreBitmap &peers,
                          Cycles now) override;
    Cycles invalidate(CoreId sender, Addr line, const CoreBitmap &peers,
                      Cycles now) override;
    Cycles shootdownReceiverCost(CoreId receiver, Addr line) const override;

    SharerListener *sharerListener() override { return this; }
    void
    attachBackInvalidator(BackInvalidateFn fn) override
    {
        backInvalidate_ = std::move(fn);
    }
    bool needsMaintenance() const override { return true; }
    void drainMaintenance(Cycles now) override;
    bool
    maintenancePending() const override
    {
        return !pendingBackInvals_.empty();
    }
    void powerFail() override;

    std::uint64_t directoryLookups() const override { return lookups_; }
    std::uint64_t
    hopTraversalCycles() const override
    {
        return hopTraversalCycles_;
    }
    std::uint64_t
    snoopFilterEvictions() const override
    {
        return filterEvictions_;
    }
    std::uint64_t backInvalidations() const override { return backInvals_; }

    // ---- SharerListener ------------------------------------------------
    void lineCached(Addr line, std::uint32_t &slot) override;
    void lineUncached(std::uint32_t slot) override;

    const MeshGeometry &mesh() const { return mesh_; }

    /** Lines currently tracked by @p tile's snoop filter. */
    std::size_t filterSize(unsigned tile) const { return tracked_[tile]; }

  private:
    /**
     * One slot: a node of its home tile's LRU ring (most recently
     * touched next to the sentinel), or a tile's sentinel.  An evicted
     * slot has prev == kNoSlot; a free one chains the free list
     * through next.
     */
    struct Link
    {
        std::uint32_t prev;
        std::uint32_t next;
        Addr line;
    };

    /** Link slot @p s right after @p tile's sentinel (most recent). */
    void
    linkFront(unsigned tile, std::uint32_t s)
    {
        const std::uint32_t first = links_[tile].next;
        links_[s].prev = tile;
        links_[s].next = first;
        links_[first].prev = s;
        links_[tile].next = s;
    }

    /** Take linked slot @p s out of its ring. */
    void
    unlink(std::uint32_t s)
    {
        Link &l = links_[s];
        links_[l.prev].next = l.next;
        links_[l.next].prev = l.prev;
        l.prev = kNoSlot;
    }

    /**
     * Price one directory transaction from @p sender for @p line with
     * invalidations multicast to @p peers; returns the sender's
     * completion time and accumulates messages and hop cycles.
     */
    Cycles transact(CoreId sender, Addr line, const CoreBitmap &peers,
                    Cycles now);

    MeshGeometry mesh_;
    unsigned filterCapacity_; ///< tracked lines per tile; 0 = unbounded

    /** The tiles' sentinels, then every allocated or free slot. */
    std::vector<Link> links_;
    std::uint32_t freeSlots_ = kNoSlot; ///< head of the free list
    std::vector<std::uint32_t> tracked_; ///< linked slots per tile
    /** Evicted lines awaiting back-invalidation at the next drain. */
    std::vector<Addr> pendingBackInvals_;
    BackInvalidateFn backInvalidate_;

    std::uint64_t lookups_ = 0;
    std::uint64_t hopTraversalCycles_ = 0;
    std::uint64_t filterEvictions_ = 0;
    std::uint64_t backInvals_ = 0;
};

} // namespace ssp

#endif // SSP_INTERCONNECT_DIRECTORY_HH

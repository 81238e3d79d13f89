/**
 * @file
 * Three-level cache hierarchy: private L1D and L2 per core, shared L3,
 * backed by the memory bus (Table 2 geometry).
 *
 * Functional data lives in PhysMem; the hierarchy provides timing, dirty
 * tracking, write-back accounting, and the SSP line-remap operation
 * applied at every level where the line is present.
 */

#ifndef SSP_CACHE_HIERARCHY_HH
#define SSP_CACHE_HIERARCHY_HH

#include <cstddef>
#include <memory>
#include <vector>

#include "cache/cache.hh"
#include "cache/coherence.hh"
#include "cache/sharer_index.hh"
#include "common/logging.hh"
#include "common/types.hh"
#include "mem/memory_bus.hh"

namespace ssp
{

/** Geometry of the full hierarchy. */
struct HierarchyParams
{
    CacheParams l1{"l1d", 32 * 1024, 8, 4};
    CacheParams l2{"l2", 256 * 1024, 8, 6};
    CacheParams l3{"l3", 12 * 1024 * 1024, 16, 27};
};

/**
 * The cache hierarchy of the simulated machine.
 *
 * All addresses are physical line addresses.  The model is exclusive-ish
 * and simple: fills allocate in every level on the path; dirty victims
 * fall one level down; dirty L3 victims are written back to memory as
 * WriteCategory::Data (logs and journals never pass through the caches —
 * hardware logging designs stream them past the hierarchy).
 */
class CacheHierarchy
{
  public:
    /** A hierarchy with more than one core maintains the sharer index
     *  from the start (see sharerIndexed()). */
    CacheHierarchy(unsigned num_cores, const HierarchyParams &params,
                   MemoryBus &bus);

    /**
     * Attach the coherence model (done by Machine after construction,
     * before any access).  With a model attached, write() invalidates
     * peer-cached copies and charges the sender one coherence event
     * when any existed; without one the hierarchy times every access in
     * isolation (standalone tests).  A model with a sharer listener
     * (the directory snoop filter) is wired into the sharer index here
     * — linking the index first on a one-core machine — and its
     * deferred maintenance is drained after every timed access that
     * fills a line.
     */
    void attachCoherence(CoherenceModel *model);

    /**
     * Timed read of the line containing @p addr.  An L1 hit is
     * handled inline; everything else goes to readMiss().  A hit skips
     * the maintenance drain exactly: only fills queue snoop-filter
     * back-invalidations, and every path that fills drains before it
     * returns, so nothing is ever pending when an access starts.
     */
    Cycles
    read(CoreId core, Addr addr, Cycles now)
    {
        const Addr line = lineBase(addr);
        Cache &l1 = *l1s_[core];
        if (!l1.tryHit(line, false))
            return readMiss(core, line, now);
        assertNothingPending();
        return now + l1.latency();
    }

    /**
     * Timed write (write-allocate) of the line containing @p addr.  An
     * L1 hit is handled inline, as in read(); it still invalidates
     * peer copies when the machine has peers to invalidate.
     */
    Cycles
    write(CoreId core, Addr addr, Cycles now)
    {
        const Addr line = lineBase(addr);
        Cache &l1 = *l1s_[core];
        if (!l1.tryHit(line, true))
            return writeMiss(core, line, now);
        Cycles done = now + l1.latency();
        if (peerInvalidation_)
            done = invalidatePeersOnWrite(core, line, done);
        assertNothingPending();
        return done;
    }

    /**
     * clwb semantics: if the line is dirty anywhere in the hierarchy,
     * write it back to memory (category @p cat) and clean it; the line
     * stays cached.  Returns the completion time of the write-back (or
     * @p now when nothing was dirty).
     */
    Cycles flushLine(CoreId core, Addr addr, WriteCategory cat, Cycles now,
                     bool background = false);

    /**
     * Batched clwb: flush every line in @p lines, in order, all issued
     * at @p now, returning the latest completion.  Cycle-equivalent to
     * looping flushLine() — the bus sees the same write-backs in the
     * same arbitration order — but gives commit one call per write set
     * and a single loop the branch predictor learns.
     */
    Cycles flushLines(CoreId core, const Addr *lines, std::size_t count,
                      WriteCategory cat, Cycles now);

    /** Drop a line everywhere without write-back (SSP abort path). */
    void invalidateLine(Addr addr);

    /**
     * Flip-current-bit shootdown: drop the line from every core's
     * private caches *except* @p sender's.  Used when an SSP CoW remap
     * moves the committed copy of a line to the "other" physical page —
     * peer copies tagged with the remapped-away address are stale and
     * must never be written back to the old location.  Copies are
     * dropped without write-back: only the lock-holding core can have a
     * dirty copy of a page inside a transaction, and commit cleans it,
     * so peer copies are clean by construction.
     *
     * @return Bitmap of peer cores that held a copy (bit c = core c);
     *         the caller charges receiver cost and counts the messages.
     */
    CoreBitmap invalidateLineRemote(CoreId sender, Addr addr);

    /**
     * Snoop-filter back-invalidation: drop every private-cache copy of
     * @p addr's line.  A dirty copy falls into the shared L3 first (as
     * a normal dirty victim would), so no write is lost — dropping a
     * dirty pre-commit line outright would corrupt the durability
     * accounting its commit-time flush depends on.  Called by the
     * directory coherence model's maintenance drain, never mid-access.
     *
     * @return Bitmap of cores that held a copy.
     */
    CoreBitmap backInvalidateLine(Addr addr, Cycles now);

    /**
     * SSP first-transactional-write remap: move the cached copy of
     * @p old_addr (committed location) so it tags @p new_addr (the
     * "other" physical page).  If the old copy is not cached, the caller
     * has already paid for the fill.  Dirty victims displaced by the
     * re-tagged line are handled as normal write-backs.
     */
    void remapLine(CoreId core, Addr old_addr, Addr new_addr, Cycles now);

    /** Mark or clear the TX bit in the L1 copy. */
    void setTxBit(CoreId core, Addr addr, bool tx);

    /**
     * True when the L1 copy of @p addr carries the TX bit — i.e. the
     * line is speculative state of @p core's open transaction.  The
     * ConflictManager's per-transaction write set is the virtual-line
     * view of exactly these physical lines (see tests/test_conflicts).
     */
    bool txBitSet(CoreId core, Addr addr) const;

    /** True if the line is present in any level. */
    bool isCached(CoreId core, Addr addr) const;

    /** True if the line is dirty in any level. */
    bool isDirty(CoreId core, Addr addr) const;

    /** Simulated power failure: all volatile cache state disappears. */
    void invalidateAll();

    /**
     * Open a setup phase (Machine::SetupPhase): only core 0 runs and
     * every peer's private caches are empty, so writes skip peer
     * invalidation, invalidateLineRemote() finds no peer, and
     * invalidateLine() probes core 0 and the L3 only.  Under broadcast
     * coherence the private caches also stop feeding the sharer index
     * until endSetup(); the directory's snoop filter mirrors every
     * fill, and its order is timing, so there the index stays live.
     */
    void beginSetup();

    /** Close the setup phase, rebuilding a detached sharer index from
     *  the private caches' filled sets. */
    void endSetup();

    Cache &l1(CoreId core) { return *l1s_[core]; }
    Cache &l2(CoreId core) { return *l2s_[core]; }
    Cache &l3() { return *l3_; }
    unsigned numCores() const { return static_cast<unsigned>(l1s_.size()); }

    /**
     * True when this hierarchy maintains the sharer index: exactly when
     * something can read it — the machine has peers to find, or the
     * attached coherence model listens to it (the directory, at any
     * core count).  A one-core broadcast machine skips the per-fill
     * bookkeeping; nothing there ever asks for a peer.
     */
    bool sharerIndexed() const { return indexed_; }

    /**
     * The line-granular sharer index over all private L1/L2 caches.
     * Peer-directed operations iterate its masks instead of probing
     * every core's tag arrays; only maintained (and only meaningful)
     * when sharerIndexed().
     */
    const SharerIndex &sharerIndex() const { return sharers_; }

  private:
    /** Point every private cache at @p index (nullptr detaches). */
    void linkSharerIndex(SharerIndex *index);

    /** True when no core but core 0 holds a line in its L1 or L2. */
    bool peersIdle() const;

    /**
     * Brute-force check of the sharer index: every line held in some
     * core's L1 or L2 maps to exactly the cores whose tag probes find
     * it, and the index tracks no other line.
     */
    bool sharerIndexExact() const;

    /** Handle a dirty victim evicted from level @p level (0=L1, 1=L2). */
    void handleVictim(CoreId core, unsigned level,
                      const CacheAccessResult &res, Cycles now);

    /**
     * MESI-style write invalidation: drop the peer copies the sharer
     * index names and, when any existed, charge the sender one
     * coherence event on top of @p done.  Called only when
     * peerInvalidation_ (which implies the index).
     */
    Cycles invalidatePeersOnWrite(CoreId core, Addr line, Cycles done);

    /**
     * read() after @p line missed in @p core's L1: fill it from the
     * levels below without probing L1 again, then drain coherence
     * maintenance.
     */
    Cycles readMiss(CoreId core, Addr line, Cycles now);

    /** write() after @p line missed in @p core's L1: write-allocate as
     *  readMiss() does, invalidate peer copies, then drain. */
    Cycles writeMiss(CoreId core, Addr line, Cycles now);

    /**
     * Look @p line up in @p core's L2, then the L3, then memory,
     * filling every level it missed; @p done is the time the L1 lookup
     * finished.  Returns when the data arrives.
     */
    Cycles fillBelowL1(CoreId core, Addr line, Cycles now, Cycles done);

    /** Process deferred coherence maintenance queued by fills. */
    void
    drainMaintenance(Cycles now)
    {
        if (maintenance_ != nullptr)
            maintenance_->drainMaintenance(now);
    }

    /** Debug check behind the inline hit paths' skipped drain. */
    void
    assertNothingPending() const
    {
        ssp_assert_dbg(maintenance_ == nullptr ||
                           !maintenance_->maintenancePending(),
                       "coherence maintenance left pending");
    }

    HierarchyParams params_;
    MemoryBus &bus_;
    CoherenceModel *coherence_ = nullptr;
    /** Set iff coherence_ queues deferred maintenance (the directory
     *  snoop filter); broadcast machines pay one null check only. */
    CoherenceModel *maintenance_ = nullptr;
    /** A write may have peer copies to invalidate: a coherence model
     *  is attached and the machine has more than one core. */
    bool peerInvalidation_ = false;
    bool indexed_ = false;
    /** A setup phase is open (beginSetup()). */
    bool setup_ = false;
    /** The private caches stopped feeding sharers_ for the setup. */
    bool indexDetached_ = false;
    SharerIndex sharers_;
    std::vector<std::unique_ptr<Cache>> l1s_;
    std::vector<std::unique_ptr<Cache>> l2s_;
    std::unique_ptr<Cache> l3_;
};

} // namespace ssp

#endif // SSP_CACHE_HIERARCHY_HH

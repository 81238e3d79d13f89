/**
 * @file
 * The simulated machine substrate shared by SSP and the baseline
 * designs: physical memory, the memory bus, the cache hierarchy, the
 * page table, the coherence model, per-core TLBs and per-core clocks.
 */

#ifndef SSP_CORE_MACHINE_HH
#define SSP_CORE_MACHINE_HH

#include <algorithm>
#include <memory>
#include <vector>

#include "cache/coherence.hh"
#include "cache/hierarchy.hh"
#include "common/types.hh"
#include "core/config.hh"
#include "core/conflict_manager.hh"
#include "mem/memory_bus.hh"
#include "mem/phys_mem.hh"
#include "vm/page_table.hh"
#include "vm/tlb.hh"

namespace ssp
{

/** One simulated machine. */
class Machine
{
  public:
    explicit Machine(const SspConfig &cfg)
        : cfg_(cfg), mem_(cfg.nvramPages(), cfg.dramPages),
          bus_(mem_, cfg.memSystem()),
          caches_(cfg.numCores, cfg.caches, bus_),
          pt_(kPageWalkCycles, cfg.heapPages),
          coherence_(makeCoherenceModel(cfg.numCores, cfg.coherence)),
          conflicts_(cfg.numCores),
          clocks_(cfg.numCores, 0)
    {
        // The hierarchy's write path invalidates peer copies through the
        // coherence model (MESI-style); standalone hierarchies time in
        // isolation.  The hierarchy keeps its sharer index whenever the
        // machine has peers; attachCoherence also links it for the
        // directory model's snoop filter, which feeds on it at every
        // core count, and whose forced filter evictions drop live
        // copies through backInvalidateLine.
        caches_.attachCoherence(coherence_.get());
        coherence_->attachBackInvalidator([this](Addr line, Cycles now) {
            return caches_.backInvalidateLine(line, now);
        });
        for (unsigned i = 0; i < cfg.numCores; ++i)
            tlbs_.emplace_back(cfg.tlbEntries);
        // Identity-map the persistent heap up front.  Consolidation may
        // later retarget individual mappings; recovery relies on every
        // heap page having a page-table entry.
        for (std::uint64_t vpn = 0; vpn < cfg.heapPages; ++vpn)
            pt_.map(vpn, vpn);
    }

    /** Non-memory work per simulated operation. */
    static constexpr Cycles kOpCost = 2;

    const SspConfig &cfg() const { return cfg_; }
    PhysMem &mem() { return mem_; }
    MemoryBus &bus() { return bus_; }
    CacheHierarchy &caches() { return caches_; }
    PageTable &pt() { return pt_; }
    CoherenceModel &coherence() { return *coherence_; }
    const CoherenceModel &coherence() const { return *coherence_; }
    ConflictManager &conflicts() { return conflicts_; }
    const ConflictManager &conflicts() const { return conflicts_; }
    Tlb &tlb(CoreId core) { return tlbs_[core]; }

    Cycles &clock(CoreId core) { return clocks_[core]; }
    Cycles clock(CoreId core) const { return clocks_[core]; }

    /** Maximum core clock — wall-clock time of the simulated run. */
    Cycles
    maxClock() const
    {
        Cycles m = 0;
        for (Cycles c : clocks_)
            m = std::max(m, c);
        return m;
    }

    /** Minimum core clock — floor of any future transaction's begin. */
    Cycles
    minClock() const
    {
        Cycles m = clocks_[0];
        for (Cycles c : clocks_)
            m = std::min(m, c);
        return m;
    }

    /**
     * Publish @p core's committed write set at @p now
     * (ConflictManager::commitTx).  The O(cores) minClock() scan for
     * the prune floor runs only while detection is on: every setup
     * commit and every one-core commit skips it, as commitTx would
     * ignore it.
     */
    void
    commitConflicts(CoreId core, Cycles now)
    {
        if (conflicts_.enabled())
            conflicts_.commitTx(core, now, minClock());
    }

    /** Synchronize every core clock to the maximum (barrier). */
    void
    syncClocks()
    {
        Cycles m = maxClock();
        for (auto &c : clocks_)
            c = m;
    }

    /**
     * Charge the receiver side of a flip-current-bit shootdown: every
     * peer in @p peer_mask (as returned by
     * CacheHierarchy::invalidateLineRemote) had a stale copy of the
     * remapped-away line dropped from its private caches and pays the
     * model's receiver cost (a flat bus traversal under broadcast, the
     * trip from @p line's home tile under the mesh directory) to
     * process the message.
     */
    void
    chargeShootdown(CoreId sender, Addr line, const CoreBitmap &peer_mask)
    {
        peer_mask.forEachSet([&](CoreId c) {
            if (c == sender)
                return;
            clocks_[c] += coherence_->shootdownReceiverCost(c, line);
            coherence_->deliverShootdown(c);
        });
    }

    /**
     * Scoped setup phase.  Workload::setup() opens one on its first
     * line: the prefill runs on core 0 while every peer is idle at
     * clock 0, so the multi-core bookkeeping it would pay for can
     * never be observed.  While the phase is open the ConflictManager
     * records nothing and the caches skip peer invalidation (and,
     * under broadcast coherence, the sharer index).  Closing it
     * rebuilds the index and resumes conflict detection with core 0's
     * clock as the horizon every later transaction must begin above.
     * Simulated timing is unchanged; on one core the phase changes
     * nothing at all.
     */
    class SetupPhase
    {
      public:
        explicit SetupPhase(Machine &machine) : machine_(machine)
        {
            machine_.conflicts_.beginSetup();
            machine_.caches_.beginSetup();
        }

        /** Closing may throw (the Debug build's sharer-index
         *  cross-check); the failure leaves setup() like any other. */
        ~SetupPhase() noexcept(false)
        {
            machine_.caches_.endSetup();
            machine_.conflicts_.endSetup(machine_.clocks_[0]);
        }

        SetupPhase(const SetupPhase &) = delete;
        SetupPhase &operator=(const SetupPhase &) = delete;

      private:
        Machine &machine_;
    };

    /** Volatile state lost on power failure (caches, TLBs, DRAM). */
    void
    powerFail()
    {
        caches_.invalidateAll();
        coherence_->powerFail();
        for (auto &tlb : tlbs_)
            tlb.flushAll();
        mem_.powerFail();
        bus_.resetTiming();
        conflicts_.reset();
    }

  private:
    /** A mostly-cached radix walk. */
    static constexpr Cycles kPageWalkCycles = 60;

    SspConfig cfg_;
    PhysMem mem_;
    MemoryBus bus_;
    CacheHierarchy caches_;
    PageTable pt_;
    std::unique_ptr<CoherenceModel> coherence_;
    ConflictManager conflicts_;
    std::vector<Tlb> tlbs_;
    std::vector<Cycles> clocks_;
};

} // namespace ssp

#endif // SSP_CORE_MACHINE_HH

/**
 * @file
 * The per-core SSP engine: address translation through the extended TLB,
 * the atomic-update path of Figure 4, and the commit/abort sequences of
 * sections 3.2 and 4.1.1.
 */

#ifndef SSP_CORE_SSP_ENGINE_HH
#define SSP_CORE_SSP_ENGINE_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "core/machine.hh"
#include "core/write_set.hh"
#include "nvram/mem_controller.hh"

namespace ssp
{

/** Per-core translation result. */
struct Translation
{
    SlotId slot = kInvalidSlot;
    Ppn ppn0 = kInvalidPpn;
    Ppn ppn1 = kInvalidPpn;
};

/** Statistics one engine accumulates. */
struct EngineStats
{
    std::uint64_t loads = 0;
    std::uint64_t atomicStores = 0;
    std::uint64_t firstWrites = 0; ///< line-level CoW + flip events
    std::uint64_t tlbMisses = 0;   ///< persistent-heap TLB misses
    std::uint64_t commits = 0;
    std::uint64_t aborts = 0;
    std::uint64_t overflows = 0;
    /** Cycle breakdown (where this core's time goes). */
    Cycles loadCycles = 0;
    Cycles storeCycles = 0;
    Cycles commitCycles = 0;
};

/**
 * One core's SSP frontend.
 *
 * The engine owns the core's write-set buffer and drives the shared
 * machine (caches, TLB) and memory controller.  All operations advance
 * the core's clock in the Machine.
 */
class SspEngine
{
  public:
    SspEngine(CoreId core, Machine &machine, MemController &mc);

    /** ATOMIC_BEGIN (full memory barrier; assigns the TID). */
    void begin();

    /** ATOMIC_STORE of @p size bytes within one cache line (the
     *  caller, SspSystem::store, checks the span). */
    void atomicStore(Addr vaddr, const void *buf, std::uint64_t size);

    /** Timed load within one cache line (checked by SspSystem::load);
     *  sees the transaction's own speculative writes. */
    void load(Addr vaddr, void *buf, std::uint64_t size);

    /** ATOMIC_END: flush write set, journal metadata, ack. */
    void commit();

    /** Roll back the ongoing transaction. */
    void abort();

    bool inTx() const { return inTx_; }
    const WriteSetBuffer &writeSet() const { return writeSet_; }
    const EngineStats &stats() const { return stats_; }

    /** Drop transient per-core state after a power failure. */
    void reset();

  private:
    /** Translate @p vpn, filling the TLB on a miss.  The hit is
     *  inline: every load and store translates. */
    Translation
    translate(Vpn vpn)
    {
        if (const TlbEntry *hit = machine_.tlb(core_).lookup(vpn))
            return Translation{hit->slot, hit->ppn0, hit->ppn1};
        return translateMiss(vpn);
    }

    /** translate() after a TLB miss. */
    Translation translateMiss(Vpn vpn);

    /** Physical line address of line @p li per the current bitmap. */
    Addr currentLineAddr(const SspCacheEntry &e, const Translation &tr,
                         unsigned li) const;

    CoreId core_;
    Machine &machine_;
    MemController &mc_;
    WriteSetBuffer writeSet_;
    /** Commit-time scratch: write-set line addresses handed to the
     *  hierarchy's batched flush.  Member so the allocation amortizes
     *  across transactions. */
    std::vector<Addr> flushBatch_;
    bool inTx_ = false;
    TxId tid_ = 0;
    EngineStats stats_;
};

} // namespace ssp

#endif // SSP_CORE_SSP_ENGINE_HH

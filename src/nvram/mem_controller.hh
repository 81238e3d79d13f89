/**
 * @file
 * The SSP-extended memory controller (paper section 4.1.2).
 *
 * The controller provides centralized storage for SSP metadata (the SSP
 * cache), performs metadata journaling and checkpointing, manages the
 * reserved page pool, and triggers page consolidation when a page's TLB
 * reference count drops to zero.  Cores interact with it through three
 * operations: fetching a page's metadata on a TLB miss, broadcasting
 * flip-current-bit on first transactional writes, and issuing metadata
 * update instructions at commit.
 */

#ifndef SSP_NVRAM_MEM_CONTROLLER_HH
#define SSP_NVRAM_MEM_CONTROLLER_HH

#include <cstdint>
#include <deque>
#include <utility>

#include "common/stats.hh"
#include "common/types.hh"
#include "core/config.hh"
#include "mem/memory_bus.hh"
#include "nvram/consolidation.hh"
#include "nvram/free_pages.hh"
#include "nvram/journal.hh"
#include "nvram/ssp_cache.hh"
#include "vm/page_table.hh"

namespace ssp
{

/** Result of a metadata fetch on a TLB miss. */
struct MetadataFetchResult
{
    SlotId sid = kInvalidSlot;
    Ppn ppn0 = kInvalidPpn;
    Ppn ppn1 = kInvalidPpn;
    Cycles doneAt = 0;
};

/** The memory controller. */
class MemController
{
  public:
    /** Lay the controller out as @p cfg's shadow pool, SSP cache and
     *  journal describe; fatal when the journal or the pool is too
     *  small for the cache (SspConfig::persistentSspCache). */
    MemController(const SspConfig &cfg, MemoryBus &bus, PageTable &pt);

    /**
     * TLB-fill path: after the page walk produced @p ppn0, fetch (or
     * create) the SSP metadata for @p vpn and take a TLB reference.
     * A page mid-consolidation delays the response until the copy
     * completes (section 4.1.2).
     */
    MetadataFetchResult fetchEntry(Vpn vpn, Ppn ppn0, Cycles now);

    /** A TLB evicted the translation: drop the reference; on zero, the
     *  page is inactive and is consolidated eagerly. */
    void tlbDeref(SlotId sid, Cycles now);

    /** First transactional write to a page by a core in this tx. */
    void coreRef(SlotId sid);

    /** The page's metadata update (or abort) arrived from that core. */
    void coreDeref(SlotId sid);

    /** flip-current-bit for one line of a page. */
    void flipCurrent(SlotId sid, unsigned line_idx);

    /**
     * Metadata update instruction (commit step 2): journal and apply
     * committed ^= updated for one page.
     * @return completion time (journal append is buffered; the cost here
     *         is the SSP-cache access).
     */
    Cycles metadataUpdate(TxId tid, SlotId sid, Bitmap64 updated,
                          Cycles now);

    /**
     * Append the commit marker and force the journal to NVRAM; the
     * transaction is durable when this returns.  May trigger a
     * checkpoint afterwards (off the critical path).
     */
    Cycles commitTx(TxId tid, Cycles now);

    /** Allocate a fresh transaction ID. */
    TxId beginTx() { return nextTid_++; }

    /**
     * Checkpoint now: capture the final durable state of every slot the
     * journal touched into the persistent SSP cache, then truncate.
     */
    void checkpoint(Cycles now);

    /** Simulated power failure (volatile halves vanish). */
    void powerFail();

    /**
     * Recovery (paper section 4.4): rebuild the transient SSP cache from
     * the persistent cache, replay the journal skipping uncommitted
     * transactions, reset current := committed, fix the page table and
     * rebuild the free pool.
     */
    void recover();

    SspCache &cache() { return cache_; }
    MetadataJournal &journal() { return journal_; }
    Consolidator &consolidator() { return consolidator_; }
    FreePagePool &pool() { return pool_; }

    std::uint64_t checkpoints() const { return checkpoints_; }

  private:
    /** Consolidate a slot that has just become inactive. */
    void maybeConsolidate(SlotId sid, Cycles now);

    /** Move quarantined pages whose Free records are durable into the
     *  pool; force a journal flush only when the pool is empty. */
    void reclaimQuarantine(Cycles now);

    const SspConfig cfg_;
    /** cfg_.persistentSspCache(), where checkpoints write slot lines. */
    const NvramRegion persistentCache_;
    MemoryBus &bus_;
    PageTable &pt_;
    SspCache cache_;
    MetadataJournal journal_;
    FreePagePool pool_;
    Consolidator consolidator_;
    TxId nextTid_ = 1;
    std::uint64_t checkpoints_ = 0;
    /**
     * Shadow pages released by slot evictions, quarantined until the
     * journal watermark covers their Free record (so recovery can never
     * resurrect a stale owner after the page holds new data).  Pairs of
     * (page, journal byte offset that must be durable).
     */
    std::deque<std::pair<Ppn, std::uint64_t>> quarantine_;
};

} // namespace ssp

#endif // SSP_NVRAM_MEM_CONTROLLER_HH

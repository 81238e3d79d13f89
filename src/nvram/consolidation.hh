/**
 * @file
 * Page consolidation (paper sections 3.4 and 4.1.2).
 *
 * When a virtual page's TLB reference count drops to zero the page is
 * inactive; its committed lines are scattered across P0 and P1 and must
 * be merged into one physical page so the other can be reused.  The
 * consolidator counts the committed bitmap to find the minority side,
 * copies only those lines, journals the resulting mapping change (new
 * PPN0, committed bitmap all-zero) and updates the page table.
 *
 * Consolidation is the only place SSP writes data twice, and it runs off
 * the critical path: the controller consolidates a page eagerly, the
 * moment it becomes inactive (section 3.4).  The model charges the
 * copies to NVRAM bandwidth (they occupy banks) but no core stalls on
 * them; a core that re-requests a page mid-consolidation is served
 * from the controller's buffers.
 */

#ifndef SSP_NVRAM_CONSOLIDATION_HH
#define SSP_NVRAM_CONSOLIDATION_HH

#include <cstdint>

#include "common/stats.hh"
#include "common/types.hh"
#include "mem/memory_bus.hh"
#include "nvram/journal.hh"
#include "nvram/ssp_cache.hh"
#include "vm/page_table.hh"

namespace ssp
{

/** Outcome of one consolidation, for stats and tests. */
struct ConsolidationResult
{
    SlotId sid = kInvalidSlot;
    /** Lines physically copied (the minority side). */
    unsigned linesCopied = 0;
    /** True when the roles of P0 and P1 were swapped. */
    bool swapped = false;
    /** Completion time of the copy + journal write. */
    Cycles doneAt = 0;
};

/** The background consolidator. */
class Consolidator
{
  public:
    Consolidator(SspCache &cache, MetadataJournal &journal, PageTable &pt,
                 MemoryBus &bus);

    /**
     * Consolidate slot @p sid now.
     * @pre the slot's TLB and core reference counts are 0.
     */
    ConsolidationResult consolidate(SlotId sid, Cycles now);

    std::uint64_t consolidations() const { return consolidations_; }
    const StatSummary &copiedLines() const { return copiedLines_; }

  private:
    SspCache &cache_;
    MetadataJournal &journal_;
    PageTable &pt_;
    MemoryBus &bus_;
    std::uint64_t consolidations_ = 0;
    StatSummary copiedLines_;
};

} // namespace ssp

#endif // SSP_NVRAM_CONSOLIDATION_HH

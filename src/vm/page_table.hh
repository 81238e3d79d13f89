/**
 * @file
 * Virtual-to-physical mapping table.
 *
 * Models the OS page table for the persistent heap.  The table itself is
 * durably stored (in NVRAM) as in any persistent-memory system; SSP's
 * page consolidation updates a mapping when it migrates a page's valid
 * data into what used to be the shadow page (paper section 3.4).  Crash
 * consistency of those updates comes from the metadata journal: recovery
 * re-derives the mapping of every *active* page from the SSP cache, so
 * the page-table update itself does not need to be ordered.
 *
 * Storage is one flat, calloc-backed array over VPNs [0, pages)
 * (entries store ppn+1, so the all-zero reset state means "unmapped").
 * The machine sizes it to the identity-mapped persistent heap, so every
 * translation is one array load; mapping or translating a VPN past the
 * end is a caller bug and asserts.
 */

#ifndef SSP_VM_PAGE_TABLE_HH
#define SSP_VM_PAGE_TABLE_HH

#include <cstdint>
#include <memory>

#include "common/types.hh"

namespace ssp
{

/** VPN -> PPN mapping with page-walk timing. */
class PageTable
{
  public:
    /**
     * @param walk_cycles Cost of a page-table walk in core cycles.
     *        A radix walk is mostly cached; Table 2-class machines see
     *        on the order of tens of cycles.
     * @param pages Number of VPNs the table covers: [0, pages).
     */
    PageTable(Cycles walk_cycles, std::uint64_t pages);

    /** Install or replace a mapping; @p vpn must be below the page count. */
    void map(Vpn vpn, Ppn ppn);

    /** Remove a mapping; returns true if it existed. */
    bool unmap(Vpn vpn);

    /** True if @p vpn is mapped (false at or past the table's end). */
    bool isMapped(Vpn vpn) const;

    /** Translate; asserts on unmapped pages, including any past the
     *  end — the simulated workloads never touch unmapped persistent
     *  memory. */
    Ppn translate(Vpn vpn) const;

    /** Timed page walk. @return completion time. */
    Cycles
    walk(Cycles now) const
    {
        return now + walkCycles_;
    }

    std::uint64_t size() const { return size_; }

    /**
     * Visit every (vpn, ppn) mapping.  The table is persistent — it
     * survives powerFail() untouched — and recovery walks it through
     * here to rebuild free-page pools.
     */
    template <typename Fn>
    void
    forEachEntry(Fn &&fn) const
    {
        for (Vpn vpn = 0; vpn < pages_; ++vpn) {
            const std::uint64_t e = entries_[vpn];
            if (e != 0)
                fn(vpn, static_cast<Ppn>(e - 1));
        }
    }

  private:
    Cycles walkCycles_;
    std::uint64_t pages_;
    /** pages_ entries of ppn+1 (0 = unmapped); calloc'd so the
     *  untouched tail of a big heap costs address space only. */
    std::unique_ptr<std::uint64_t[], FreeDeleter> entries_;
    std::uint64_t size_ = 0;
};

} // namespace ssp

#endif // SSP_VM_PAGE_TABLE_HH

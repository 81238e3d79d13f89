/**
 * @file
 * Free-space management for the memory controller.
 *
 * At system initialization the OS reserves a contiguous range of NVRAM
 * physical pages and hands the base to the controller (paper section
 * 4.1.2, "Free Space Management").  The controller associates each SSP
 * cache slot with an extra physical page drawn from this pool; when a
 * consolidation swaps a page's roles, the slot's extra page is exchanged
 * for the retired original.
 */

#ifndef SSP_NVRAM_FREE_PAGES_HH
#define SSP_NVRAM_FREE_PAGES_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace ssp
{

/** Pool of reserved NVRAM physical pages. */
class FreePagePool
{
  public:
    /**
     * @param base_ppn First reserved physical page.
     * @param num_pages Number of reserved pages.
     */
    FreePagePool(Ppn base_ppn, std::uint64_t num_pages);

    /**
     * Recovery factory: a pool with capacity @p num_pages whose free
     * list is exactly @p free_list.  Consolidation swaps migrate pages
     * between heap duty and shadow duty, so after a crash the free set
     * is recomputed (all pages neither page-table-mapped nor owned by a
     * live SSP cache slot) rather than derived from the reserved range.
     */
    static FreePagePool fromList(Ppn base_ppn, std::uint64_t num_pages,
                                 const std::vector<Ppn> &free_list);

    /** Take one page from the pool. Fatal when exhausted. */
    Ppn allocate();

    /** Return a page to the pool. */
    void release(Ppn ppn);

    std::uint64_t available() const { return free_.size(); }
    std::uint64_t capacity() const { return capacity_; }

  private:
    std::uint64_t capacity_;
    std::vector<Ppn> free_; // LIFO: allocate takes the last release
};

} // namespace ssp

#endif // SSP_NVRAM_FREE_PAGES_HH

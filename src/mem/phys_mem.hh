/**
 * @file
 * Functional physical memory backing store.
 *
 * One flat physical address space holds both the NVRAM region (pages
 * [0, nvramPages)) and the DRAM region above it, mirroring the paper's
 * hybrid memory on a single memory bus.  Pages are allocated lazily so an
 * 8 GiB simulated machine does not cost 8 GiB of host memory.
 *
 * Crash semantics: the NVRAM region supports snapshot() / restore() pairs
 * used by the crash-injection tests; the DRAM region is simply cleared on
 * a simulated power failure.
 */

#ifndef SSP_MEM_PHYS_MEM_HH
#define SSP_MEM_PHYS_MEM_HH

#include <cstdint>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace ssp
{

/** Lazily-allocated page-granular physical memory image. */
class PhysMem
{
  public:
    /**
     * @param nvram_pages Number of physical pages in the NVRAM region.
     * @param dram_pages Number of physical pages in the DRAM region,
     *                   starting at physical page nvram_pages.
     */
    PhysMem(std::uint64_t nvram_pages, std::uint64_t dram_pages);

    /**
     * Read @p size bytes at physical address @p addr into @p buf.
     * The page-local case is inlined: every simulated load lands here,
     * and call overhead on it is measurable at 64 cores.
     */
    void
    read(Addr addr, void *buf, std::uint64_t size) const
    {
        if (fitsInPage(addr, size)) {
            const std::uint8_t *page = pageForRead(addr);
            if (page == nullptr)
                std::memset(buf, 0, size);
            else
                std::memcpy(buf, page + pageOffset(addr), size);
            return;
        }
        readSlow(addr, buf, size);
    }

    /** Write @p size bytes from @p buf to physical address @p addr. */
    void
    write(Addr addr, const void *buf, std::uint64_t size)
    {
        if (fitsInPage(addr, size)) {
            std::memcpy(pageFor(addr, true) + pageOffset(addr), buf, size);
            return;
        }
        writeSlow(addr, buf, size);
    }

    /** Copy one 64-byte line between physical line addresses. */
    void copyLine(Addr dst, Addr src);

    /** Read a little-endian uint64 at @p addr. */
    std::uint64_t read64(Addr addr) const;

    /** Write a little-endian uint64 at @p addr. */
    void write64(Addr addr, std::uint64_t value);

    /** True if @p ppn lies in the NVRAM region. */
    bool isNvramPage(Ppn ppn) const { return ppn < nvramPages_; }

    /** True if physical address @p addr lies in the NVRAM region. */
    bool isNvramAddr(Addr addr) const { return isNvramPage(pageOf(addr)); }

    std::uint64_t nvramPages() const { return nvramPages_; }
    std::uint64_t dramPages() const { return dramPages_; }
    std::uint64_t totalPages() const { return nvramPages_ + dramPages_; }

    /**
     * Simulated power failure: the DRAM region loses its contents.
     * The NVRAM region is untouched.
     */
    void powerFail();

    /** Deep copy of the NVRAM region (for the crash-test oracle). */
    std::unordered_map<Ppn, std::vector<std::uint8_t>> snapshotNvram() const;

    /** Pages currently backed by host memory (for tests). */
    std::uint64_t allocatedPages() const;

  private:
    void readSlow(Addr addr, void *buf, std::uint64_t size) const;
    void writeSlow(Addr addr, const void *buf, std::uint64_t size);
    std::uint8_t *allocPage(Ppn ppn);

    /** Backing page for @p addr, allocating on demand when @p create. */
    std::uint8_t *
    pageFor(Addr addr, bool create)
    {
        const Ppn ppn = pageOf(addr);
        if (ppn == lastPpn_)
            return lastPage_;
        ssp_assert_dbg(ppn < totalPages(), "paddr %llx out of range",
                       static_cast<unsigned long long>(addr));
        std::uint8_t *page = pages_[ppn].get();
        if (page == nullptr) {
            if (!create)
                return nullptr;
            page = allocPage(ppn);
        }
        lastPpn_ = ppn;
        lastPage_ = page;
        return page;
    }

    /** Backing page for @p addr, or null when never written. */
    const std::uint8_t *
    pageForRead(Addr addr) const
    {
        const Ppn ppn = pageOf(addr);
        if (ppn == lastPpn_)
            return lastPage_;
        ssp_assert_dbg(ppn < totalPages(), "paddr %llx out of range",
                       static_cast<unsigned long long>(addr));
        std::uint8_t *page = pages_[ppn].get();
        if (page != nullptr) {
            // Only present pages are cached: a later write may
            // allocate this ppn, and a stale "absent" entry would
            // then hide it.
            lastPpn_ = ppn;
            lastPage_ = page;
        }
        return page;
    }

    std::uint64_t nvramPages_;
    std::uint64_t dramPages_;
    /**
     * Flat ppn-indexed table of lazily-allocated pages; null entries
     * read as zero.  Every functional byte of the simulation goes
     * through here, so the lookup must be an array index, not a hash.
     * Eight bytes per simulated page keeps even multi-GiB machines at
     * a few MiB of table.
     */
    std::vector<std::unique_ptr<std::uint8_t[]>> pages_;
    /** One-entry lookup cache: consecutive accesses hit one page. */
    mutable Ppn lastPpn_ = kInvalidPpn;
    mutable std::uint8_t *lastPage_ = nullptr;
};

} // namespace ssp

#endif // SSP_MEM_PHYS_MEM_HH

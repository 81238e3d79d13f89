#include "mem/phys_mem.hh"

#include "common/logging.hh"

namespace ssp
{

PhysMem::PhysMem(std::uint64_t nvram_pages, std::uint64_t dram_pages)
    : nvramPages_(nvram_pages), dramPages_(dram_pages)
{
    ssp_assert(nvram_pages > 0);
    pages_.resize(totalPages());
}

std::uint8_t *
PhysMem::allocPage(Ppn ppn)
{
    // Hard check on the cold path: every first touch of a page funnels
    // through here, so an out-of-range paddr still dies cleanly in
    // Release instead of corrupting the heap — while the hot lookups
    // above keep only the debug-build assert.
    ssp_assert(ppn < totalPages(), "ppn %llx out of range",
               static_cast<unsigned long long>(ppn));
    pages_[ppn] = std::make_unique<std::uint8_t[]>(kPageSize);
    std::uint8_t *page = pages_[ppn].get();
    std::memset(page, 0, kPageSize);
    return page;
}

void
PhysMem::readSlow(Addr addr, void *buf, std::uint64_t size) const
{
    auto *out = static_cast<std::uint8_t *>(buf);
    while (size > 0) {
        std::uint64_t in_page = std::min<std::uint64_t>(
            size, kPageSize - pageOffset(addr));
        const std::uint8_t *page = pageForRead(addr);
        if (page == nullptr)
            std::memset(out, 0, in_page);
        else
            std::memcpy(out, page + pageOffset(addr), in_page);
        addr += in_page;
        out += in_page;
        size -= in_page;
    }
}

void
PhysMem::writeSlow(Addr addr, const void *buf, std::uint64_t size)
{
    const auto *in = static_cast<const std::uint8_t *>(buf);
    while (size > 0) {
        std::uint64_t in_page = std::min<std::uint64_t>(
            size, kPageSize - pageOffset(addr));
        std::memcpy(pageFor(addr, true) + pageOffset(addr), in, in_page);
        addr += in_page;
        in += in_page;
        size -= in_page;
    }
}

void
PhysMem::copyLine(Addr dst, Addr src)
{
    std::uint8_t tmp[kLineSize];
    read(src, tmp, kLineSize);
    write(dst, tmp, kLineSize);
}

std::uint64_t
PhysMem::read64(Addr addr) const
{
    std::uint64_t v = 0;
    read(addr, &v, sizeof(v));
    return v;
}

void
PhysMem::write64(Addr addr, std::uint64_t value)
{
    write(addr, &value, sizeof(value));
}

void
PhysMem::powerFail()
{
    for (Ppn ppn = nvramPages_; ppn < totalPages(); ++ppn)
        pages_[ppn].reset();
    // The lookup cache may point at a just-released DRAM page.
    lastPpn_ = kInvalidPpn;
    lastPage_ = nullptr;
}

std::unordered_map<Ppn, std::vector<std::uint8_t>>
PhysMem::snapshotNvram() const
{
    // Size the table up front: the crash tests snapshot after every
    // injected failure, and growing a rehashing map page by page was
    // measurable churn there.
    std::uint64_t allocated = 0;
    for (Ppn ppn = 0; ppn < nvramPages_; ++ppn)
        allocated += pages_[ppn] != nullptr ? 1 : 0;
    std::unordered_map<Ppn, std::vector<std::uint8_t>> snap;
    snap.reserve(allocated);
    for (Ppn ppn = 0; ppn < nvramPages_; ++ppn) {
        const std::uint8_t *page = pages_[ppn].get();
        if (page == nullptr)
            continue;
        snap.emplace(ppn, std::vector<std::uint8_t>(page, page + kPageSize));
    }
    return snap;
}

std::uint64_t
PhysMem::allocatedPages() const
{
    std::uint64_t n = 0;
    for (const auto &page : pages_)
        n += page != nullptr ? 1 : 0;
    return n;
}

} // namespace ssp

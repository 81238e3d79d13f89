#include "vm/page_table.hh"

#include "common/logging.hh"

namespace ssp
{

PageTable::PageTable(Cycles walk_cycles, std::uint64_t pages)
    : walkCycles_(walk_cycles), pages_(pages),
      entries_(static_cast<std::uint64_t *>(
          std::calloc(pages, sizeof(std::uint64_t))))
{
    ssp_assert(entries_ != nullptr || pages == 0);
}

void
PageTable::map(Vpn vpn, Ppn ppn)
{
    ssp_assert(ppn != kInvalidPpn);
    ssp_assert(vpn < pages_, "map of vpn %llx past the table's %llu pages",
               static_cast<unsigned long long>(vpn),
               static_cast<unsigned long long>(pages_));
    if (entries_[vpn] == 0)
        ++size_;
    entries_[vpn] = ppn + 1;
}

bool
PageTable::unmap(Vpn vpn)
{
    if (!isMapped(vpn))
        return false;
    entries_[vpn] = 0;
    --size_;
    return true;
}

bool
PageTable::isMapped(Vpn vpn) const
{
    return vpn < pages_ && entries_[vpn] != 0;
}

Ppn
PageTable::translate(Vpn vpn) const
{
    ssp_assert(isMapped(vpn), "translate of unmapped vpn %llx",
               static_cast<unsigned long long>(vpn));
    return entries_[vpn] - 1;
}

} // namespace ssp

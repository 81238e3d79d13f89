#include "nvram/free_pages.hh"

#include "common/logging.hh"

namespace ssp
{

FreePagePool::FreePagePool(Ppn base_ppn, std::uint64_t num_pages)
    : basePpn_(base_ppn), capacity_(num_pages)
{
    ssp_assert(num_pages > 0);
    free_.reserve(num_pages);
    for (std::uint64_t i = 0; i < num_pages; ++i)
        free_.push_back(base_ppn + i);
}

FreePagePool
FreePagePool::fromList(Ppn base_ppn, std::uint64_t num_pages,
                       const std::vector<Ppn> &free_list)
{
    FreePagePool pool(base_ppn, num_pages);
    pool.free_ = free_list;
    return pool;
}

Ppn
FreePagePool::allocate()
{
    if (free_.empty()) {
        ssp_fatal("free page pool exhausted (capacity %llu); "
                  "increase SspConfig::shadowPoolPages",
                  static_cast<unsigned long long>(capacity_));
    }
    Ppn ppn = free_.back();
    free_.pop_back();
    return ppn;
}

void
FreePagePool::release(Ppn ppn)
{
    free_.push_back(ppn);
}

} // namespace ssp

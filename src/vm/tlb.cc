#include "vm/tlb.hh"

#include <algorithm>
#include <bit>

namespace ssp
{

Tlb::Tlb(unsigned num_entries)
    : capacity_(num_entries), entries_(num_entries), links_(num_entries),
      invalid_((num_entries + 63) / 64)
{
    ssp_assert(num_entries > 0 && num_entries < kNil, "TLB of %u entries",
               num_entries);
    flushAll();
}

void
Tlb::unlink(unsigned idx)
{
    std::uint16_t *link = &buckets_[bucketOf(entries_[idx].vpn)];
    while (*link != idx)
        link = &links_[*link].chain;
    *link = links_[idx].chain;
    unlinkLru(idx);
}

unsigned
Tlb::victim() const
{
    if (numInvalid_ == 0)
        return lru_;
    unsigned w = 0;
    while (invalid_[w] == 0)
        ++w;
    return w * 64 + static_cast<unsigned>(std::countr_zero(invalid_[w]));
}

std::optional<TlbEntry>
Tlb::insert(const TlbEntry &entry)
{
    ssp_assert(entry.valid, "inserting invalid TLB entry");
    ssp_assert_dbg(find(entry.vpn) == kNil, "inserting a present vpn");
    const unsigned idx = victim();
    ssp_assert_dbg(idx == scanVictim(), "TLB victim %u, scan's %u", idx,
                   scanVictim());
    std::optional<TlbEntry> displaced;
    if (entries_[idx].valid) {
        ++evictions_;
        displaced = entries_[idx];
        unlink(idx);
    } else {
        invalid_[idx / 64] &= ~(std::uint64_t{1} << (idx % 64));
        --numInvalid_;
    }
    TlbEntry &slot = entries_[idx];
    slot = entry;
    slot.lru = ++lruClock_;
    std::uint16_t &head = buckets_[bucketOf(entry.vpn)];
    links_[idx].chain = head;
    head = static_cast<std::uint16_t>(idx);
    pushMru(idx);
    return displaced;
}

std::optional<TlbEntry>
Tlb::evict(Vpn vpn)
{
    const unsigned idx = find(vpn);
    ssp_assert_dbg(idx == scan(vpn), "TLB index lost a vpn");
    if (idx == kNil)
        return std::nullopt;
    TlbEntry out = entries_[idx];
    unlink(idx);
    entries_[idx].valid = false;
    invalid_[idx / 64] |= std::uint64_t{1} << (idx % 64);
    ++numInvalid_;
    return out;
}

std::vector<TlbEntry>
Tlb::validEntries() const
{
    std::vector<TlbEntry> out;
    for (const auto &entry : entries_) {
        if (entry.valid)
            out.push_back(entry);
    }
    return out;
}

void
Tlb::flushAll()
{
    for (unsigned idx = mru_; idx != kNil; idx = links_[idx].older)
        entries_[idx].valid = false;
    buckets_.fill(kNil);
    mru_ = lru_ = kNil;
    std::fill(invalid_.begin(), invalid_.end(), ~std::uint64_t{0});
    if (capacity_ % 64 != 0)
        invalid_.back() = (std::uint64_t{1} << (capacity_ % 64)) - 1;
    numInvalid_ = capacity_;
}

unsigned
Tlb::scan(Vpn vpn) const
{
    for (unsigned i = 0; i < capacity_; ++i) {
        if (entries_[i].valid && entries_[i].vpn == vpn)
            return i;
    }
    return kNil;
}

unsigned
Tlb::scanVictim() const
{
    unsigned best = kNil;
    for (unsigned i = 0; i < capacity_; ++i) {
        if (!entries_[i].valid)
            return i;
        if (best == kNil || entries_[i].lru < entries_[best].lru)
            best = i;
    }
    return best;
}

} // namespace ssp

#include "vm/tlb.hh"

#include "common/logging.hh"

namespace ssp
{

Tlb::Tlb(unsigned num_entries) : capacity_(num_entries)
{
    ssp_assert(num_entries > 0);
    entries_.resize(num_entries);
}

unsigned
Tlb::scan(Vpn vpn)
{
    for (unsigned i = 0; i < capacity_; ++i) {
        if (entries_[i].valid && entries_[i].vpn == vpn) {
            hints_[hintOf(vpn)] = i;
            return i;
        }
    }
    return kNoEntry;
}

std::optional<TlbEntry>
Tlb::insert(const TlbEntry &entry)
{
    ssp_assert(entry.valid, "inserting invalid TLB entry");
    // Reuse an invalid slot if one exists.
    TlbEntry *victim = nullptr;
    for (auto &slot : entries_) {
        if (!slot.valid) {
            victim = &slot;
            break;
        }
        if (victim == nullptr || slot.lru < victim->lru)
            victim = &slot;
    }
    std::optional<TlbEntry> displaced;
    if (victim->valid) {
        ++evictions_;
        displaced = *victim;
    }
    *victim = entry;
    victim->lru = ++lruClock_;
    hints_[hintOf(entry.vpn)] =
        static_cast<unsigned>(victim - entries_.data());
    return displaced;
}

std::optional<TlbEntry>
Tlb::evict(Vpn vpn)
{
    const unsigned idx = find(vpn);
    if (idx == kNoEntry)
        return std::nullopt;
    TlbEntry out = entries_[idx];
    entries_[idx].valid = false;
    return out;
}

std::vector<TlbEntry>
Tlb::validEntries() const
{
    std::vector<TlbEntry> out;
    // One allocation, sized by the worst case: flush paths call this
    // on every transaction commit, and repeated push_back growth was
    // avoidable churn in the crash tests.
    out.reserve(capacity_);
    for (const auto &entry : entries_) {
        if (entry.valid)
            out.push_back(entry);
    }
    return out;
}

void
Tlb::flushAll()
{
    for (auto &entry : entries_)
        entry.valid = false;
}

} // namespace ssp

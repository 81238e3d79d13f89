#include "core/ssp_system.hh"

#include "common/logging.hh"

namespace ssp
{

SspSystem::SspSystem(const SspConfig &cfg)
{
    machine_ = std::make_unique<Machine>(cfg);

    mc_ = std::make_unique<MemController>(cfg, machine_->bus(),
                                          machine_->pt());

    for (CoreId c = 0; c < cfg.numCores; ++c)
        engines_.push_back(std::make_unique<SspEngine>(c, *machine_, *mc_));
}

void
SspSystem::begin(CoreId core)
{
    engines_[core]->begin();
}

void
SspSystem::commit(CoreId core)
{
    SspEngine &eng = *engines_[core];
    charz_.linesPerTx.sample(eng.writeSet().totalLines());
    charz_.pagesPerTx.sample(eng.writeSet().size());
    eng.commit();
}

void
SspSystem::abort(CoreId core)
{
    engines_[core]->abort();
}

bool
SspSystem::inTx(CoreId core) const
{
    return engines_[core]->inTx();
}

void
SspSystem::load(CoreId core, Addr vaddr, void *buf, std::uint64_t size)
{
    ssp_assert(fitsInLine(vaddr, size));
    engines_[core]->load(vaddr, buf, size);
}

void
SspSystem::store(CoreId core, Addr vaddr, const void *buf,
                 std::uint64_t size)
{
    ssp_assert(fitsInLine(vaddr, size));
    engines_[core]->atomicStore(vaddr, buf, size);
}

Addr
SspSystem::lineLocation(Addr vaddr, bool committed) const
{
    const Vpn vpn = pageOf(vaddr);
    const unsigned li = lineIndexInPage(vaddr);
    Ppn ppn;
    const SlotId sid = mc_->cache().findSlot(vpn);
    if (sid != kInvalidSlot) {
        const SspCacheEntry &e = mc_->cache().entry(sid);
        const Bitmap64 &version = committed ? e.committed : e.current;
        ppn = version.test(li) ? e.ppn1 : e.ppn0;
    } else {
        ppn = machine_->pt().translate(vpn);
    }
    return lineAddr(ppn, li) + lineOffset(vaddr);
}

void
SspSystem::storeRaw(Addr vaddr, const void *buf, std::uint64_t size)
{
    // Initialization path: write directly to the committed location.
    ssp_assert(fitsInLine(vaddr, size));
    const Addr paddr = lineLocation(vaddr, true);
    ssp_assert(paddr == lineLocation(vaddr, false),
               "storeRaw over a line an open transaction wrote");
    machine_->mem().write(paddr, buf, size);
}

void
SspSystem::loadRaw(Addr vaddr, void *buf, std::uint64_t size)
{
    ssp_assert(fitsInLine(vaddr, size));
    machine_->mem().read(lineLocation(vaddr, false), buf, size);
}

Addr
SspSystem::committedLocation(Addr vaddr)
{
    return lineLocation(vaddr, true);
}

void
SspSystem::crash()
{
    // Volatile state disappears: caches, TLBs, DRAM, the transient SSP
    // cache, per-core write sets, the unpersisted journal tail.
    machine_->powerFail();
    mc_->powerFail();
    for (auto &eng : engines_)
        eng->reset();
}

void
SspSystem::recover()
{
    mc_->recover();
}

std::uint64_t
SspSystem::loggingWrites() const
{
    return machine_->bus().nvramWrites(WriteCategory::MetaJournal) +
           machine_->bus().nvramWrites(WriteCategory::Checkpoint);
}

std::uint64_t
SspSystem::committedTxs() const
{
    std::uint64_t n = 0;
    for (const auto &eng : engines_)
        n += eng->stats().commits;
    return n;
}

} // namespace ssp

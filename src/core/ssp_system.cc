#include "core/ssp_system.hh"

#include "common/logging.hh"

namespace ssp
{

SspSystem::SspSystem(const SspConfig &cfg)
{
    machine_ = std::make_unique<Machine>(cfg);

    MemControllerParams mcp;
    mcp.sspCacheSlots = cfg.effectiveSspSlots();
    mcp.shadowPoolBase = cfg.shadowPoolBase();
    mcp.shadowPoolPages = cfg.shadowPoolPages;
    mcp.journalBase = cfg.journalBase();
    mcp.checkpointThresholdBytes = cfg.checkpointThresholdBytes;
    // Carve the persistent SSP-cache slot lines off the top of the
    // journal region so checkpoint writes never alias journal-append
    // lines on the bank/channel layout.
    const std::uint64_t pcache_bytes =
        std::uint64_t{cfg.effectiveSspSlots()} * kLineSize;
    if (cfg.journalBytes() <= pcache_bytes +
                                  2 * cfg.checkpointThresholdBytes) {
        ssp_fatal("journal area (%llu bytes) too small for %u persistent "
                  "slot lines plus journal headroom; raise journalPages",
                  static_cast<unsigned long long>(cfg.journalBytes()),
                  cfg.effectiveSspSlots());
    }
    mcp.journalBytes = cfg.journalBytes() - pcache_bytes;
    mcp.persistentCacheBase = cfg.journalBase() + mcp.journalBytes;
    mcp.persistentCacheBytes = pcache_bytes;
    mcp.latency = cfg.sspCacheLatency;
    if (cfg.shadowPoolPages < mcp.sspCacheSlots) {
        ssp_fatal("shadow pool (%llu pages) smaller than the SSP cache "
                  "(%u slots); every slot needs an extra page",
                  static_cast<unsigned long long>(cfg.shadowPoolPages),
                  mcp.sspCacheSlots);
    }
    mc_ = std::make_unique<MemController>(mcp, machine_->bus(),
                                          machine_->pt());

    for (CoreId c = 0; c < cfg.numCores; ++c)
        engines_.push_back(std::make_unique<SspEngine>(c, *machine_, *mc_));
}

void
SspSystem::mapHeapPage(Vpn vpn, Ppn ppn)
{
    ssp_assert(ppn < machine_->cfg().heapPages,
               "heap page outside the heap region");
    machine_->pt().map(vpn, ppn);
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
    engines_[core]->load(vaddr, buf, size);
}

void
SspSystem::store(CoreId core, Addr vaddr, const void *buf,
                 std::uint64_t size)
{
    engines_[core]->atomicStore(vaddr, buf, size);
}

void
SspSystem::storeRaw(Addr vaddr, const void *buf, std::uint64_t size)
{
    // Initialization path: write directly to the committed location.
    auto *in = static_cast<const std::uint8_t *>(buf);
    while (size > 0) {
        const std::uint64_t in_line =
            std::min<std::uint64_t>(size, kLineSize - lineOffset(vaddr));
        const Vpn vpn = pageOf(vaddr);
        const unsigned li = lineIndexInPage(vaddr);
        Ppn ppn;
        SlotId sid = mc_->cache().findSlot(vpn);
        if (sid != kInvalidSlot) {
            const SspCacheEntry &e = mc_->cache().entry(sid);
            ppn = e.committed.test(li) ? e.ppn1 : e.ppn0;
            ssp_assert(e.current == e.committed,
                       "storeRaw during an open transaction");
        } else {
            ppn = machine_->pt().translate(vpn);
        }
        machine_->mem().write(lineAddr(ppn, li) + lineOffset(vaddr), in,
                              in_line);
        vaddr += in_line;
        in += in_line;
        size -= in_line;
    }
}

void
SspSystem::loadRaw(Addr vaddr, void *buf, std::uint64_t size)
{
    auto *out = static_cast<std::uint8_t *>(buf);
    while (size > 0) {
        const std::uint64_t in_line =
            std::min<std::uint64_t>(size, kLineSize - lineOffset(vaddr));
        const Vpn vpn = pageOf(vaddr);
        const unsigned li = lineIndexInPage(vaddr);
        Ppn ppn;
        SlotId sid = mc_->cache().findSlot(vpn);
        if (sid != kInvalidSlot) {
            const SspCacheEntry &e = mc_->cache().entry(sid);
            ppn = e.current.test(li) ? e.ppn1 : e.ppn0;
        } else {
            ppn = machine_->pt().translate(vpn);
        }
        machine_->mem().read(lineAddr(ppn, li) + lineOffset(vaddr), out,
                             in_line);
        vaddr += in_line;
        out += in_line;
        size -= in_line;
    }
}

Addr
SspSystem::committedLocation(Addr vaddr)
{
    const Vpn vpn = pageOf(vaddr);
    const unsigned li = lineIndexInPage(vaddr);
    SlotId sid = mc_->cache().findSlot(vpn);
    Ppn ppn;
    if (sid != kInvalidSlot) {
        const SspCacheEntry &e = mc_->cache().entry(sid);
        ppn = e.committed.test(li) ? e.ppn1 : e.ppn0;
    } else {
        ppn = machine_->pt().translate(vpn);
    }
    return lineAddr(ppn, li) + lineOffset(vaddr);
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

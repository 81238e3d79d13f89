#include "baselines/shadow_paging.hh"

#include <unordered_set>

#include "common/logging.hh"

namespace ssp
{

ShadowPagingBackend::ShadowPagingBackend(const SspConfig &cfg)
    : BaselineBase(cfg), shadow_(cfg.numCores),
      mapJournal_(machine_->bus(), cfg.logBase(), cfg.logBytes(),
                  WriteCategory::MetaJournal, LogMode::Streamed),
      pool_(cfg.shadowPoolBase(), cfg.shadowPoolPages)
{
}

Ppn
ShadowPagingBackend::activePpn(CoreId core, Vpn vpn)
{
    auto it = shadow_[core].find(vpn);
    if (it != shadow_[core].end())
        return it->second;
    return translate(core, vpn);
}

void
ShadowPagingBackend::load(CoreId core, Addr vaddr, void *buf,
                          std::uint64_t size)
{
    auto *out = static_cast<std::uint8_t *>(buf);
    Cycles &now = machine_->clock(core);
    while (size > 0) {
        const std::uint64_t in_line =
            std::min<std::uint64_t>(size, kLineSize - lineOffset(vaddr));
        const Ppn ppn = activePpn(core, pageOf(vaddr));
        const Addr loc =
            lineAddr(ppn, lineIndexInPage(vaddr)) + lineOffset(vaddr);
        now = machine_->caches().read(core, loc, now);
        now += Machine::kOpCost;
        machine_->mem().read(loc, out, in_line);
        machine_->conflicts().recordRead(core, vaddr);
        vaddr += in_line;
        out += in_line;
        size -= in_line;
    }
}

void
ShadowPagingBackend::store(CoreId core, Addr vaddr, const void *buf,
                           std::uint64_t size)
{
    const auto *in = static_cast<const std::uint8_t *>(buf);
    while (size > 0) {
        const std::uint64_t in_line =
            std::min<std::uint64_t>(size, kLineSize - lineOffset(vaddr));
        storeLine(core, vaddr, in, in_line);
        vaddr += in_line;
        in += in_line;
        size -= in_line;
    }
}

void
ShadowPagingBackend::storeLine(CoreId core, Addr vaddr, const void *buf,
                               std::uint64_t size)
{
    ssp_assert(tx_[core].inTx, "atomic store outside a transaction");
    ssp_assert(fitsInLine(vaddr, size));
    Cycles &now = machine_->clock(core);
    BaselineTxState &tx = tx_[core];
    const Vpn vpn = pageOf(vaddr);
    machine_->conflicts().recordWrite(core, vaddr);

    auto it = shadow_[core].find(vpn);
    if (it == shadow_[core].end()) {
        // Page-granularity CoW: copy all 64 lines into a fresh shadow
        // page.  The copies run through the cache on the critical path
        // (they must be read before the transaction can proceed).
        const Ppn src = translate(core, vpn);
        const Ppn dst = pool_.allocate();
        Cycles copied = now;
        for (unsigned li = 0; li < kLinesPerPage; ++li) {
            Cycles t = machine_->caches().read(core, lineAddr(src, li),
                                               now);
            machine_->mem().copyLine(lineAddr(dst, li), lineAddr(src, li));
            machine_->caches().write(core, lineAddr(dst, li), t);
            copied = std::max(copied, t);
        }
        now = copied;
        it = shadow_[core].emplace(vpn, dst).first;
        tx.pages.insert(vpn);
    }

    const Ppn ppn = it->second;
    const Addr loc = lineAddr(ppn, lineIndexInPage(vaddr));
    machine_->mem().write(loc + lineOffset(vaddr), buf, size);
    now = machine_->caches().write(core, loc, now);
    now += Machine::kOpCost;
    tx.lines.insert(lineBase(vaddr));
}

void
ShadowPagingBackend::commit(CoreId core)
{
    ssp_assert(tx_[core].inTx, "commit outside a transaction");
    Cycles &now = machine_->clock(core);
    BaselineTxState &tx = tx_[core];

    // Persist every line of every shadow page (the 64x write
    // amplification the paper cites), then the mapping records.
    Cycles flushed = now;
    for (const auto &[vpn, ppn] : shadow_[core]) {
        for (unsigned li = 0; li < kLinesPerPage; ++li) {
            Cycles t = machine_->caches().flushLine(
                core, lineAddr(ppn, li), WriteCategory::PageCopy, now);
            // Even lines that were never cached must reach NVRAM: the
            // copy loop made them dirty, but flush any stragglers too.
            flushed = std::max(flushed, t);
        }
    }

    for (const auto &[vpn, ppn] : shadow_[core]) {
        LogRecord rec;
        rec.kind = LogRecord::Kind::Map;
        rec.tid = tx.tid;
        rec.addr = vpn;
        rec.mapPpn = ppn;
        mapJournal_.append(rec, flushed);
    }
    LogRecord marker;
    marker.kind = LogRecord::Kind::Commit;
    marker.tid = tx.tid;
    mapJournal_.append(marker, flushed);
    now = mapJournal_.flush(flushed);

    // Apply the mapping switches; old pages return to the pool.
    for (const auto &[vpn, ppn] : shadow_[core]) {
        const Ppn old = machine_->pt().translate(vpn);
        machine_->pt().map(vpn, ppn);
        pool_.release(old);
        // The translation changed for every core, not only this one
        // (the shootdown's cycles are not modelled).
        for (CoreId c = 0; c < cfg().numCores; ++c)
            machine_->tlb(c).evict(vpn);
    }
    // Bound the mapping journal (a real system would checkpoint).
    mapJournal_.truncate();

    shadow_[core].clear();
    machine_->conflicts().commitTx(core, now, machine_->minClock());
    noteCommit(core);
    tx.clear();
}

void
ShadowPagingBackend::abort(CoreId core)
{
    ssp_assert(tx_[core].inTx, "abort outside a transaction");
    for (const auto &[vpn, ppn] : shadow_[core]) {
        for (unsigned li = 0; li < kLinesPerPage; ++li)
            machine_->caches().invalidateLine(lineAddr(ppn, li));
        pool_.release(ppn);
    }
    shadow_[core].clear();
    machine_->conflicts().abortTx(core);
    tx_[core].clear();
}

void
ShadowPagingBackend::onCrash()
{
    for (auto &s : shadow_)
        s.clear();
    mapJournal_.powerFail();
    // Shadow pages allocated by in-flight transactions leak back into
    // the pool on recovery (the pool is rebuilt from the page table).
}

void
ShadowPagingBackend::recover()
{
    auto records = mapJournal_.persistedRecords();
    std::unordered_set<TxId> committed;
    for (const auto &rec : records) {
        if (rec.kind == LogRecord::Kind::Commit)
            committed.insert(rec.tid);
    }
    for (const auto &rec : records) {
        if (rec.kind != LogRecord::Kind::Map ||
            !committed.contains(rec.tid)) {
            continue;
        }
        machine_->pt().map(rec.addr, rec.mapPpn);
    }
    mapJournal_.truncate();

    // Rebuild the pool: reserved-range pages plus retired heap pages —
    // everything below the pool end that the page table does not map.
    std::unordered_set<Ppn> mapped;
    machine_->pt().forEachEntry(
        [&](Vpn, Ppn ppn) { mapped.insert(ppn); });
    std::vector<Ppn> free_list;
    const Ppn end = cfg().shadowPoolBase() + cfg().shadowPoolPages;
    for (Ppn ppn = 0; ppn < end; ++ppn) {
        if (!mapped.contains(ppn))
            free_list.push_back(ppn);
    }
    pool_ = FreePagePool::fromList(cfg().shadowPoolBase(),
                                   cfg().shadowPoolPages, free_list);
}

std::uint64_t
ShadowPagingBackend::loggingWrites() const
{
    return machine_->bus().nvramWrites(WriteCategory::MetaJournal) +
           machine_->bus().nvramWrites(WriteCategory::PageCopy);
}

} // namespace ssp

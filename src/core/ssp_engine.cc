#include "core/ssp_engine.hh"

#include "core/backend.hh"

#include "common/logging.hh"

namespace ssp
{

namespace
{

/** Pages the per-core write-set buffer tracks (sections 4.2/4.3). */
constexpr unsigned kWriteSetEntries = 64;

} // namespace

SspEngine::SspEngine(CoreId core, Machine &machine, MemController &mc)
    : core_(core), machine_(machine), mc_(mc), writeSet_(kWriteSetEntries)
{
}

void
SspEngine::begin()
{
    ssp_assert(!inTx_, "nested failure-atomic sections are not supported");
    inTx_ = true;
    tid_ = mc_.beginTx();
    // ATOMIC_BEGIN acts as a full memory barrier.
    machine_.clock(core_) += Machine::kOpCost;
    machine_.conflicts().beginTx(core_, machine_.clock(core_));
}

Translation
SspEngine::translateMiss(Vpn vpn)
{
    Cycles &now = machine_.clock(core_);
    Tlb &tlb = machine_.tlb(core_);

    // Page walk, then fetch the SSP metadata (using the walked PPN0 as
    // index), then fill the TLB.
    tlb.countMiss();
    ++stats_.tlbMisses;
    now = machine_.pt().walk(now);
    Ppn walked = machine_.pt().translate(vpn);
    MetadataFetchResult fetched = mc_.fetchEntry(vpn, walked, now);
    now = fetched.doneAt;

    TlbEntry entry;
    entry.valid = true;
    entry.vpn = vpn;
    entry.ppn0 = fetched.ppn0;
    entry.ppn1 = fetched.ppn1;
    entry.slot = fetched.sid;
    if (auto displaced = tlb.insert(entry)) {
        if (displaced->slot != kInvalidSlot)
            mc_.tlbDeref(displaced->slot, now);
    }
    return Translation{fetched.sid, fetched.ppn0, fetched.ppn1};
}

Addr
SspEngine::currentLineAddr(const SspCacheEntry &e, const Translation &tr,
                           unsigned li) const
{
    const Ppn ppn = e.current.test(li) ? tr.ppn1 : tr.ppn0;
    return lineAddr(ppn, li);
}

void
SspEngine::load(Addr vaddr, void *buf, std::uint64_t size)
{
    Cycles &now = machine_.clock(core_);
    Translation tr = translate(pageOf(vaddr));
    const SspCacheEntry &e = mc_.cache().entry(tr.slot);
    const unsigned li = lineIndexInPage(vaddr);
    const Addr loc = currentLineAddr(e, tr, li);
    const Cycles t0 = now;
    now = machine_.caches().read(core_, loc, now);
    now += Machine::kOpCost;
    stats_.loadCycles += now - t0;
    machine_.mem().read(loc + lineOffset(vaddr), buf, size);
    machine_.conflicts().recordRead(core_, vaddr);
    ++stats_.loads;
}

void
SspEngine::atomicStore(Addr vaddr, const void *buf, std::uint64_t size)
{
    ssp_assert(inTx_, "ATOMIC_STORE outside a failure-atomic section");

    Cycles &now = machine_.clock(core_);
    const Cycles store_t0 = now;
    const Vpn vpn = pageOf(vaddr);
    const unsigned li = lineIndexInPage(vaddr);
    machine_.conflicts().recordWrite(core_, vaddr);

    Translation tr = translate(vpn);
    SspCacheEntry &e = mc_.cache().entry(tr.slot);

    WriteSetEntry *ws = writeSet_.find(vpn);
    const bool first_touch_of_page = (ws == nullptr);
    if (first_touch_of_page) {
        ws = writeSet_.insert(vpn, tr.slot);
        if (ws == nullptr) {
            ++stats_.overflows;
            // Bounded hardware is exhausted: the paper aborts and takes
            // the software fall-back.  Roll back and report.
            abort();
            throw TxOverflow("write-set buffer overflow");
        }
        mc_.coreRef(tr.slot);
    }

    if (!ws->updated.test(li)) {
        // First transactional write to this line (Figure 4):
        //  1) check the current bit, 2) fetch the committed copy into the
        //  cache, 3) re-tag it to the "other" page (line-level CoW without
        //  a data copy in NVRAM), 4) apply the store, 5) flip the current
        //  bit and broadcast.
        ++stats_.firstWrites;
        const bool cur = e.current.test(li);
        ssp_assert(cur == e.committed.test(li),
                   "line not in write set but current != committed");
        const Addr old_loc = lineAddr(cur ? tr.ppn1 : tr.ppn0, li);
        const Addr new_loc = lineAddr(cur ? tr.ppn0 : tr.ppn1, li);
        now = machine_.caches().read(core_, old_loc, now); // fetch
        machine_.mem().copyLine(new_loc, old_loc);         // in-cache CoW
        machine_.caches().remapLine(core_, old_loc, new_loc, now);
        // Peer copies of the remapped-away line are stale: they tag a
        // physical location whose committed data just moved.  The flip
        // broadcast shoots them down so they can never be written back
        // to — or re-read at — the old PPN.
        const CoreBitmap peer_mask =
            machine_.caches().invalidateLineRemote(core_, old_loc);
        // The copy must be dirty so commit writes the line to its new
        // location.
        machine_.caches().write(core_, new_loc, now);
        machine_.caches().setTxBit(core_, new_loc, true);
        mc_.flipCurrent(tr.slot, li);
        now = machine_.coherence().flipCurrentBit(core_, old_loc, peer_mask,
                                                  now);
        machine_.chargeShootdown(core_, old_loc, peer_mask);
        ws->updated.set(li);
    }

    const Addr loc = currentLineAddr(e, tr, li);
    machine_.mem().write(loc + lineOffset(vaddr), buf, size);
    now = machine_.caches().write(core_, loc, now);
    now += Machine::kOpCost;
    stats_.storeCycles += now - store_t0;
    ++stats_.atomicStores;
}

void
SspEngine::commit()
{
    ssp_assert(inTx_, "commit outside a failure-atomic section");
    Cycles &now = machine_.clock(core_);
    const Cycles commit_t0 = now;

    // Step 1 — data persistence: clwb every write-set line.  All flushes
    // issue at 'now'; the stall is the slowest completion (bank-level
    // parallelism).  Gather the locations first, then hand the whole
    // write set to the hierarchy in one batched call: the bus sees the
    // same write-backs in the same order as a per-line loop would issue.
    flushBatch_.clear();
    for (const auto &ws : writeSet_.entries()) {
        Translation tr{ws.slot, mc_.cache().entry(ws.slot).ppn0,
                       mc_.cache().entry(ws.slot).ppn1};
        const SspCacheEntry &e = mc_.cache().entry(ws.slot);
        for (unsigned li = 0; li < kLinesPerPage; ++li) {
            if (!ws.updated.test(li))
                continue;
            flushBatch_.push_back(currentLineAddr(e, tr, li));
        }
    }
    const Cycles flushed = machine_.caches().flushLines(
        core_, flushBatch_.data(), flushBatch_.size(), WriteCategory::Data,
        now);
    for (const Addr loc : flushBatch_)
        machine_.caches().setTxBit(core_, loc, false);

    // Step 2 — metadata updates: one metadata-update instruction per
    // modified page, ordered after data persistence.
    Cycles meta = flushed;
    for (const auto &ws : writeSet_.entries())
        meta = std::max(meta, mc_.metadataUpdate(tid_, ws.slot, ws.updated,
                                                 flushed));

    // Step 3 — commit marker + journal flush; the ack point.
    now = mc_.commitTx(tid_, meta);

    // Release per-page core references (the metadata update clears them
    // in hardware; we do it after the full commit sequence).
    for (const auto &ws : writeSet_.entries())
        mc_.coreDeref(ws.slot);

    stats_.commitCycles += now - commit_t0;
    ++stats_.commits;
    machine_.commitConflicts(core_, now);
    writeSet_.clear();
    inTx_ = false;
}

void
SspEngine::abort()
{
    ssp_assert(inTx_, "abort outside a failure-atomic section");
    Cycles &now = machine_.clock(core_);

    for (const auto &ws : writeSet_.entries()) {
        SspCacheEntry &e = mc_.cache().entry(ws.slot);
        for (unsigned li = 0; li < kLinesPerPage; ++li) {
            if (!ws.updated.test(li))
                continue;
            // Discard the speculative line and flip the current bit
            // back to the committed side.
            const Addr spec_loc =
                lineAddr(e.current.test(li) ? e.ppn1 : e.ppn0, li);
            machine_.caches().invalidateLine(spec_loc);
            mc_.flipCurrent(ws.slot, li);
            now = machine_.coherence().flipCurrentBit(core_, spec_loc,
                                                      CoreBitmap{}, now);
        }
        mc_.coreDeref(ws.slot);
    }
    ++stats_.aborts;
    machine_.conflicts().abortTx(core_);
    writeSet_.clear();
    inTx_ = false;
}

void
SspEngine::reset()
{
    machine_.conflicts().abortTx(core_);
    writeSet_.clear();
    inTx_ = false;
}

} // namespace ssp

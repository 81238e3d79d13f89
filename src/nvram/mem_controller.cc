#include "nvram/mem_controller.hh"

#include <algorithm>
#include <unordered_map>

#include "common/logging.hh"

namespace ssp
{

MemController::MemController(const MemControllerParams &params,
                             MemoryBus &bus, PageTable &pt)
    : params_(params), bus_(bus), pt_(pt),
      cache_(params.sspCacheSlots, params.latency),
      journal_(bus, params.journalBase, params.journalBytes,
               params.checkpointThresholdBytes),
      pool_(params.shadowPoolBase, params.shadowPoolPages),
      consolidator_(cache_, journal_, pt_, bus, pool_,
                    params.subPageLines),
      consolidateDoneAt_(params.sspCacheSlots, 0)
{
    if (params_.persistentCacheBytes == 0) {
        params_.persistentCacheBase = params_.journalBase;
        params_.persistentCacheBytes =
            std::max<std::uint64_t>(params_.journalBytes, kLineSize);
    }
}

MetadataFetchResult
MemController::fetchEntry(Vpn vpn, Ppn ppn0, Cycles now)
{
    MetadataFetchResult res;
    SlotId sid = cache_.findSlot(vpn);
    if (sid != kInvalidSlot && pendingSet_.contains(sid)) {
        // The page became active again before the background thread got
        // to it: cancel the pending consolidation (the lazy policy's
        // batching win).
        pendingSet_.erase(sid);
        std::erase(pending_, sid);
        ++canceledConsolidations_;
    }
    if (sid == kInvalidSlot) {
        if (params_.lazyConsolidation &&
            pool_.available() < params_.lazyLowWatermark) {
            drainPending(now, false);
        }
        SspCacheEntry displaced;
        sid = cache_.allocateSlot(vpn, &displaced);
        if (displaced.valid) {
            // Journal the eviction.  The page must not hold other data
            // until the record (and the consolidation records before
            // it) are durable — it sits in quarantine until the journal
            // watermark passes, so no forced flush is needed here.
            JournalRecord free_rec;
            free_rec.kind = JournalKind::Free;
            free_rec.tid = 0;
            free_rec.sid = sid;
            free_rec.vpn = displaced.vpn;
            free_rec.ppn0 = displaced.ppn0;
            free_rec.ppn1 = displaced.ppn1;
            journal_.append(free_rec, now);
            quarantine_.emplace_back(displaced.ppn1,
                                     journal_.appendedBytes());
        }
        if (sid >= consolidateDoneAt_.size())
            consolidateDoneAt_.resize(sid + 1, 0);
        reclaimQuarantine(now);
        SspCacheEntry &e = cache_.entry(sid);
        e.ppn0 = ppn0;
        e.ppn1 = pool_.allocate();
        e.committed = Bitmap64{};
        e.current = Bitmap64{};
    } else {
        // An existing entry is authoritative; the page table may lag a
        // consolidation's mapping change, but fetch always returns the
        // slot's view.
    }
    SspCacheEntry &e = cache_.entry(sid);
    ssp_assert(e.valid);
    e.tlbRefCount++;
    res.sid = sid;
    res.ppn0 = e.ppn0;
    res.ppn1 = e.ppn1;
    // A page whose consolidation copies are still draining is served
    // "with minimal delay" (section 4.1.2): the metadata switch is
    // instantaneous and in-flight lines are served from the controller's
    // buffers, so the fill does not wait for the array writes.
    res.doneAt = cache_.access(sid, now);
    return res;
}

void
MemController::tlbDeref(SlotId sid, Cycles now)
{
    SspCacheEntry &e = cache_.entry(sid);
    ssp_assert(e.valid, "tlbDeref on invalid slot");
    ssp_assert(e.tlbRefCount > 0, "tlbRefCount underflow");
    e.tlbRefCount--;
    if (e.tlbRefCount == 0)
        maybeConsolidate(sid, now);
}

void
MemController::maybeConsolidate(SlotId sid, Cycles now)
{
    SspCacheEntry &e = cache_.entry(sid);
    // A page written by an in-flight transaction (non-zero core
    // reference count) is not eligible (section 4.2).
    if (e.coreRefCount != 0 || e.tlbRefCount != 0)
        return;
    if (params_.lazyConsolidation) {
        // Defer: queue the page; it is consolidated only when the pool
        // runs low — and canceled for free if it becomes active first.
        if (pendingSet_.insert(sid).second)
            pending_.push_back(sid);
        if (pool_.available() < params_.lazyLowWatermark)
            drainPending(now, false);
        return;
    }
    consolidateNow(sid, now);
}

void
MemController::consolidateNow(SlotId sid, Cycles now)
{
    auto res = consolidator_.consolidate(sid, now);
    consolidateDoneAt_[sid] = res.doneAt;
    if (params_.wearRotatePeriod != 0 &&
        consolidator_.consolidations() % params_.wearRotatePeriod == 0) {
        // Swap the now-idle shadow page for a fresh pool page.  The
        // mapping change is journaled like a consolidation so recovery
        // sees a consistent PPN1.
        SspCacheEntry &e = cache_.entry(sid);
        const Ppn fresh = pool_.exchange(e.ppn1);
        if (fresh != e.ppn1) {
            e.ppn1 = fresh;
            ++wearRotations_;
            JournalRecord rec;
            rec.kind = JournalKind::Consolidate;
            rec.tid = 0;
            rec.sid = sid;
            rec.vpn = e.vpn;
            rec.ppn0 = e.ppn0;
            rec.ppn1 = e.ppn1;
            rec.committed = e.committed;
            journal_.append(rec, now);
        }
    }
}

void
MemController::reclaimQuarantine(Cycles now)
{
    auto ripe = [this](const std::pair<Ppn, std::uint64_t> &q) {
        return q.second <= journal_.persistedBytes();
    };
    if (pool_.available() == 0 && !quarantine_.empty() &&
        !ripe(quarantine_.front())) {
        // Rare: the pool is dry and the oldest quarantined page's Free
        // record has not streamed out yet — force the flush.
        journal_.flush(now);
    }
    while (!quarantine_.empty() && ripe(quarantine_.front())) {
        pool_.release(quarantine_.front().first);
        quarantine_.pop_front();
    }
}

void
MemController::drainPending(Cycles now, bool all)
{
    while (!pending_.empty() &&
           (all || pool_.available() < params_.lazyLowWatermark)) {
        SlotId sid = pending_.front();
        pending_.pop_front();
        pendingSet_.erase(sid);
        SspCacheEntry &e = cache_.entry(sid);
        if (!e.valid || e.tlbRefCount != 0 || e.coreRefCount != 0) {
            // Became active (or died) while queued: nothing to do.
            ++canceledConsolidations_;
            continue;
        }
        if (e.committed.none()) {
            ++canceledConsolidations_;
            continue; // already consolidated
        }
        consolidateNow(sid, now);
    }
}

void
MemController::coreRef(SlotId sid)
{
    SspCacheEntry &e = cache_.entry(sid);
    ssp_assert(e.valid);
    e.coreRefCount++;
}

void
MemController::coreDeref(SlotId sid)
{
    SspCacheEntry &e = cache_.entry(sid);
    ssp_assert(e.valid);
    ssp_assert(e.coreRefCount > 0, "coreRefCount underflow");
    e.coreRefCount--;
    if (e.coreRefCount == 0 && e.tlbRefCount == 0)
        maybeConsolidate(sid, 0);
}

void
MemController::flipCurrent(SlotId sid, unsigned line_idx)
{
    SspCacheEntry &e = cache_.entry(sid);
    ssp_assert(e.valid);
    ssp_assert(line_idx < kLinesPerPage);
    e.current.flip(line_idx);
}

Cycles
MemController::metadataUpdate(TxId tid, SlotId sid, Bitmap64 updated,
                              Cycles now)
{
    ++metadataUpdates_;
    SspCacheEntry &e = cache_.entry(sid);
    ssp_assert(e.valid);

    JournalRecord rec;
    rec.kind = JournalKind::Update;
    rec.tid = tid;
    rec.sid = sid;
    rec.vpn = e.vpn;
    rec.ppn0 = e.ppn0;
    rec.ppn1 = e.ppn1;
    rec.committed = e.committed ^ updated;
    journal_.append(rec, now);

    // Apply to the transient entry.  This is safe before the commit
    // marker persists because checkpoints only run at commit boundaries,
    // and recovery replays from persistent state + committed journal
    // records only.
    e.committed ^= updated;
    return cache_.access(sid, now);
}

Cycles
MemController::commitTx(TxId tid, Cycles now)
{
    JournalRecord rec;
    rec.kind = JournalKind::Commit;
    rec.tid = tid;
    journal_.append(rec, now);
    Cycles done = journal_.flush(now);
    if (journal_.needsCheckpoint())
        checkpoint(done);
    return done;
}

Cycles
MemController::accessSlot(SlotId sid, Cycles now)
{
    return cache_.access(sid, now);
}

void
MemController::checkpoint(Cycles now)
{
    ++checkpoints_;
    // Capture the final state of every slot the journal touched.
    std::unordered_set<SlotId> touched;
    for (const auto &rec : journal_.allRecords()) {
        if (rec.kind != JournalKind::Commit)
            touched.insert(rec.sid);
    }
    for (SlotId sid : touched) {
        const SspCacheEntry &e = cache_.entry(sid);
        PersistentSlot &p = cache_.persistentSlot(sid);
        if (!e.valid) {
            p.valid = false;
            continue;
        }
        p.valid = true;
        p.vpn = e.vpn;
        p.ppn0 = e.ppn0;
        p.ppn1 = e.ppn1;
        p.committed = e.committed;
        // One persistent-slot line write per captured entry; the
        // checkpointing thread runs in the background, so this only
        // bills bandwidth — it occupies no bank, channel, or bus slot.
        // Each slot still addresses its own line of the persistent-
        // cache area (rather than one shared line) so the traffic maps
        // onto the real bank/channel layout if checkpointing is ever
        // made contending.
        const Addr slot_line =
            params_.persistentCacheBase +
            (static_cast<Addr>(sid) * kLineSize) %
                params_.persistentCacheBytes;
        bus_.issueWrite(slot_line, WriteCategory::Checkpoint, now, true);
    }
    journal_.truncate();
    // The checkpoint made every journal record durable, so all
    // quarantined shadow pages are safe to reuse.
    while (!quarantine_.empty()) {
        pool_.release(quarantine_.front().first);
        quarantine_.pop_front();
    }
}

void
MemController::powerFail()
{
    cache_.powerFail();
    journal_.powerFail();
    consolidateDoneAt_.assign(consolidateDoneAt_.size(), 0);
    pending_.clear();
    pendingSet_.clear();
    quarantine_.clear();
}

void
MemController::recover()
{
    // 1. Reload transient entries from the persistent cache.
    for (SlotId sid = 0;
         sid < static_cast<SlotId>(cache_.persistentSlots().size());
         ++sid) {
        if (cache_.persistentSlots()[sid].valid)
            cache_.reloadFromPersistent(sid);
    }

    // 2. Replay the journal: first find committed TIDs, then apply
    // records in order, skipping updates of uncommitted transactions.
    auto records = journal_.persistedRecords();
    std::unordered_set<TxId> committed_tids;
    for (const auto &rec : records) {
        if (rec.kind == JournalKind::Commit)
            committed_tids.insert(rec.tid);
    }
    for (const auto &rec : records) {
        if (rec.kind == JournalKind::Commit)
            continue;
        if (rec.kind == JournalKind::Update &&
            !committed_tids.contains(rec.tid)) {
            continue; // aborted / in-flight transaction: skip
        }
        if (rec.kind == JournalKind::Free) {
            // The slot left the SSP cache before the crash; its shadow
            // page belongs to whoever the later records assign it to.
            SlotId freed = cache_.findSlot(rec.vpn);
            if (freed != kInvalidSlot) {
                cache_.persistentSlot(freed).valid = false;
                cache_.freeSlot(freed);
            }
            continue;
        }
        SlotId sid = cache_.findSlot(rec.vpn);
        if (sid == kInvalidSlot) {
            // The slot never made it into a checkpoint; the journal
            // record is its only durable trace.
            sid = cache_.allocateSlot(rec.vpn);
            if (sid >= consolidateDoneAt_.size())
                consolidateDoneAt_.resize(sid + 1, 0);
        }
        SspCacheEntry &e = cache_.entry(sid);
        e.ppn0 = rec.ppn0;
        e.ppn1 = rec.ppn1;
        e.committed = rec.committed;
        e.current = rec.committed;
        e.tlbRefCount = 0;
        e.coreRefCount = 0;
        e.consolidating = false;
    }

    // 3. current := committed is enforced by reload/replay above.
    //    Fix the OS page table for every live slot and mark the pages
    //    in use: those owned by live slots and those mapped.  Pages at or
    //    above the end of the reserved range are never pool candidates.
    const std::vector<SlotId> live_slots = cache_.validSlots();
    const Ppn universe_end = params_.shadowPoolBase + params_.shadowPoolPages;
    std::vector<std::uint8_t> used(universe_end, 0);
    auto mark_used = [&](Ppn ppn) {
        if (ppn < universe_end)
            used[ppn] = 1;
    };
    for (SlotId sid : live_slots) {
        const SspCacheEntry &e = cache_.entry(sid);
        pt_.map(e.vpn, e.ppn0);
        mark_used(e.ppn0);
        mark_used(e.ppn1);
    }
    pt_.forEachEntry([&](Vpn, Ppn ppn) { mark_used(ppn); });

    // 4. Rebuild the pool.  Consolidation swaps migrate pages between
    //    heap duty and shadow duty, so the free set is every page below
    //    the end of the reserved range that is neither page-table-mapped
    //    nor owned by a live slot, in ascending order.
    std::vector<Ppn> free_list;
    for (Ppn ppn = 0; ppn < universe_end; ++ppn) {
        if (used[ppn] == 0)
            free_list.push_back(ppn);
    }
    pool_ = FreePagePool::fromList(params_.shadowPoolBase,
                                   params_.shadowPoolPages, free_list);

    // 5. Checkpoint immediately so the persistent cache reflects the
    //    recovered state and the journal restarts empty.
    //    (Recovery-time writes are not part of any measured run.)
    std::vector<std::uint8_t> live(cache_.persistentSlots().size(), 0);
    for (SlotId sid : live_slots) {
        const SspCacheEntry &e = cache_.entry(sid);
        PersistentSlot &p = cache_.persistentSlot(sid);
        p.valid = true;
        p.vpn = e.vpn;
        p.ppn0 = e.ppn0;
        p.ppn1 = e.ppn1;
        p.committed = e.committed;
        live[sid] = 1;
    }
    for (SlotId sid = 0; sid < static_cast<SlotId>(live.size()); ++sid) {
        if (live[sid] == 0)
            cache_.persistentSlot(sid).valid = false;
    }
    journal_.truncate();
}

} // namespace ssp

#include "cache/hierarchy.hh"

#include <algorithm>
#include <bit>
#include <unordered_set>

#include "common/logging.hh"

namespace ssp
{

CacheHierarchy::CacheHierarchy(unsigned num_cores,
                               const HierarchyParams &params, MemoryBus &bus)
    : params_(params), bus_(bus)
{
    ssp_assert(num_cores > 0);
    ssp_assert(num_cores <= kMaxCores,
               "sharer bitmaps hold at most %u cores", kMaxCores);
    for (unsigned i = 0; i < num_cores; ++i) {
        l1s_.push_back(std::make_unique<Cache>(params.l1));
        l2s_.push_back(std::make_unique<Cache>(params.l2));
    }
    // A one-core machine has no peer to look up; unless a listener
    // attaches later, its fills stay hash-free.
    indexed_ = num_cores > 1;
    if (indexed_)
        linkSharerIndex(&sharers_);
    l3_ = std::make_unique<Cache>(params.l3);
}

void
CacheHierarchy::linkSharerIndex(SharerIndex *index)
{
    for (CoreId c = 0; c < numCores(); ++c) {
        l1s_[c]->attachSharerIndex(index, c, SharerIndex::kL1);
        l2s_[c]->attachSharerIndex(index, c, SharerIndex::kL2);
    }
}

void
CacheHierarchy::attachCoherence(CoherenceModel *model)
{
    coherence_ = model;
    maintenance_ = nullptr;
    peerInvalidation_ = model != nullptr && numCores() > 1;
    if (model == nullptr)
        return;
    if (SharerListener *listener = model->sharerListener()) {
        if (!indexed_) {
            ssp_assert_dbg(l1s_[0]->validLines() == 0 &&
                               l2s_[0]->validLines() == 0,
                           "the sharer index must link before any fill");
            indexed_ = true;
            linkSharerIndex(&sharers_);
        }
        sharers_.attachListener(listener);
    }
    if (model->needsMaintenance())
        maintenance_ = model;
}

void
CacheHierarchy::handleVictim(CoreId core, unsigned level,
                             const CacheAccessResult &res, Cycles now)
{
    if (!res.writeback)
        return;
    if (level == 0) {
        // L1 victim falls into L2.
        auto r2 = l2s_[core]->insert(res.victimAddr, true, res.victimTx);
        handleVictim(core, 1, r2, now);
    } else if (level == 1) {
        // L2 victim falls into L3.
        auto r3 = l3_->insert(res.victimAddr, true, res.victimTx);
        handleVictim(core, 2, r3, now);
    } else {
        // L3 victim goes to memory.  Background bandwidth: occupies a
        // bank but nobody stalls on it.  The victim's TX bit picks the
        // Figure 6/7 category: a speculative (pre-commit) line is not
        // committed transactional data — if its transaction aborts the
        // write was wasted — so it must not inflate the Data series.
        const WriteCategory cat =
            res.victimTx ? WriteCategory::Other : WriteCategory::Data;
        bus_.issueWrite(res.victimAddr, cat, now, true);
    }
}

Cycles
CacheHierarchy::fillBelowL1(CoreId core, Addr line, Cycles now, Cycles done)
{
    ssp_assert_dbg(!setup_ || core == 0, "setup runs on core 0 alone");
    Cache &l2 = *l2s_[core];
    auto r2 = l2.access(line, false);
    done += l2.latency();
    handleVictim(core, 1, r2, now);
    if (r2.hit)
        return done;

    auto r3 = l3_->access(line, false);
    done += l3_->latency();
    handleVictim(core, 2, r3, now);
    if (r3.hit)
        return done;

    return bus_.issueRead(line, done);
}

Cycles
CacheHierarchy::readMiss(CoreId core, Addr line, Cycles now)
{
    Cache &l1 = *l1s_[core];
    handleVictim(core, 0, l1.fillMiss(line, false), now);
    const Cycles done = fillBelowL1(core, line, now, now + l1.latency());
    drainMaintenance(done);
    return done;
}

Cycles
CacheHierarchy::writeMiss(CoreId core, Addr line, Cycles now)
{
    Cache &l1 = *l1s_[core];
    handleVictim(core, 0, l1.fillMiss(line, true), now);
    // Write-allocate: fetch through the lower levels.
    Cycles done = fillBelowL1(core, line, now, now + l1.latency());
    if (peerInvalidation_)
        done = invalidatePeersOnWrite(core, line, done);
    drainMaintenance(done);
    return done;
}

Cycles
CacheHierarchy::invalidatePeersOnWrite(CoreId core, Addr line, Cycles done)
{
    // Peer copies are clean (only the lock holder dirties a page
    // mid-transaction and commit cleans its lines), so dropping
    // without write-back loses nothing.  The sharer index gives the
    // exact peer set, so only actual holders are probed.
    CoreBitmap peers = sharers_.sharers(line);
    peers.reset(core);
    if (peers.none())
        return done;
    peers.forEachSet([&](CoreId c) {
        const bool in_l1 = l1s_[c]->invalidate(line);
        const bool in_l2 = l2s_[c]->invalidate(line);
        ssp_assert_dbg(in_l1 || in_l2, "sharer index out of sync");
        coherence_->deliverInvalidation(c);
    });
    return coherence_->invalidate(core, line, peers, done);
}

Cycles
CacheHierarchy::flushLine(CoreId core, Addr addr, WriteCategory cat,
                          Cycles now, bool background)
{
    const Addr line = lineBase(addr);
    // One probe per level; every level is cleaned, so no short circuit.
    const bool in_l1 = l1s_[core]->cleanIfDirty(line);
    const bool in_l2 = l2s_[core]->cleanIfDirty(line);
    const bool in_l3 = l3_->cleanIfDirty(line);
    const bool dirty = in_l1 || in_l2 || in_l3;
    // A line dirty in a *different* core's private caches belongs to that
    // core's ongoing transaction; locking at the workload level prevents
    // cross-core flushes of speculative data.
    if (!dirty)
        return now;
    return bus_.issueWrite(line, cat, now, background);
}

Cycles
CacheHierarchy::flushLines(CoreId core, const Addr *lines, std::size_t count,
                           WriteCategory cat, Cycles now)
{
    Cycles done = now;
    for (std::size_t i = 0; i < count; ++i)
        done = std::max(done, flushLine(core, lines[i], cat, now));
    return done;
}

void
CacheHierarchy::invalidateLine(Addr addr)
{
    const Addr line = lineBase(addr);
    if (setup_ || !indexed_) {
        // Idle peers hold nothing (beginSetup) and the index may be
        // detached; an unindexed machine has core 0 alone.
        l1s_[0]->invalidate(line);
        l2s_[0]->invalidate(line);
    } else {
        sharers_.sharers(line).forEachSet([&](CoreId c) {
            l1s_[c]->invalidate(line);
            l2s_[c]->invalidate(line);
        });
    }
    l3_->invalidate(line);
}

CoreBitmap
CacheHierarchy::invalidateLineRemote(CoreId sender, Addr addr)
{
    // A setup phase runs on core 0 while every peer cache is empty.
    if (numCores() <= 1 || setup_)
        return CoreBitmap{};
    const Addr line = lineBase(addr);
    CoreBitmap peers = sharers_.sharers(line);
    peers.reset(sender);
    peers.forEachSet([&](CoreId c) {
        const bool in_l1 = l1s_[c]->invalidate(line);
        const bool in_l2 = l2s_[c]->invalidate(line);
        ssp_assert_dbg(in_l1 || in_l2, "sharer index out of sync");
    });
    return peers;
}

CoreBitmap
CacheHierarchy::backInvalidateLine(Addr addr, Cycles now)
{
    const Addr line = lineBase(addr);
    ssp_assert_dbg(indexed_,
                   "back-invalidation needs the sharer index");
    const CoreBitmap dropped = sharers_.sharers(line);
    dropped.forEachSet([&](CoreId c) {
        // A dirty private copy falls into the shared L3 like a normal
        // victim (displacing an L3 victim to memory if needed); clean
        // copies just vanish.  Only one core can hold the line dirty —
        // it is the lock holder's speculative or just-written data.
        const bool dirty =
            l1s_[c]->isDirty(line) || l2s_[c]->isDirty(line);
        const bool tx = l1s_[c]->txBit(line);
        l1s_[c]->invalidate(line);
        l2s_[c]->invalidate(line);
        if (dirty) {
            auto r3 = l3_->insert(line, true, tx);
            handleVictim(c, 2, r3, now);
        }
    });
    return dropped;
}

void
CacheHierarchy::remapLine(CoreId core, Addr old_addr, Addr new_addr,
                          Cycles now)
{
    const Addr old_line = lineBase(old_addr);
    const Addr new_line = lineBase(new_addr);
    auto r1 = l1s_[core]->remap(old_line, new_line);
    handleVictim(core, 0, r1, now);
    auto r2 = l2s_[core]->remap(old_line, new_line);
    handleVictim(core, 1, r2, now);
    auto r3 = l3_->remap(old_line, new_line);
    handleVictim(core, 2, r3, now);
    drainMaintenance(now);
    // Copies of the committed line in other cores' private caches are
    // now tagged with a remapped-away address; the caller shoots them
    // down via invalidateLineRemote() as part of the flip-current-bit
    // broadcast.
}

void
CacheHierarchy::setTxBit(CoreId core, Addr addr, bool tx)
{
    l1s_[core]->setTxBit(lineBase(addr), tx);
}

bool
CacheHierarchy::txBitSet(CoreId core, Addr addr) const
{
    return l1s_[core]->txBit(lineBase(addr));
}

bool
CacheHierarchy::isCached(CoreId core, Addr addr) const
{
    const Addr line = lineBase(addr);
    return l1s_[core]->probe(line) || l2s_[core]->probe(line) ||
           l3_->probe(line);
}

bool
CacheHierarchy::isDirty(CoreId core, Addr addr) const
{
    const Addr line = lineBase(addr);
    return l1s_[core]->isDirty(line) || l2s_[core]->isDirty(line) ||
           l3_->isDirty(line);
}

void
CacheHierarchy::invalidateAll()
{
    for (auto &l1 : l1s_)
        l1->invalidateAll();
    for (auto &l2 : l2s_)
        l2->invalidateAll();
    l3_->invalidateAll();
    ssp_assert_dbg(!indexed_ || sharers_.trackedLines() == 0,
                   "sharer index must drain with the caches");
}

void
CacheHierarchy::beginSetup()
{
    ssp_assert(!setup_, "setup phases do not nest");
    ssp_assert_dbg(peersIdle(), "a setup phase needs idle peer caches");
    setup_ = true;
    peerInvalidation_ = false;
    if (indexed_ && !sharers_.listened()) {
        linkSharerIndex(nullptr);
        indexDetached_ = true;
    }
}

void
CacheHierarchy::endSetup()
{
    ssp_assert(setup_, "no setup phase to close");
    setup_ = false;
    peerInvalidation_ = coherence_ != nullptr && numCores() > 1;
    if (indexDetached_) {
        // Only core 0 filled anything, and idle peers walk empty
        // filled-set bitmaps: their tag arrays stay untouched.
        sharers_.clear();
        linkSharerIndex(&sharers_);
        for (CoreId c = 0; c < numCores(); ++c) {
            l1s_[c]->forEachLine([&](Addr line) {
                sharers_.add(c, SharerIndex::kL1, line);
            });
            l2s_[c]->forEachLine([&](Addr line) {
                sharers_.add(c, SharerIndex::kL2, line);
            });
        }
        indexDetached_ = false;
    }
    ssp_assert_dbg(!indexed_ || sharerIndexExact(),
                   "sharer index diverged from the caches over setup");
}

bool
CacheHierarchy::peersIdle() const
{
    bool held = false;
    for (CoreId c = 1; c < numCores(); ++c) {
        l1s_[c]->forEachLine([&](Addr) { held = true; });
        l2s_[c]->forEachLine([&](Addr) { held = true; });
    }
    return !held;
}

bool
CacheHierarchy::sharerIndexExact() const
{
    std::unordered_set<Addr> held;
    bool exact = true;
    auto check = [&](Addr line) {
        if (!held.insert(line).second)
            return;
        CoreBitmap probed;
        for (CoreId c = 0; c < numCores(); ++c) {
            if (l1s_[c]->probe(line) || l2s_[c]->probe(line))
                probed.set(c);
        }
        exact = exact && probed == sharers_.sharers(line);
    };
    for (CoreId c = 0; c < numCores(); ++c) {
        l1s_[c]->forEachLine(check);
        l2s_[c]->forEachLine(check);
    }
    return exact && held.size() == sharers_.trackedLines();
}

} // namespace ssp

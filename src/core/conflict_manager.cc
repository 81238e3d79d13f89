#include "core/conflict_manager.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"

namespace ssp
{

namespace
{
/** The posting index's first capacity, in slots. */
constexpr std::size_t kFirstIndexSlots = 64;
} // namespace

ConflictManager::ConflictManager(unsigned num_cores)
    : detects_(num_cores > 1), enabled_(detects_), tx_(num_cores)
{
    resizeIndex(kFirstIndexSlots);
}

void
ConflictManager::beginSetup()
{
    ssp_assert(openTxs_ == 0, "setup phase opened inside a transaction");
    enabled_ = false;
}

void
ConflictManager::endSetup(Cycles horizon)
{
    enabled_ = detects_;
    beginFloor_ = horizon + 1;
}

void
ConflictManager::beginTx(CoreId core, Cycles now)
{
    if (!enabled_)
        return;
    ssp_assert(now >= beginFloor_,
               "core %u begins a transaction at cycle %llu, at or below "
               "the setup horizon %llu: run a clock barrier after setup",
               core, static_cast<unsigned long long>(now),
               static_cast<unsigned long long>(beginFloor_ - 1));
    TxState &tx = tx_[core];
    ssp_assert(!tx.active, "conflict tracking already open on this core");
    tx.active = true;
    ++openTxs_;
    tx.beginCycle = now;
    tx.validated = false;
    tx.reads.clear();
    tx.writes.clear();
}

bool
ConflictManager::validate(CoreId core, Cycles now)
{
    if (!enabled_)
        return true;
    TxState &tx = tx_[core];
    ssp_assert(tx.active, "commit validation without an open transaction");

    // Only peer commits inside this transaction's (begin, now] window
    // conflict: a record at or before the begin point was visible when
    // the transaction started, and one stamped after `now` belongs to
    // a transaction this (earlier) committer should have beaten.  The
    // latter case is the one-sided approximation of sequential
    // round-robin simulation: the later-stamped peer has already
    // committed irrevocably in simulation order, so neither side
    // aborts, and symmetric contention undercounts conflicts where the
    // earlier-simulated core had the longer transaction.  Detecting it
    // here would punish the rightful winner; a two-pass round
    // (speculate, order by commit point, re-run losers) is the
    // faithful fix.
    //
    // The check itself runs over the inverted index: for each line of
    // the transaction's footprint, find that line's in-window postings
    // and keep the earliest (lowest-seq) record among them — exactly
    // the record the old front-to-back scan over log_ would have
    // stopped at.  Postings of already-pruned records fail the window
    // test (their commit point is at or below the prune floor, which
    // no live begin point is under), so they are filtered, not
    // consulted.
    std::uint64_t best_ww = ~std::uint64_t{0};
    std::uint64_t best_rw = ~std::uint64_t{0};
    auto cycle_less = [](Cycles c, const Posting &p) {
        return c < p.commitCycle;
    };
    auto earliest_hit = [&](Addr line, std::uint64_t &best) {
        const std::vector<Posting> *list = findPostings(line);
        if (list == nullptr)
            return;
        // The list is cycle-sorted, so the (begin, now] window is a
        // binary-searched range — empty for the common conflict-free
        // line, without walking a single out-of-window posting.
        const std::vector<Posting> &vec = *list;
        auto lo = std::upper_bound(vec.begin(), vec.end(),
                                   tx.beginCycle, cycle_less);
        auto hi = std::upper_bound(lo, vec.end(), now, cycle_less);
        for (; lo != hi; ++lo) {
            if (lo->core != core)
                best = std::min(best, lo->seq);
        }
    };
    for (Addr line : tx.writes)
        earliest_hit(line, best_ww);
    // A line the read record holds twice is looked up twice; the
    // minimum makes the repeat harmless.
    for (Addr line : tx.reads)
        earliest_hit(line, best_rw);
    if (best_ww != ~std::uint64_t{0} || best_rw != ~std::uint64_t{0}) {
        // Within one record the scan tested write-write before
        // read-write, so a tie classifies as write-write.
        if (best_ww <= best_rw)
            ++stats_.writeWriteConflicts;
        else
            ++stats_.readWriteConflicts;
        return false;
    }
    tx.validated = true;
    tx.validatedAt = now;
    return true;
}

void
ConflictManager::commitTx(CoreId core, Cycles now, Cycles min_core_clock)
{
    if (!enabled_)
        return;
    TxState &tx = tx_[core];
    ssp_assert(tx.active, "conflict-tracking commit without a begin");

    const Cycles commit_cycle = tx.validated ? tx.validatedAt : now;
    std::swap(publishing_, tx.writes);
    const LineSet &writes = publishing_;
    closeTx(tx);

    // Prune: a future transaction on any core begins no earlier than
    // that core's current clock, and an already-open one no earlier
    // than its begin point — records at or below both floors can never
    // fall inside a validation window again.
    Cycles floor = min_core_clock;
    if (openTxs_ > 0) {
        for (const TxState &t : tx_) {
            if (t.active)
                floor = std::min(floor, t.beginCycle);
        }
    }
    while (!log_.empty() && log_.front() <= floor)
        log_.pop_front();
    // The log drains completely at every round boundary (the barrier
    // advances the floor past the previous round's commit points), so
    // this is where the posting index resets instead of growing
    // without bound.  The reset keeps the table and the pooled lists,
    // so the per-round rebuild neither rehashes nor allocates.
    if (log_.empty())
        clearIndex();

    // Publish.  A record already at or below the floor is unreachable
    // by any future window; the pre-index code path reached the same
    // end state by pushing it and immediately pruning it.
    if (!writes.empty() && !(log_.empty() && commit_cycle <= floor)) {
        const std::uint64_t seq = nextSeq_++;
        for (Addr line : writes) {
            std::vector<Posting> &vec = postingsFor(line);
            // Keep each line's postings sorted by commit point so
            // validation can binary-search its window.  Commit points
            // interleave across cores mid-round, so this is a real
            // sorted insert, not an append.
            auto at = std::upper_bound(
                vec.begin(), vec.end(), commit_cycle,
                [](Cycles c, const Posting &p) {
                    return c < p.commitCycle;
                });
            vec.insert(at, Posting{commit_cycle, seq, core});
        }
        log_.push_back(commit_cycle);
    }
}

void
ConflictManager::abortTx(CoreId core)
{
    if (!enabled_)
        return;
    closeTx(tx_[core]);
}

void
ConflictManager::closeTx(TxState &tx)
{
    if (tx.active)
        --openTxs_;
    tx.active = false;
    tx.validated = false;
    tx.reads.clear();
    tx.writes.clear();
}

Cycles
ConflictManager::retryPenalty(CoreId core, unsigned attempt)
{
    ssp_assert(enabled_, "retry penalty without conflict detection");
    ssp_assert(attempt >= 1);
    (void)core;
    const unsigned doublings =
        std::min(attempt - 1, kBackoffCapDoublings);
    const Cycles backoff = kBackoffBase << doublings;
    ++stats_.aborts;
    ++stats_.retries;
    stats_.backoffCycles += backoff;
    return kAbortPenalty + backoff;
}

void
ConflictManager::reset()
{
    for (auto &tx : tx_)
        closeTx(tx);
    log_.clear();
    clearIndex();
}

const std::vector<ConflictManager::Posting> *
ConflictManager::findPostings(Addr line) const
{
    // The load factor stays at or below one half, so a probe always
    // reaches a stale slot.
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = slotOf(line);; i = (i + 1) & mask) {
        const Slot &s = slots_[i];
        if (s.gen != gen_)
            return nullptr;
        if (s.line == line)
            return &lists_[s.list];
    }
}

std::vector<ConflictManager::Posting> &
ConflictManager::postingsFor(Addr line)
{
    if (2 * (std::size_t{live_} + 1) > slots_.size())
        resizeIndex(2 * slots_.size());
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = slotOf(line);
    for (; slots_[i].gen == gen_; i = (i + 1) & mask) {
        if (slots_[i].line == line)
            return lists_[slots_[i].list];
    }
    // A new line takes the next pooled list; one left over from an
    // earlier generation is emptied, keeping its capacity.
    slots_[i] = Slot{line, gen_, live_};
    if (live_ == lists_.size())
        lists_.emplace_back();
    else
        lists_[live_].clear();
    return lists_[live_++];
}

void
ConflictManager::resizeIndex(std::size_t slots)
{
    std::vector<Slot> old(slots);
    old.swap(slots_);
    shift_ = std::countl_zero(slots) + 1;
    // Only live slots move; the new table starts all stale (gen 0,
    // below every generation).
    const std::size_t mask = slots_.size() - 1;
    for (const Slot &s : old) {
        if (s.gen != gen_)
            continue;
        std::size_t i = slotOf(s.line);
        while (slots_[i].gen == gen_)
            i = (i + 1) & mask;
        slots_[i] = s;
    }
}

} // namespace ssp

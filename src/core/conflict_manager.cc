#include "core/conflict_manager.hh"

#include <algorithm>

#include "common/logging.hh"

namespace ssp
{

ConflictManager::ConflictManager(unsigned num_cores)
    : detects_(num_cores > 1), enabled_(detects_), tx_(num_cores)
{
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
        const auto [word, bit] = bloomBit(line);
        if ((postingBloom_[word] & bit) == 0)
            return; // proven absent: no record wrote this line
        auto it = postings_.find(line);
        if (it == postings_.end())
            return;
        // The list is cycle-sorted, so the (begin, now] window is a
        // binary-searched range — empty for the common conflict-free
        // line, without walking a single out-of-window posting.
        const std::vector<Posting> &vec = it->second;
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

    CommitRecord rec;
    rec.core = core;
    rec.commitCycle = tx.validated ? tx.validatedAt : now;
    rec.writes = std::move(tx.writes);
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
    while (!log_.empty() && log_.front().commitCycle <= floor)
        log_.pop_front();
    // The log drains completely at every round boundary (the barrier
    // advances the floor past the previous round's commit points), so
    // this is where the posting index resets instead of growing
    // without bound.  clear() keeps the bucket array, so the per-round
    // rebuild does not re-pay rehashing.
    if (log_.empty()) {
        postings_.clear();
        postingBloom_.fill(0);
    }

    // Publish.  A record already at or below the floor is unreachable
    // by any future window; the pre-index code path reached the same
    // end state by pushing it and immediately pruning it.
    if (!rec.writes.empty() &&
        !(log_.empty() && rec.commitCycle <= floor)) {
        const std::uint64_t seq = nextSeq_++;
        for (Addr line : rec.writes) {
            std::vector<Posting> &vec = postings_[line];
            // Keep each line's postings sorted by commit point so
            // validation can binary-search its window.  Commit points
            // interleave across cores mid-round, so this is a real
            // sorted insert, not an append.
            auto at = std::upper_bound(
                vec.begin(), vec.end(), rec.commitCycle,
                [](Cycles c, const Posting &p) {
                    return c < p.commitCycle;
                });
            vec.insert(at, Posting{rec.commitCycle, seq, rec.core});
            const auto [word, bit] = bloomBit(line);
            postingBloom_[word] |= bit;
        }
        log_.push_back(std::move(rec));
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
    postings_.clear();
    postingBloom_.fill(0);
}

} // namespace ssp

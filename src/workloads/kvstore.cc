#include "workloads/kvstore.hh"

#include <cstring>

#include "common/logging.hh"

namespace ssp
{

namespace
{

std::uint64_t
hashKey(std::uint64_t key)
{
    return (key * 0xff51afd7ed558ccdull) >> 15;
}

} // namespace

KvStoreWorkload::KvStoreWorkload(AtomicityBackend &be, PersistAlloc &alloc,
                                 const KvStoreParams &params,
                                 std::uint64_t seed)
    : Workload(be, alloc), params_(params), rng_(seed)
{
    ssp_assert((params.buckets & (params.buckets - 1)) == 0,
               "bucket count must be a power of two");
    ssp_assert(params.capacity >= 2);
}

std::uint64_t
KvStoreWorkload::bucketOf(std::uint64_t key) const
{
    return hashKey(key) & (params_.buckets - 1);
}

Addr
KvStoreWorkload::bucketAddr(std::uint64_t key) const
{
    return table_ + bucketOf(key) * sizeof(std::uint64_t);
}

void
KvStoreWorkload::setup()
{
    const Machine::SetupPhase phase(backend().machine());
    table_ =
        alloc_.allocate(params_.buckets * sizeof(std::uint64_t), kLineSize);
    lruHeadAddr_ = alloc_.allocate(sizeof(std::uint64_t), 8);
    lruTailAddr_ = alloc_.allocate(sizeof(std::uint64_t), 8);
    const std::uint64_t zero = 0;
    for (std::uint64_t b = 0; b < params_.buckets; ++b) {
        backend().storeRaw(table_ + b * sizeof(std::uint64_t), &zero,
                           sizeof(zero));
    }
    backend().storeRaw(lruHeadAddr_, &zero, sizeof(zero));
    backend().storeRaw(lruTailAddr_, &zero, sizeof(zero));

    // Warm the cache to roughly half capacity.
    for (std::uint64_t i = 0; i < params_.capacity / 2; ++i)
        set(0, rng_.nextBounded(params_.keySpace));
}

Addr
KvStoreWorkload::findItem(CoreId core, std::uint64_t key, Addr *prev_link)
{
    Addr link = bucketAddr(key);
    Addr item = heap_.load64(core, link);
    while (item != 0 && heap_.load64(core, item + kKeyOff) != key) {
        link = item + kNextOff;
        item = heap_.load64(core, item + kNextOff);
    }
    if (prev_link != nullptr)
        *prev_link = link;
    return item;
}

void
KvStoreWorkload::lruPushFront(CoreId core, Addr item)
{
    const Addr head = heap_.load64(core, lruHeadAddr_);
    heap_.store64(core, item + kPrevLruOff, 0);
    heap_.store64(core, item + kNextLruOff, head);
    if (head != 0)
        heap_.store64(core, head + kPrevLruOff, item);
    heap_.store64(core, lruHeadAddr_, item);
    if (heap_.load64(core, lruTailAddr_) == 0)
        heap_.store64(core, lruTailAddr_, item);
}

void
KvStoreWorkload::lruUnlink(CoreId core, Addr item)
{
    const Addr prev = heap_.load64(core, item + kPrevLruOff);
    const Addr next = heap_.load64(core, item + kNextLruOff);
    if (prev != 0)
        heap_.store64(core, prev + kNextLruOff, next);
    else
        heap_.store64(core, lruHeadAddr_, next);
    if (next != 0)
        heap_.store64(core, next + kPrevLruOff, prev);
    else
        heap_.store64(core, lruTailAddr_, prev);
}

void
KvStoreWorkload::unlinkItem(CoreId core, Addr item, Addr prev_link)
{
    heap_.store64(core, prev_link, heap_.load64(core, item + kNextOff));
    lruUnlink(core, item);
}

void
KvStoreWorkload::set(CoreId core, std::uint64_t key)
{
    // The stamp this SET publishes; host state (seq_, reference_) is
    // only updated after the transaction survives validation, so an
    // aborted attempt replays with identical values.
    const std::uint64_t stamp = seq_ + 1;
    bool replaced = false;
    std::vector<std::pair<Addr, std::uint64_t>> freed; ///< {item, key}

    runTx(core, [&] {
        replaced = false;
        freed.clear();

        Addr prev_link = 0;
        Addr item = findItem(core, key, &prev_link);
        if (item != 0) {
            // Replace in place: bump the sequence stamp and rewrite
            // the payload; move to the LRU front.
            heap_.store64(core, item + kSeqOff, stamp);
            std::vector<std::uint8_t> payload(
                params_.valueBytes, static_cast<std::uint8_t>(stamp));
            heap_.storeBytes(core, item + kValueOff, payload.data(),
                             payload.size());
            lruUnlink(core, item);
            lruPushFront(core, item);
            replaced = true;
            return;
        }

        // Insert a fresh item.
        const Addr fresh = alloc_.allocate(itemSize(), kLineSize);
        heap_.store64(core, fresh + kKeyOff, key);
        heap_.store64(core, fresh + kSeqOff, stamp);
        std::vector<std::uint8_t> payload(
            params_.valueBytes, static_cast<std::uint8_t>(stamp));
        heap_.storeBytes(core, fresh + kValueOff, payload.data(),
                         payload.size());
        const Addr head = heap_.load64(core, bucketAddr(key));
        heap_.store64(core, fresh + kNextOff, head);
        heap_.store64(core, bucketAddr(key), fresh);
        lruPushFront(core, fresh);

        // Evict from the LRU tail when over budget (still the same
        // durable transaction — memcached SET is one atomic
        // operation).  reference_ does not yet include this insert.
        std::uint64_t resident = reference_.size() + 1;
        while (resident > params_.capacity) {
            const Addr victim = heap_.load64(core, lruTailAddr_);
            ssp_assert(victim != 0, "LRU empty while over capacity");
            const std::uint64_t vkey =
                heap_.load64(core, victim + kKeyOff);
            Addr vprev_link = 0;
            const Addr found = findItem(core, vkey, &vprev_link);
            ssp_assert(found == victim, "LRU tail not in its hash chain");
            unlinkItem(core, victim, vprev_link);
            freed.emplace_back(victim, vkey);
            --resident;
        }
    });

    seq_ = stamp;
    reference_[key] = stamp;
    if (replaced)
        return;
    evictions_ += freed.size();
    for (auto [addr, k] : freed) {
        reference_.erase(k);
        alloc_.free(addr, itemSize());
    }
}

bool
KvStoreWorkload::get(CoreId core, std::uint64_t key)
{
    Addr item = findItem(core, key, nullptr);
    if (item == 0)
        return false;
    // Read the payload (timed).
    std::vector<std::uint8_t> payload(params_.valueBytes);
    heap_.loadBytes(core, item + kValueOff, payload.data(), payload.size());
    return true;
}

void
KvStoreWorkload::runOp(CoreId core)
{
    const std::uint64_t key = rng_.nextBounded(params_.keySpace);
    if (rng_.nextBool(params_.setFraction))
        set(core, key);
    else
        get(core, key);
}

bool
KvStoreWorkload::verify()
{
    // Every reference key must be resident with the right stamp.
    std::uint64_t found = 0;
    for (std::uint64_t b = 0; b < params_.buckets; ++b) {
        Addr item = heap_.raw64(table_ + b * sizeof(std::uint64_t));
        while (item != 0) {
            const std::uint64_t key = heap_.raw64(item + kKeyOff);
            const std::uint64_t stamp = heap_.raw64(item + kSeqOff);
            auto it = reference_.find(key);
            if (it == reference_.end() || it->second != stamp)
                return false;
            std::uint8_t byte = 0;
            backend().loadRaw(item + kValueOff, &byte, 1);
            if (byte != static_cast<std::uint8_t>(stamp))
                return false;
            ++found;
            item = heap_.raw64(item + kNextOff);
        }
    }
    return found == reference_.size();
}

} // namespace ssp

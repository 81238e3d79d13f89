/**
 * @file
 * Memcached-like persistent key/value cache (paper section 5.1: driven
 * by a memslap-style generator, four clients, 90% SET; Table 3 reports
 * 3 lines / 2 pages average and up to 35 pages per transaction).
 *
 * The store is a chained hash index over slab-allocated items carrying
 * inline values, plus a persistent LRU list.  SET inserts or replaces an
 * item and splices the LRU; when the item budget is exceeded the tail
 * items are evicted inside the same transaction — evicting a cold chain
 * is what produces the large maximum page counts the paper reports.
 * GET is read-only (10%).
 */

#ifndef SSP_WORKLOADS_KVSTORE_HH
#define SSP_WORKLOADS_KVSTORE_HH

#include "common/rng.hh"
#include "workloads/keyed_reference.hh"
#include "workloads/workload.hh"

namespace ssp
{

/** Configuration of the KV cache. */
struct KvStoreParams
{
    std::uint64_t buckets = 4096;   ///< hash buckets (power of two)
    std::uint64_t keySpace = 20000; ///< memslap key space
    std::uint64_t capacity = 8192;  ///< max resident items before eviction
    std::uint64_t valueBytes = 96;  ///< inline value payload
    double setFraction = 0.9;       ///< SET share (memslap 90% SET)
};

/** The memcached-like workload. */
class KvStoreWorkload : public Workload
{
  public:
    KvStoreWorkload(AtomicityBackend &be, PersistAlloc &alloc,
                    const KvStoreParams &params, std::uint64_t seed);

    const char *name() const override { return "Memcached"; }
    void setup() override;
    void runOp(CoreId core) override;
    bool verify() override;

    std::uint64_t residentItems() const { return reference_.size(); }
    std::uint64_t evictions() const { return evictions_; }

    /** One SET transaction (test hook). */
    void set(CoreId core, std::uint64_t key);

    /** Timed GET; returns true when resident. */
    bool get(CoreId core, std::uint64_t key);

  private:
    // Item layout: key(8) value-seq(8) next(8) lru_prev(8) lru_next(8)
    // then valueBytes of payload.
    static constexpr std::uint64_t kKeyOff = 0;
    static constexpr std::uint64_t kSeqOff = 8;
    static constexpr std::uint64_t kNextOff = 16;
    static constexpr std::uint64_t kPrevLruOff = 24;
    static constexpr std::uint64_t kNextLruOff = 32;
    static constexpr std::uint64_t kValueOff = 40;

    std::uint64_t itemSize() const { return kValueOff + params_.valueBytes; }
    Addr bucketAddr(std::uint64_t key) const;
    std::uint64_t bucketOf(std::uint64_t key) const;

    /** Find the item for @p key; 0 when absent. */
    Addr findItem(CoreId core, std::uint64_t key, Addr *prev_link);

    /** Unlink from hash chain + LRU (inside the caller's tx). */
    void unlinkItem(CoreId core, Addr item, Addr prev_link);

    /** LRU helpers (inside the caller's tx). */
    void lruPushFront(CoreId core, Addr item);
    void lruUnlink(CoreId core, Addr item);

    KvStoreParams params_;
    Rng rng_;
    Addr table_ = 0;
    Addr lruHeadAddr_ = 0;
    Addr lruTailAddr_ = 0;
    /** key -> expected value seq (host-side model). */
    KeyedReference reference_;
    std::uint64_t seq_ = 0;
    std::uint64_t evictions_ = 0;
};

} // namespace ssp

#endif // SSP_WORKLOADS_KVSTORE_HH

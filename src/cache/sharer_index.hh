/**
 * @file
 * Line-granular sharer index for the cache hierarchy.
 *
 * Maps a physical line address to a kMaxCores-bit presence bitmap over
 * cores: bit c is set exactly when core c holds the line in its private
 * L1 or L2.  The index is maintained by the caches themselves (every
 * tag insert/evict/invalidate notifies it), so peer-visible operations
 * — MESI write invalidation, the SSP flip-current-bit shootdown, the
 * abort-path line drop — probe only the cores that actually hold a
 * copy instead of walking every core's L1+L2 tag arrays.
 *
 * The index is exact, not conservative: an out-of-sync bit would not
 * just cost time, it would change which peers are charged coherence
 * traffic.  tests/test_cache.cc cross-checks the mask against
 * brute-force tag probes after randomized access/invalidate/remap/
 * power-failure sequences at 2, 3, 4 and 8 cores.
 *
 * This per-line bitmap is also the directory coherence model's sharer
 * vector (src/interconnect/): a directory charges by sharer count,
 * which is popcount of exactly this bitmap.  The optional listener
 * hook feeds the directory's capacity-limited snoop filter — it fires
 * on every private-cache fill and on the drop of a line's last private
 * copy, so the filter can mirror which lines it must track.
 */

#ifndef SSP_CACHE_SHARER_INDEX_HH
#define SSP_CACHE_SHARER_INDEX_HH

#include <cstdint>
#include <unordered_map>

#include "common/bitmap64.hh"
#include "common/types.hh"

namespace ssp
{

/**
 * Observer of sharer-index transitions (the directory snoop filter).
 * Callbacks run inside cache fill/evict paths, so implementations must
 * not touch cache state re-entrantly — defer any invalidation work to
 * a maintenance drain (see CoherenceModel::drainMaintenance).
 */
class SharerListener
{
  public:
    virtual ~SharerListener() = default;

    /** A private cache gained a copy of @p line (fires on every fill). */
    virtual void lineCached(Addr line) = 0;

    /** The last private-cache copy of @p line was dropped. */
    virtual void lineUncached(Addr line) = 0;
};

/** Tracks which cores' private caches hold each line (see file doc). */
class SharerIndex
{
  public:
    /** Private cache levels feeding the index. */
    static constexpr unsigned kL1 = 0;
    static constexpr unsigned kL2 = 1;

    /** Attach the transition observer (the directory snoop filter). */
    void attachListener(SharerListener *listener) { listener_ = listener; }

    /** True when a transition observer is attached. */
    bool listened() const { return listener_ != nullptr; }

    /** Core @p core's level-@p level cache gained @p line. */
    void
    add(CoreId core, unsigned level, Addr line)
    {
        Masks &m = map_[line];
        (level == kL1 ? m.l1 : m.l2).set(core);
        if (listener_ != nullptr)
            listener_->lineCached(line);
    }

    /** Core @p core's level-@p level cache dropped @p line. */
    void
    remove(CoreId core, unsigned level, Addr line)
    {
        auto it = map_.find(line);
        if (it == map_.end())
            return;
        Masks &m = it->second;
        (level == kL1 ? m.l1 : m.l2).reset(core);
        if ((m.l1 | m.l2).none()) {
            map_.erase(it);
            if (listener_ != nullptr)
                listener_->lineUncached(line);
        }
    }

    /** Bitmap of cores holding @p line in L1 or L2 (bit c = core c). */
    CoreBitmap
    sharers(Addr line) const
    {
        auto it = map_.find(line);
        return it == map_.end() ? CoreBitmap{}
                                : (it->second.l1 | it->second.l2);
    }

    /** Drop every mapping (bulk alternative to per-line remove). */
    void clear() { map_.clear(); }

    /** Number of lines with at least one private-cache copy. */
    std::size_t trackedLines() const { return map_.size(); }

  private:
    struct Masks
    {
        CoreBitmap l1;
        CoreBitmap l2;
    };

    std::unordered_map<Addr, Masks> map_;
    SharerListener *listener_ = nullptr;
};

} // namespace ssp

#endif // SSP_CACHE_SHARER_INDEX_HH

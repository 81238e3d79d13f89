/**
 * @file
 * Coherence cost models.
 *
 * SSP extends the cache-coherence network with a flip-current-bit message
 * (paper section 4.1.1): when a core writes a cache line for the first
 * time inside a transaction, the new current bit must become visible to
 * every other core's extended TLB and to the memory controller.  The
 * simulator shares the authoritative current bitmap through the SSP-cache
 * entry, so the functional effect is immediate; the coherence model
 * prices the traffic — one send per first-write, plus the shootdown of
 * peer-cached copies of the remapped-away line — and counts the messages
 * per core.  Ordinary MESI-style invalidations ride the same network: a
 * store that hits a line cached by another core invalidates the peer
 * copies (see CacheHierarchy::write), costing the sender one traversal.
 *
 * Two implementations exist behind the CoherenceModel interface:
 *
 *  - BroadcastCoherence (default): the historical flat-cost snooping
 *    bus — every event costs the sender one fixed bus traversal and
 *    reaches all numCores-1 peers, regardless of how many actually
 *    share the line.  All checked-in BENCH grids are priced by it.
 *  - DirectoryCoherence (src/interconnect/): a home-node directory on
 *    a 2D mesh, where cost scales with Manhattan hop distance and the
 *    actual sharer count, bounded by a capacity-limited snoop filter.
 */

#ifndef SSP_CACHE_COHERENCE_HH
#define SSP_CACHE_COHERENCE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/bitmap64.hh"
#include "common/types.hh"

namespace ssp
{

class SharerListener;

/** Which coherence cost model prices the machine's traffic. */
enum class CoherenceMode
{
    Broadcast, ///< flat-cost snooping bus (the historical model)
    Directory, ///< home-node directory on a 2D mesh
};

/** Knobs of the directory/mesh model (ignored in Broadcast mode). */
struct CoherenceParams
{
    CoherenceMode mode = CoherenceMode::Broadcast;

    /**
     * Snoop-filter capacity per home tile in tracked lines; evicting a
     * live entry forces back-invalidation of its sharer copies (the
     * inclusion property directories enforce).  0 = unbounded.
     */
    unsigned snoopFilterEntries = 4096;
};

/**
 * Interface every coherence cost model implements, plus the message
 * counters all models share.  The hierarchy and the engines call the
 * virtual cost hooks on every coherence event; Machine owns the model
 * and applies the receiver-side cycle charges it prices.
 */
class CoherenceModel
{
  public:
    /**
     * A line's live private copies are dropped on behalf of the model
     * (snoop-filter back-invalidation): the hierarchy drops every
     * sharer copy of the line — writing back dirty data — and returns
     * the bitmap of cores that held one.
     */
    using BackInvalidateFn = std::function<CoreBitmap(Addr line, Cycles now)>;

    explicit CoherenceModel(unsigned num_cores)
        : numCores_(num_cores), messagesReceived_(num_cores, 0)
    {
    }

    virtual ~CoherenceModel() = default;

    /**
     * Price a flip-current-bit send for @p line, whose dropped peer
     * copies are @p peers (possibly empty — the flip must reach the
     * extended TLBs even when nobody cached the line).
     * @return Completion time for the sending core.
     */
    virtual Cycles flipCurrentBit(CoreId sender, Addr line,
                                  const CoreBitmap &peers, Cycles now) = 0;

    /**
     * Price an ordinary cross-core invalidation: a store hit @p line
     * while the peers in @p peers had it cached.  Only called when
     * @p peers is non-empty.
     * @return Completion time for the sending core.
     */
    virtual Cycles invalidate(CoreId sender, Addr line,
                              const CoreBitmap &peers, Cycles now) = 0;

    /**
     * Receiver-side cycle charge for processing a flip-broadcast
     * shootdown of @p line at @p receiver (applied by Machine, which
     * owns the core clocks).
     */
    virtual Cycles shootdownReceiverCost(CoreId receiver,
                                         Addr line) const = 0;

    /** The sharer-index observer this model needs, if any (the
     *  directory's snoop filter); nullptr for broadcast. */
    virtual SharerListener *sharerListener() { return nullptr; }

    /** Install the hierarchy's back-invalidation callback (no-op for
     *  models without a snoop filter). */
    virtual void attachBackInvalidator(BackInvalidateFn) {}

    /** True when the model queues deferred maintenance work that the
     *  hierarchy must drain after each timed access. */
    virtual bool needsMaintenance() const { return false; }

    /** Process deferred maintenance (snoop-filter back-invalidations)
     *  at a point where no cache access is mid-flight. */
    virtual void drainMaintenance(Cycles) {}

    /** True while deferred maintenance is queued and not yet drained.
     *  Always false between two public hierarchy calls. */
    virtual bool maintenancePending() const { return false; }

    /** Volatile model state lost on power failure (filters, queues);
     *  counters are measurement state and survive. */
    virtual void powerFail() {}

    /**
     * Account a flip-broadcast shootdown landing at @p receiver: a peer
     * copy of a remapped-away line was dropped.  The receiver-side
     * cycle charge is applied by Machine, which owns the core clocks.
     */
    void
    deliverShootdown(CoreId receiver)
    {
        ++messagesReceived_[receiver];
        ++shootdownsDelivered_;
    }

    /**
     * Account an ordinary write invalidation landing at @p receiver.
     * Receivers absorb these in the cache controller; no clock charge.
     */
    void
    deliverInvalidation(CoreId receiver)
    {
        ++messagesReceived_[receiver];
    }

    std::uint64_t flipMessages() const { return flipMessages_; }
    std::uint64_t invalidations() const { return invalidations_; }
    /** Flip-broadcast shootdowns that found and dropped a peer copy. */
    std::uint64_t shootdownsDelivered() const { return shootdownsDelivered_; }
    std::uint64_t
    messagesReceived(CoreId core) const
    {
        return messagesReceived_[core];
    }
    /**
     * Total interconnect messages the model priced: per event, a
     * broadcast reaches every peer while a directory multicasts to the
     * home node and the actual sharers — the traffic the scale256 grid
     * compares across modes.
     */
    std::uint64_t messages() const { return messages_; }
    unsigned numCores() const { return numCores_; }

    /** @{ Directory-only counters; zero for models without one. */
    virtual std::uint64_t directoryLookups() const { return 0; }
    virtual std::uint64_t hopTraversalCycles() const { return 0; }
    virtual std::uint64_t snoopFilterEvictions() const { return 0; }
    virtual std::uint64_t backInvalidations() const { return 0; }
    /** @} */

  protected:
    /** Count one flip-current-bit send. */
    void countFlip() { ++flipMessages_; }

    /** Count one write-invalidation send. */
    void countInvalidation() { ++invalidations_; }

    /** Count @p n priced interconnect messages. */
    void countMessages(std::uint64_t n) { messages_ += n; }

  private:
    unsigned numCores_;
    std::uint64_t flipMessages_ = 0;
    std::uint64_t invalidations_ = 0;
    std::uint64_t shootdownsDelivered_ = 0;
    std::uint64_t messages_ = 0;
    std::vector<std::uint64_t> messagesReceived_;
};

/**
 * The historical flat-cost snooping bus: every event costs the sender
 * one fixed broadcast latency and reaches all numCores-1 peers,
 * independent of the actual sharer set.  The default model; all six
 * original checked-in BENCH grids are priced by it, byte for byte.
 */
class BroadcastCoherence final : public CoherenceModel
{
  public:
    /** Cycles a flip-current-bit or invalidation broadcast adds to the
     *  sender (piggy-backed on invalidations, so this is small). */
    static constexpr Cycles kLatency = 16;

    explicit BroadcastCoherence(unsigned num_cores)
        : CoherenceModel(num_cores)
    {
    }

    Cycles
    flipCurrentBit(CoreId, Addr, const CoreBitmap &,
                   Cycles now) override
    {
        countFlip();
        // With a single core there is nobody to notify; the paper's
        // mechanism piggybacks on invalidations, costing the sender the
        // bus traversal only when other cores exist.
        if (numCores() <= 1)
            return now;
        countMessages(numCores() - 1);
        return now + kLatency;
    }

    Cycles
    invalidate(CoreId, Addr, const CoreBitmap &, Cycles now) override
    {
        countInvalidation();
        if (numCores() <= 1)
            return now;
        countMessages(numCores() - 1);
        return now + kLatency;
    }

    Cycles
    shootdownReceiverCost(CoreId, Addr) const override
    {
        return kLatency;
    }
};

/**
 * Build the coherence model @p params selects: the flat BroadcastCoherence
 * bus or the mesh DirectoryCoherence model from src/interconnect/.
 */
std::unique_ptr<CoherenceModel>
makeCoherenceModel(unsigned num_cores, const CoherenceParams &params);

} // namespace ssp

#endif // SSP_CACHE_COHERENCE_HH

/**
 * @file
 * Deterministic network cost model for the sharded cluster.
 *
 * Every cross-machine message is priced as one RPC: a fixed network
 * round-half latency (propagation + switching + kernel/NIC handoff),
 * a serialization charge (marshalling the request into wire format),
 * and a bandwidth term proportional to the payload.  Same-machine
 * messages are free and uncounted — a coordinator talking to a local
 * participant is a function call, which is what makes the single-shard
 * fast path cycle-identical to the single-machine model.
 */

#ifndef SSP_SHARD_NETWORK_HH
#define SSP_SHARD_NETWORK_HH

#include <algorithm>
#include <cstdint>

#include "common/rng.hh"
#include "common/types.hh"

namespace ssp::shard
{

/** Cost knobs of the cluster interconnect (datacenter-class defaults). */
struct NetworkParams
{
    /**
     * One-way message latency in core cycles.  ~2.3 us at the simulated
     * core frequency — a kernel-bypass RPC fabric, not loopback.
     */
    Cycles rpcLatency = 5000;
    /** Serialization/deserialization CPU cost per message. */
    Cycles serialization = 200;
    /** Wire bandwidth as payload bytes moved per core cycle. */
    std::uint64_t bytesPerCycle = 16;
};

/** Wire sizes of the 2PC messages (header + footprint summary). */
inline constexpr std::uint64_t kPrepareBytes = 256;
inline constexpr std::uint64_t kVoteBytes = 64;
inline constexpr std::uint64_t kDecisionBytes = 64;

/** Extra delay bound: delayed messages add a uniform draw from
 *  [1, kMaxExtraDelay] cycles on top of messageCost. */
inline constexpr Cycles kMaxExtraDelay = 2500;
/** Sender timeout before the first resend (4x the one-way latency);
 *  backoff doubles it per retry, capped at 8x. */
inline constexpr Cycles kRpcTimeout = 20000;

/**
 * Unreliability knobs for the fault harness.  All zero (the default)
 * means every message is delivered exactly once at messageCost — the
 * reliable fabric every non-fault grid prices.
 */
struct NetworkFaultParams
{
    /** Per-transmission drop probability. */
    double lossRate = 0;
    /** Per-delivery probability of an extra queueing delay. */
    double delayRate = 0;
    /** Forced delivery after this many drops of one message — the
     *  model's way of saying retransmission eventually wins. */
    unsigned maxRetries = 16;
};

/**
 * Prices messages between machines and accounts the traffic.  Purely
 * deterministic: cost depends only on (src == dst, payload size) — and,
 * in fault mode, on the position in the cell's private fault stream,
 * which is itself a pure function of the cell seed.
 */
class NetworkModel
{
  public:
    explicit NetworkModel(const NetworkParams &params = {})
        : params_(params)
    {
    }

    /**
     * Arm the unreliable-network mode: sendReliable() starts drawing
     * loss/delay from a stream seeded by @p seed.  Never called on
     * non-fault cells, so their draws (none) and costs are untouched.
     */
    void
    enableFaults(const NetworkFaultParams &faults, std::uint64_t seed)
    {
        faults_ = faults;
        faultRng_ = Rng(seed);
        faultsEnabled_ = faults.lossRate > 0 || faults.delayRate > 0;
    }

    /**
     * Cycles one message of @p bytes payload takes from machine @p src
     * to machine @p dst.  Same-machine messages cost nothing and are
     * not counted.
     */
    Cycles
    messageCost(unsigned src, unsigned dst, std::uint64_t bytes)
    {
        if (src == dst)
            return 0;
        const Cycles wire =
            (bytes + params_.bytesPerCycle - 1) / params_.bytesPerCycle;
        const Cycles cost = params_.rpcLatency + params_.serialization +
                            wire;
        ++messages_;
        cycles_ += cost;
        return cost;
    }

    /**
     * Cycles until one message of @p bytes payload is *acknowledged as
     * delivered* from @p src to @p dst under the armed fault model:
     * each transmission may be dropped (the sender times out with
     * capped exponential backoff and resends) or delayed.  With faults
     * disabled — or at loss/delay rate 0 — this is exactly
     * messageCost(), with no RNG draws, so non-fault cells are
     * byte-identical by construction.
     */
    Cycles
    sendReliable(unsigned src, unsigned dst, std::uint64_t bytes)
    {
        if (src == dst)
            return 0;
        if (!faultsEnabled_)
            return messageCost(src, dst, bytes);
        Cycles total = 0;
        for (unsigned attempt = 0;; ++attempt) {
            const double u = faultRng_.nextDouble();
            if (u < faults_.lossRate && attempt < faults_.maxRetries) {
                // Dropped: the sender waits out its timeout (doubled
                // per retry, capped at 8x) and retransmits.
                const Cycles wait = kRpcTimeout << std::min(attempt, 3u);
                total += wait;
                timeoutStall_ += wait;
                ++lost_;
                ++retries_;
                continue;
            }
            total += messageCost(src, dst, bytes);
            if (u >= faults_.lossRate &&
                u < faults_.lossRate + faults_.delayRate) {
                total += 1 + faultRng_.nextBounded(kMaxExtraDelay);
            }
            return total;
        }
    }

    const NetworkParams &params() const { return params_; }

    /** Cross-machine messages priced so far. */
    std::uint64_t messages() const { return messages_; }

    /** Total cycles charged for those messages. */
    Cycles cyclesCharged() const { return cycles_; }

    /** Transmissions dropped by the armed fault model. */
    std::uint64_t messagesLost() const { return lost_; }

    /** Retransmissions after a sender timeout. */
    std::uint64_t rpcRetries() const { return retries_; }

    /** Total sender cycles spent waiting out timeouts. */
    Cycles timeoutStallCycles() const { return timeoutStall_; }

  private:
    NetworkParams params_;
    std::uint64_t messages_ = 0;
    Cycles cycles_ = 0;
    bool faultsEnabled_ = false;
    NetworkFaultParams faults_{};
    Rng faultRng_{0};
    std::uint64_t lost_ = 0;
    std::uint64_t retries_ = 0;
    Cycles timeoutStall_ = 0;
};

} // namespace ssp::shard

#endif // SSP_SHARD_NETWORK_HH

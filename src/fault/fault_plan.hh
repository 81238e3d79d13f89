/**
 * @file
 * Deterministic fault schedules for the cluster fault-injection harness.
 *
 * A FaultPlan is a cycle-scheduled list of machine failures drawn
 * up-front from one RNG stream derived from the cell seed — so a cell's
 * fault sequence is a pure function of its coordinates and replays
 * bit-identically across --jobs values and host machines.
 * Inter-arrival times are integer draws (uniform around the requested
 * mean), never floating-point exponentials, so the schedule cannot
 * drift across libm implementations.
 *
 * Three fault kinds are drawn:
 *  - PowerFail: the machine loses power between two scheduled slots
 *    (durable state survives, everything volatile is lost);
 *  - CoordinatorCrash: the machine dies while coordinating a 2PC
 *    transaction, between collecting votes and persisting the decision
 *    record — the classic blocking window;
 *  - ParticipantCrash: the machine dies as a 2PC participant inside the
 *    prepare window, after validating but before its vote departs.
 * Window kinds degrade to PowerFail when no 2PC can happen (one
 * machine, or a zero cross-shard fraction), so a scheduled fault never
 * silently disappears.
 */

#ifndef SSP_FAULT_FAULT_PLAN_HH
#define SSP_FAULT_FAULT_PLAN_HH

#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "core/config.hh"
#include "shard/network.hh"

namespace ssp::fault
{

/** What an injected machine failure interrupts. */
enum class FaultKind
{
    PowerFail,        ///< between slots; nothing is in flight
    CoordinatorCrash, ///< mid-2PC, votes collected, decision not durable
    ParticipantCrash, ///< mid-2PC, prepared but the vote never departs
};

/** One scheduled failure of one machine. */
struct FaultEvent
{
    Cycles atCycle = 0;   ///< fires once the machine's clock crosses this
    FaultKind kind = FaultKind::PowerFail;
};

/** Knobs of one cell's fault harness. */
struct FaultParams
{
    /** Expected machine failures per million simulated cycles per
     *  machine; 0 schedules nothing. */
    double ratePerMcycle = 0;
    /** Primary/backup replication: synchronous log shipping per commit,
     *  and a failed primary promotes its backup instead of recovering
     *  in place. */
    bool replicate = false;
    /** Seed of the plan stream (derive from the cell seed with a
     *  dedicated ordinal so it is disjoint from key/arrival/route). */
    std::uint64_t seed = 0;
};

/** Seed ordinal of the fault-plan stream (see sweep_runner). */
inline constexpr std::uint64_t kFaultSeedOrdinal = 307;
/** Seed ordinal of the unreliable-network stream. */
inline constexpr std::uint64_t kNetFaultSeedOrdinal = 401;

/** @{ Pricing constants of the recovery paths (cycles at the simulated
 *  core frequency; ~3.7 GHz, so 50k cycles is ~13.5 us). */
/** Crash detection + firmware/OS restart before log scans begin. */
inline constexpr Cycles kRecoveryBaseCycles = 50000;
/** Sequential NVRAM scan of one 4 KiB journal/log page on recovery
 *  (row-buffer-friendly streaming reads). */
inline constexpr Cycles kRecoveryScanCyclesPerPage = 400;
/** Failure-detection timeout before a backup gives up on its primary
 *  (matches the RPC timeout: 4x the one-way latency). */
inline constexpr Cycles kFailureDetectCycles = 20000;
/** Backup promotion bookkeeping once the handshake completes. */
inline constexpr Cycles kPromotionCycles = 10000;
/** One durable decision-record line appended by the coordinator
 *  (an NVRAM write + flush riding the home branch's commit). */
inline constexpr Cycles kDecisionPersistCycles = 740;
/** @} */

/** @{ Wire sizes of the replication and recovery messages. */
inline constexpr std::uint64_t kShipBytes = 512;   ///< per-commit log ship
inline constexpr std::uint64_t kShipAckBytes = 64; ///< backup's sync ack
inline constexpr std::uint64_t kQueryBytes = 64;   ///< decision-log query
/** @} */

/**
 * Cycles a machine is down recovering in place: detection/restart plus
 * a sequential scan of its persistent journal and log areas.
 */
Cycles recoverInPlaceCycles(const SspConfig &cfg);

/**
 * Cycles a replicated shard is unavailable across a failover: the
 * backup detects the silent primary, runs the promotion handshake (two
 * one-way messages priced by @p net's parameters, uncounted — the
 * handshake is control traffic, not workload traffic) and takes over.
 * No log scan: synchronous shipping means the backup is already
 * current.  Strictly below recoverInPlaceCycles for any real config.
 */
Cycles failoverCycles(const shard::NetworkParams &net);

/**
 * Per-machine lazy fault schedule.  Events are drawn machine by machine
 * from one splitmix64-derived stream each, in schedule order; peek() /
 * advance() walk them, and absorbUntil() drops events that fall inside
 * a recovery window (a machine that is already down cannot fail again —
 * this also bounds faults per run, since downtime never compounds).
 */
class FaultPlan
{
  public:
    FaultPlan(const FaultParams &params, unsigned machines);

    /** True if machine @p m has a scheduled event at or before @p now. */
    bool due(unsigned m, Cycles now) const;

    /** The next scheduled event of machine @p m.  @pre the plan is
     *  armed (rate > 0); callers test due(m, now) first. */
    const FaultEvent &peek(unsigned m) const;

    /** Consume machine @p m's next event and draw its successor. */
    void advance(unsigned m);

    /** Drop machine @p m's events scheduled at or before @p until
     *  (the machine was down; a dead machine cannot fail). */
    void absorbUntil(unsigned m, Cycles until);

  private:
    struct Stream
    {
        Rng rng{0};
        FaultEvent next{};
    };

    void draw(Stream &s);

    double rate_ = 0;
    Cycles meanInterval_ = 0;
    std::vector<Stream> streams_;
};

} // namespace ssp::fault

#endif // SSP_FAULT_FAULT_PLAN_HH

/**
 * @file
 * Runs a workload against a backend for N transactions across C
 * simulated cores (locking at the data-structure level serializes
 * conflicting work, as the paper assumes), and collects the metrics the
 * figures plot.
 *
 * The schedule is bulk-synchronous: cores take transactions
 * round-robin and re-align their clocks on a barrier after every
 * round.  The open-loop request server (src/serve/) dispatches on its
 * own, lowest clock first, and uses this file's baseline and delta
 * helpers to fill the same RunResult.
 */

#ifndef SSP_SIM_DRIVER_HH
#define SSP_SIM_DRIVER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/system_builder.hh"

namespace ssp
{

/**
 * Metrics for one measured run (deltas over the post-setup baseline).
 * Each metric member has one row in the metric list (sim/metrics.hh),
 * which is what reads, rolls up and reports it.
 */
struct RunResult
{
    /** Owned strings: results outlive the backend/workload objects the
     *  names came from (e.g. sweep cells whose experiment is torn down
     *  before the report is emitted). */
    std::string backend;
    std::string workload;
    std::uint64_t committedTxs = 0;
    Cycles cycles = 0;

    std::uint64_t nvramWrites = 0;   ///< all categories
    std::uint64_t loggingWrites = 0; ///< log/journal/checkpoint only
    std::uint64_t dataWrites = 0;
    std::uint64_t consolidationWrites = 0;
    std::uint64_t checkpointWrites = 0;
    std::uint64_t journalWrites = 0;

    double avgLinesPerTx = 0;
    double avgPagesPerTx = 0;
    std::uint64_t maxPagesPerTx = 0;

    /** Per-core cycles spent executing operations (index = core). */
    std::vector<std::uint64_t> coreBusyCycles;
    /** Per-core operation counts (index = core). */
    std::vector<std::uint64_t> coreTxs;

    /** Coherence traffic during the run (deltas over setup). */
    std::uint64_t coherenceFlips = 0;         ///< flip-current-bit sends
    std::uint64_t coherenceInvalidations = 0; ///< MESI write invalidations
    std::uint64_t coherenceShootdowns = 0;    ///< flip-broadcast drops
    std::uint64_t coherenceMessages = 0;      ///< interconnect messages

    /** @{ Directory-interconnect traffic (src/interconnect/); zero
     *  under the broadcast model, which has no mesh, no directory and
     *  no snoop filter. */
    std::uint64_t directoryLookups = 0;
    std::uint64_t hopTraversalCycles = 0;   ///< hop-weighted link cycles
    std::uint64_t snoopFilterEvictions = 0; ///< capacity-forced evictions
    std::uint64_t backInvalidations = 0;    ///< sharer copies dropped
    /** @} */

    /** Conflict handling during the run (deltas over setup); always
     *  zero on a single core, where no transaction windows overlap. */
    std::uint64_t txAborts = 0;  ///< commit validations that failed
    std::uint64_t txRetries = 0; ///< re-executions after an abort
    std::uint64_t conflictsWriteWrite = 0;
    std::uint64_t conflictsReadWrite = 0;
    std::uint64_t backoffCycles = 0; ///< total backoff stall charged

    /** @{ Open-loop request-serving metrics (src/serve/); zero on
     *  closed-loop runs, where no request ever waits in a queue.
     *  Latency is counted from arrival cycle to commit-ack cycle and
     *  the percentiles are exact-rank over the merged per-core
     *  histograms. */
    std::uint64_t p50Cycles = 0;
    std::uint64_t p99Cycles = 0;
    std::uint64_t p999Cycles = 0;
    double meanQueueDepth = 0;       ///< time-averaged waiting requests
    std::uint64_t rejectedTxs = 0;   ///< shed by admission control
    double offeredLoad = 0;          ///< factor of closed-loop capacity
    /** @} */

    /** Transactions per second at the simulated core frequency. */
    double tps() const;

    /** NVRAM writes per committed transaction. */
    double writesPerTx() const;

    /** Simulated cycles per committed transaction. */
    double cyclesPerTx() const;

    /**
     * Load imbalance: max over cores of busy cycles divided by the mean
     * (1.0 = perfectly balanced); 0 when no busy time was recorded.
     */
    double imbalance() const;
};

/**
 * The machine counters of @p exp at measurement start, each in the
 * RunResult member its run delta goes to (sim/metrics.hh).  Shared by
 * the closed-loop driver here, the open-loop request server
 * (src/serve/) and the cluster driver, so all three fill RunResult
 * through the same arithmetic.
 */
RunResult captureRunBaseline(Experiment &exp);

/** Fill @p res's machine counters with their deltas over @p base, and
 *  the names and write-set characterization of @p exp's run. */
void finishRunMetrics(RunResult &res, Experiment &exp,
                      const RunResult &base);

/**
 * Run @p num_txs operations on @p exp, round-robin over @p num_cores
 * cores with a clock barrier after every round.  Core clocks are
 * synchronized at the start; wall time is max core time.  The run
 * executes serially on the calling thread; host parallelism lives one
 * level up, across cells (sweep::runSweep).
 */
RunResult runExperiment(Experiment &exp, std::uint64_t num_txs,
                        unsigned num_cores);

} // namespace ssp

#endif // SSP_SIM_DRIVER_HH

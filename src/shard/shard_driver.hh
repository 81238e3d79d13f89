/**
 * @file
 * The cluster driver: runs every shard's workload in bulk-synchronous
 * rounds (the per-machine generalization of the single-machine Rounds
 * scheduler) with a deterministic routing stream deciding, per
 * coordinator slot, whether the operation stays single-shard or becomes
 * a cross-shard 2PC transaction against a drawn peer shard.
 *
 * Each machine's rounds end on the same barriers runExperiment's do, so
 * a 1-machine cluster yields runExperiment's metrics on shard 0 (pinned
 * by ShardDriver.OneMachineClusterMatchesTheSingleMachineDriver).
 */

#ifndef SSP_SHARD_SHARD_DRIVER_HH
#define SSP_SHARD_SHARD_DRIVER_HH

#include <cstdint>
#include <vector>

#include "shard/cluster.hh"
#include "shard/tx_coordinator.hh"
#include "sim/driver.hh"

namespace ssp::shard
{

/** Metrics of one cluster run. */
struct ShardRunResult
{
    /**
     * Cluster-wide rollup: counters are sums across shards, cycles is
     * the slowest shard's wall clock, per-core vectors sum the same
     * core index across machines, and the write-set averages are
     * per-shard means (max of maxima).
     */
    RunResult aggregate;
    /** Per-shard deltas, index = shard. */
    std::vector<RunResult> shards;
    /** 2PC accounting.  A 1-machine cluster counts every operation as
     *  a single-shard commit and leaves the rest zero. */
    ShardTxStats tx;
    /** Cross-machine messages priced by the NetworkModel. */
    std::uint64_t networkMessages = 0;
    /** Cycles those messages charged to core clocks. */
    Cycles networkCycles = 0;
};

/**
 * Fault-harness surface of the cluster driver.  One implementation
 * (fault::FaultInjector) owns the cell's FaultPlan; the driver only
 * gives it deterministic injection points: the top of every coordinator
 * slot (where scheduled power-fails fire and window faults arm), the
 * log-ship charge after every single-shard commit, and the end of the
 * run (verification + delta accounting).
 */
class ClusterFaultDriver
{
  public:
    virtual ~ClusterFaultDriver() = default;

    /** The TxFaultHooks to install on the coordinator. */
    virtual TxFaultHooks *txHooks() = 0;

    /** Called at the top of every coordinator slot, before any
     *  operation of the slot runs. */
    virtual void atSlotStart() = 0;

    /** Cycles to ship one single-shard commit's log records to
     *  @p machine's backup (0 when replication is off). */
    virtual Cycles shipCommit(unsigned machine, CoreId core) = 0;

    /** Called after the final barrier, before metrics are cut. */
    virtual void atRunEnd() = 0;
};

/**
 * Run @p txs_per_shard coordinator operations per shard across
 * @p num_cores cores per machine.  Each slot becomes a cross-shard
 * transaction with probability @p cross_shard_fraction (peer drawn
 * uniformly from the other shards); the routing stream is seeded by
 * @p route_seed, independent of every workload stream.
 *
 * @p faults, when non-null, arms the fault harness: scheduled machine
 * failures fire at slot boundaries, 2PC runs in the logged mode, and
 * commits are log-shipped when replication is on.
 */
ShardRunResult runClusterExperiment(Cluster &cluster,
                                    std::uint64_t txs_per_shard,
                                    unsigned num_cores,
                                    double cross_shard_fraction,
                                    std::uint64_t route_seed,
                                    ClusterFaultDriver *faults = nullptr);

} // namespace ssp::shard

#endif // SSP_SHARD_SHARD_DRIVER_HH

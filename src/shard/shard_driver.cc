#include "shard/shard_driver.hh"

#include "common/logging.hh"
#include "common/rng.hh"
#include "sim/metrics.hh"

namespace ssp::shard
{

namespace
{

/** Roll the per-shard results into the cluster-wide aggregate. */
RunResult
aggregateShards(const std::vector<RunResult> &shards)
{
    RunResult agg;
    agg.backend = shards[0].backend;
    agg.workload = shards[0].workload;
    for (const Metric &metric : metricList())
        rollUp(metric, agg, shards);
    return agg;
}

} // namespace

ShardRunResult
runClusterExperiment(Cluster &cluster, std::uint64_t txs_per_shard,
                     unsigned num_cores, double cross_shard_fraction,
                     std::uint64_t route_seed, ClusterFaultDriver *faults)
{
    ShardRunResult res;
    const unsigned machines = cluster.machines();
    for (unsigned m = 0; m < machines; ++m) {
        Machine &machine = cluster.machine(m);
        ssp_assert(num_cores >= 1 &&
                       num_cores <= machine.cfg().numCores,
                   "cluster run uses more cores than a machine has");
        machine.syncClocks();
    }
    std::vector<RunResult> base;
    base.reserve(machines);
    for (unsigned m = 0; m < machines; ++m)
        base.push_back(captureRunBaseline(cluster.shard(m)));

    std::vector<std::vector<std::uint64_t>> busy(
        machines, std::vector<std::uint64_t>(num_cores, 0));
    std::vector<std::vector<std::uint64_t>> ops(
        machines, std::vector<std::uint64_t>(num_cores, 0));

    TxCoordinator coord(cluster);
    if (faults != nullptr)
        coord.setFaultHooks(faults->txHooks());
    Rng route(route_seed);
    for (std::uint64_t i = 0; i < txs_per_shard; ++i) {
        const CoreId core = static_cast<CoreId>(i % num_cores);
        // Scheduled faults fire between slots: a machine whose clock
        // crossed its next fault cycle power-fails here, and window
        // faults (coordinator/participant crash) arm for the slot.
        if (faults != nullptr)
            faults->atSlotStart();
        for (unsigned m = 0; m < machines; ++m) {
            const bool cross = machines > 1 && cross_shard_fraction > 0 &&
                               route.nextBool(cross_shard_fraction);
            const Cycles home_start = cluster.machine(m).clock(core);
            if (!cross) {
                coord.runSingleShard(m, core);
                // Replication ships every commit synchronously; the
                // committing core waits for the backup's ack.
                if (faults != nullptr) {
                    cluster.machine(m).clock(core) +=
                        faults->shipCommit(m, core);
                }
            } else {
                // The client's next request touches a key owned by one
                // of the other shards, uniform under the hash
                // partition.
                const unsigned peer =
                    (m + 1 +
                     static_cast<unsigned>(route.nextBounded(
                         machines - 1))) %
                    machines;
                const Cycles peer_start =
                    cluster.machine(peer).clock(core);
                coord.runCrossShard(m, peer, core);
                busy[peer][core] +=
                    cluster.machine(peer).clock(core) - peer_start;
                ++ops[peer][core];
            }
            busy[m][core] +=
                cluster.machine(m).clock(core) - home_start;
            ++ops[m][core];
        }
        // Bulk-synchronous rounds, per machine: re-align each machine's
        // core clocks after every round-robin cycle, exactly as the
        // single-machine Rounds scheduler does.  Machines never share a
        // barrier — clusters have no global clock; cross-machine waits
        // are priced explicitly by the network model.
        if (num_cores > 1 && core == num_cores - 1) {
            for (unsigned m = 0; m < machines; ++m)
                cluster.machine(m).syncClocks();
        }
    }
    for (unsigned m = 0; m < machines; ++m) {
        // Final (possibly partial) round ends on the same barrier every
        // full round ends on.
        if (num_cores > 1)
            cluster.machine(m).syncClocks();
    }
    if (faults != nullptr)
        faults->atRunEnd();

    res.shards.resize(machines);
    for (unsigned m = 0; m < machines; ++m) {
        RunResult &r = res.shards[m];
        r.coreBusyCycles = std::move(busy[m]);
        r.coreTxs = std::move(ops[m]);
        finishRunMetrics(r, cluster.shard(m), base[m]);
    }
    res.aggregate = aggregateShards(res.shards);
    res.tx = coord.stats();
    res.networkMessages = cluster.network().messages();
    res.networkCycles = cluster.network().cyclesCharged();
    return res;
}

} // namespace ssp::shard

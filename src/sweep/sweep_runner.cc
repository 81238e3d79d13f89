#include "sweep/sweep_runner.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>

#include "serve/server.hh"
#include "sim/system_builder.hh"
#include "sweep/figure_spec.hh"

namespace ssp::sweep
{

namespace
{

/** Ordinal separating a cell's arrival stream from its key stream. */
constexpr std::uint64_t kArrivalSeedOrdinal = 101;

/** Ordinal separating a shard cell's routing stream from its keys. */
constexpr std::uint64_t kRouteSeedOrdinal = 211;

CellResult
runOneCell(const SweepCell &cell)
{
    CellResult res;
    res.cell = cell;
    try {
        // Fault-armed cells always go through the cluster driver, even
        // with one machine, so scheduled failures have slot boundaries
        // to fire at.  Unarmed cells keep their historical paths.
        const bool faulty = cell.faultRate > 0 || cell.replicate;
        if (cell.machines > 1 || faulty) {
            // Cluster cell: each machine gets its own Experiment (own
            // seed stream, see Cluster::shardSeed) and the routing
            // stream deciding which slots go cross-shard draws from a
            // third, independent stream.
            shard::Cluster cluster(cell.backend, cell.workload,
                                   cell.config(), cell.scale,
                                   cell.machines);
            std::unique_ptr<fault::FaultInjector> inj;
            if (faulty) {
                fault::FaultParams fp;
                fp.ratePerMcycle = cell.faultRate;
                fp.replicate = cell.replicate;
                fp.seed = deriveCellSeed(cell.scale.seed,
                                         fault::kFaultSeedOrdinal);
                inj = std::make_unique<fault::FaultInjector>(
                    cluster, fp,
                    deriveCellSeed(cell.scale.seed,
                                   fault::kNetFaultSeedOrdinal),
                    cell.crossShardFraction);
            }
            shard::ShardRunResult sr = shard::runClusterExperiment(
                cluster, cell.txs, cell.cores, cell.crossShardFraction,
                deriveCellSeed(cell.scale.seed, kRouteSeedOrdinal),
                inj.get());
            res.run = std::move(sr.aggregate);
            res.shardRuns = std::move(sr.shards);
            res.shardTx = sr.tx;
            res.networkMessages = sr.networkMessages;
            res.networkCycles = sr.networkCycles;
            if (inj != nullptr)
                res.faultStats = inj->stats();
            res.ok = true;
            return res;
        }
        Experiment exp = buildExperiment(cell.backend, cell.workload,
                                         cell.config(), cell.scale);
        if (cell.offeredLoad > 0) {
            // Open-loop cell: txs counts generated requests, and the
            // arrival process draws from its own stream so the key
            // stream stays identical to the closed-loop cells'.
            serve::ServeParams params;
            params.arrival = cell.arrival;
            params.offeredLoad = cell.offeredLoad;
            params.seed =
                deriveCellSeed(cell.scale.seed, kArrivalSeedOrdinal);
            res.run = serve::runServeExperiment(exp, cell.txs,
                                                cell.cores, params);
        } else {
            res.run = runExperiment(exp, cell.txs, cell.cores);
        }
        res.ok = true;
    } catch (const std::exception &e) {
        res.error = e.what();
    }
    return res;
}

} // namespace

std::vector<CellResult>
runSweep(const std::vector<SweepCell> &cells, unsigned jobs,
         const CellCallback &on_cell)
{
    std::vector<CellResult> results(cells.size());
    if (cells.empty())
        return results;

    jobs = static_cast<unsigned>(
        std::min<std::size_t>(std::max(1u, jobs), cells.size()));

    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::mutex cb_mutex;

    auto worker = [&]() {
        while (true) {
            const std::size_t i = next.fetch_add(1);
            if (i >= cells.size())
                return;
            results[i] = runOneCell(cells[i]);
            const std::size_t finished = done.fetch_add(1) + 1;
            if (on_cell) {
                std::lock_guard<std::mutex> lock(cb_mutex);
                on_cell(results[i], finished, cells.size());
            }
        }
    };

    if (jobs == 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(jobs);
        for (unsigned t = 0; t < jobs; ++t)
            pool.emplace_back(worker);
        for (auto &t : pool)
            t.join();
    }
    return results;
}

Json
sweepReport(const std::string &figure,
            const std::vector<CellResult> &results)
{
    Json doc = Json::object();
    doc.set("schema", Json::str("ssp-bench-report-v1"));
    doc.set("figure", Json::str(figure));
    doc.set("cell_count", Json::number(
        static_cast<std::uint64_t>(results.size())));

    Json cells = Json::array();
    for (const CellResult &r : results) {
        Json c = Json::object();
        c.set("label", Json::str(r.cell.label()));
        c.set("backend", Json::str(backendKindName(r.cell.backend)));
        c.set("workload", Json::str(workloadKindName(r.cell.workload)));
        c.set("cores", Json::number(std::uint64_t{r.cell.cores}));
        c.set("txs", Json::number(r.cell.txs));
        c.set("nvram_latency_multiplier",
              Json::number(r.cell.nvramLatencyMultiplier));
        c.set("ssp_cache_fixed_latency",
              Json::number(r.cell.sspCacheFixedLatency));
        // Each optional coordinate or metric group is emitted where the
        // cell departs from the paper machine, and on every cell of a
        // grid that always carries it (FigureSpec::emits), so the older
        // reports stay byte-identical.
        const FigureSpec *grid = findFigureSpec(r.cell.figure);
        const unsigned emits = grid != nullptr ? grid->emits : 0;
        if ((emits & kEmitChannels) != 0 || r.cell.nvramChannels != 1)
            c.set("nvram_channels",
                  Json::number(std::uint64_t{r.cell.nvramChannels}));
        if (r.cell.nvramDevice != NvramDevice::PaperPcm)
            c.set("nvram_device",
                  Json::str(nvramDeviceName(r.cell.nvramDevice)));
        if (r.cell.keyShards > 1)
            c.set("key_shards",
                  Json::number(std::uint64_t{r.cell.keyShards}));
        if (r.cell.conflictMode != ConflictMode::FirstCommitterWins)
            c.set("conflict_mode",
                  Json::str(conflictModeName(r.cell.conflictMode)));
        // Open-loop coordinates exist only on serve cells, so every
        // closed-loop report stays byte-identical.
        if (r.cell.offeredLoad > 0)
            c.set("arrival",
                  Json::str(serve::arrivalKindName(r.cell.arrival)));
        const bool coherence_axis =
            (emits & kEmitCoherence) != 0 ||
            r.cell.coherenceMode != CoherenceMode::Broadcast;
        if (coherence_axis) {
            c.set("coherence",
                  Json::str(coherenceModeName(r.cell.coherenceMode)));
        }
        // The cross-shard fraction exists only where 2PC can happen, so
        // the 1-machine cells' entries mirror the scale grid's shape.
        if ((emits & kEmitMachines) != 0 || r.cell.machines > 1)
            c.set("machines",
                  Json::number(std::uint64_t{r.cell.machines}));
        if (r.cell.machines > 1)
            c.set("cross_shard_pct",
                  Json::number(static_cast<std::uint64_t>(std::lround(
                      r.cell.crossShardFraction * 100))));
        // Fault rates are emitted in integer tenths, like the label, so
        // the document never depends on float formatting.
        if ((emits & kEmitFault) != 0 || r.cell.faultRate > 0 ||
            r.cell.replicate) {
            c.set("fault_rate_tenths",
                  Json::number(static_cast<std::uint64_t>(
                      std::lround(r.cell.faultRate * 10))));
            c.set("replicated", Json::boolean(r.cell.replicate));
        }
        // Seeds span the full 64-bit range, past the 2^53 integers a
        // JSON number can hold exactly — emit them as hex strings.
        char seed_hex[32];
        std::snprintf(seed_hex, sizeof(seed_hex), "0x%016llx",
                      static_cast<unsigned long long>(r.cell.scale.seed));
        c.set("seed", Json::str(seed_hex));
        c.set("ok", Json::boolean(r.ok));
        if (!r.ok) {
            c.set("error", Json::str(r.error));
            cells.push(std::move(c));
            continue;
        }

        Json m = Json::object();
        m.set("committed_txs", Json::number(r.run.committedTxs));
        m.set("cycles", Json::number(r.run.cycles));
        m.set("tps", Json::number(r.run.tps()));
        m.set("writes_per_tx", Json::number(r.run.writesPerTx()));
        m.set("avg_cycles_per_tx",
              Json::number(r.run.committedTxs > 0
                               ? static_cast<double>(r.run.cycles) /
                                     static_cast<double>(
                                         r.run.committedTxs)
                               : 0.0));
        m.set("nvram_writes", Json::number(r.run.nvramWrites));
        m.set("logging_writes", Json::number(r.run.loggingWrites));
        m.set("data_writes", Json::number(r.run.dataWrites));
        m.set("consolidation_writes",
              Json::number(r.run.consolidationWrites));
        m.set("checkpoint_writes", Json::number(r.run.checkpointWrites));
        m.set("journal_writes", Json::number(r.run.journalWrites));
        m.set("avg_lines_per_tx", Json::number(r.run.avgLinesPerTx));
        m.set("avg_pages_per_tx", Json::number(r.run.avgPagesPerTx));
        m.set("max_pages_per_tx", Json::number(r.run.maxPagesPerTx));
        // Multi-core-only metrics are gated on the core count so every
        // single-core report stays byte-identical to the 1-core model.
        if (r.cell.cores > 1 || (emits & kEmitPerCore) != 0) {
            Json busy = Json::array();
            for (std::uint64_t v : r.run.coreBusyCycles)
                busy.push(Json::number(v));
            m.set("core_busy_cycles", std::move(busy));
            Json per_core_txs = Json::array();
            for (std::uint64_t v : r.run.coreTxs)
                per_core_txs.push(Json::number(v));
            m.set("core_txs", std::move(per_core_txs));
            m.set("imbalance", Json::number(r.run.imbalance()));
            m.set("coherence_flips", Json::number(r.run.coherenceFlips));
            m.set("coherence_invalidations",
                  Json::number(r.run.coherenceInvalidations));
            m.set("coherence_shootdowns",
                  Json::number(r.run.coherenceShootdowns));
            // Interconnect traffic: the message count exists wherever
            // the coherence coordinate does (it is the broadcast-vs-
            // directory comparison axis); the directory-only counters
            // exist iff the cell ran the directory model.
            if (coherence_axis) {
                m.set("coherence_messages",
                      Json::number(r.run.coherenceMessages));
            }
            if (r.cell.coherenceMode == CoherenceMode::Directory) {
                m.set("directory_lookups",
                      Json::number(r.run.directoryLookups));
                m.set("hop_traversal_cycles",
                      Json::number(r.run.hopTraversalCycles));
                m.set("snoop_filter_evictions",
                      Json::number(r.run.snoopFilterEvictions));
                m.set("back_invalidations",
                      Json::number(r.run.backInvalidations));
            }
            m.set("tx_aborts", Json::number(r.run.txAborts));
            m.set("tx_retries", Json::number(r.run.txRetries));
            m.set("conflicts_write_write",
                  Json::number(r.run.conflictsWriteWrite));
            m.set("conflicts_read_write",
                  Json::number(r.run.conflictsReadWrite));
            m.set("backoff_cycles", Json::number(r.run.backoffCycles));
        }
        // 2PC and network metrics exist only where a network exists:
        // multi-machine cells.  1-machine shard cells keep the exact
        // single-machine metrics schema, so their metrics equal the
        // scale grid's c4 cells byte for byte
        // (SweepSchema.ShardCheckedInReportKeeps2pcSchemaAndScaleTwins).
        if (r.cell.machines > 1) {
            m.set("single_shard_txs",
                  Json::number(r.shardTx.singleShardTxs));
            m.set("cross_shard_txs",
                  Json::number(r.shardTx.crossShardTxs));
            m.set("prepare_round_trips",
                  Json::number(r.shardTx.prepareRoundTrips));
            m.set("cross_shard_aborts",
                  Json::number(r.shardTx.crossShardAborts));
            m.set("coordinator_stall_cycles",
                  Json::number(r.shardTx.coordinatorStallCycles));
            m.set("network_messages", Json::number(r.networkMessages));
            m.set("network_cycles", Json::number(r.networkCycles));
            Json shard_cycles = Json::array();
            for (const RunResult &s : r.shardRuns)
                shard_cycles.push(Json::number(s.cycles));
            m.set("shard_cycles", std::move(shard_cycles));
            Json shard_txs = Json::array();
            for (const RunResult &s : r.shardRuns)
                shard_txs.push(Json::number(s.committedTxs));
            m.set("shard_committed_txs", std::move(shard_txs));
        }
        // Fault-harness metrics exist iff the cell could inject faults
        // (rate > 0): a zero-rate cell ran the byte-identical reliable
        // model and must not grow schema.  Replication metrics exist
        // iff replication was on — including at rate 0, where shipping
        // still prices every commit.
        if (r.cell.faultRate > 0) {
            m.set("injected_power_fails",
                  Json::number(r.faultStats.powerFails));
            m.set("coordinator_crashes",
                  Json::number(r.faultStats.coordinatorCrashes));
            m.set("participant_crashes",
                  Json::number(r.faultStats.participantCrashes));
            m.set("recoveries", Json::number(r.faultStats.recoveries));
            m.set("failovers", Json::number(r.faultStats.failovers));
            m.set("recovery_stall_cycles",
                  Json::number(r.faultStats.recoveryStallCycles));
            m.set("failover_stall_cycles",
                  Json::number(r.faultStats.failoverStallCycles));
            m.set("presumed_aborts",
                  Json::number(r.faultStats.presumedAborts));
            m.set("decision_records",
                  Json::number(r.faultStats.decisionRecords));
            m.set("messages_lost",
                  Json::number(r.faultStats.messagesLost));
            m.set("rpc_retries", Json::number(r.faultStats.rpcRetries));
            m.set("rpc_timeout_stall_cycles",
                  Json::number(r.faultStats.rpcTimeoutStallCycles));
            m.set("committed_despite_faults",
                  Json::number(r.faultStats.committedDespiteFaults));
        }
        if (r.cell.replicate) {
            m.set("log_ship_messages",
                  Json::number(r.faultStats.logShipMessages));
            m.set("log_ship_cycles",
                  Json::number(r.faultStats.logShipCycles));
        }
        // Tail-latency metrics exist only on open-loop serve cells —
        // a closed-loop run has no queues, so no request ever waits.
        if (r.cell.offeredLoad > 0) {
            m.set("p50_cycles", Json::number(r.run.p50Cycles));
            m.set("p99_cycles", Json::number(r.run.p99Cycles));
            m.set("p999_cycles", Json::number(r.run.p999Cycles));
            m.set("mean_queue_depth",
                  Json::number(r.run.meanQueueDepth));
            m.set("rejected_txs", Json::number(r.run.rejectedTxs));
            m.set("offered_load", Json::number(r.run.offeredLoad));
        }
        c.set("metrics", std::move(m));
        cells.push(std::move(c));
    }
    doc.set("cells", std::move(cells));
    return doc;
}

} // namespace ssp::sweep

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
#include "sim/metrics.hh"
#include "sim/system_builder.hh"

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
    doc.set("schema", Json::str("ssp-bench-report-v2"));
    doc.set("figure", Json::str(figure));
    doc.set("cell_count", Json::number(
        static_cast<std::uint64_t>(results.size())));

    Json cells = Json::array();
    for (const CellResult &r : results) {
        // Every cell carries every coordinate and, when it ran, every
        // metric of the list (sim/metrics.hh).
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
        c.set("nvram_channels",
              Json::number(std::uint64_t{r.cell.nvramChannels}));
        c.set("key_shards", Json::number(std::uint64_t{r.cell.keyShards}));
        // The arrival process shapes only open-loop cells
        // (offered_load > 0).
        c.set("arrival", Json::str(serve::arrivalKindName(r.cell.arrival)));
        c.set("coherence",
              Json::str(coherenceModeName(r.cell.coherenceMode)));
        c.set("machines", Json::number(std::uint64_t{r.cell.machines}));
        // Percent and tenths, like the label, so the document never
        // depends on float formatting.
        c.set("cross_shard_pct",
              Json::number(static_cast<std::uint64_t>(
                  std::lround(r.cell.crossShardFraction * 100))));
        c.set("fault_rate_tenths",
              Json::number(static_cast<std::uint64_t>(
                  std::lround(r.cell.faultRate * 10))));
        c.set("replicated", Json::boolean(r.cell.replicate));
        // Seeds span the full 64-bit range, past the 2^53 integers a
        // JSON number can hold exactly — emit them as hex strings.
        char seed_hex[32];
        std::snprintf(seed_hex, sizeof(seed_hex), "0x%016llx",
                      static_cast<unsigned long long>(r.cell.scale.seed));
        c.set("seed", Json::str(seed_hex));
        c.set("ok", Json::boolean(r.ok));
        if (r.ok) {
            Json m = Json::object();
            for (const Metric &metric : metricList())
                m.set(metric.name, metricValue(metric, r));
            c.set("metrics", std::move(m));
        } else {
            c.set("error", Json::str(r.error));
        }
        cells.push(std::move(c));
    }
    doc.set("cells", std::move(cells));
    return doc;
}

} // namespace ssp::sweep

#include "sweep/sweep_grid.hh"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/logging.hh"

namespace ssp::sweep
{

ConflictMode
parseConflictMode(const std::string &name)
{
    if (name == "fcw")
        return ConflictMode::FirstCommitterWins;
    if (name == "lazy")
        return ConflictMode::Lazy;
    if (name == "off")
        return ConflictMode::Off;
    ssp_fatal("unknown conflict mode '%s' (expected fcw, lazy or off)",
              name.c_str());
}

const char *
conflictModeName(ConflictMode mode)
{
    switch (mode) {
      case ConflictMode::FirstCommitterWins:
        return "fcw";
      case ConflictMode::Lazy:
        return "lazy";
      case ConflictMode::Off:
        return "off";
    }
    ssp_panic("unreachable conflict mode");
}

const char *
coherenceModeName(CoherenceMode mode)
{
    switch (mode) {
      case CoherenceMode::Broadcast:
        return "broadcast";
      case CoherenceMode::Directory:
        return "directory";
    }
    ssp_panic("unreachable coherence mode");
}

std::vector<std::string>
splitCommas(const std::string &list)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= list.size()) {
        std::size_t comma = list.find(',', start);
        if (comma == std::string::npos)
            comma = list.size();
        if (comma > start)
            out.push_back(list.substr(start, comma - start));
        start = comma + 1;
    }
    return out;
}

std::uint64_t
parseCount(const std::string &flag, const std::string &value,
           std::uint64_t max_value)
{
    // Digits only: stoull alone would skip leading blanks, accept a
    // sign, and wrap "-1" to 2^64-1.
    unsigned long long v = 0;
    if (!value.empty() &&
        value.find_first_not_of("0123456789") == std::string::npos) {
        try {
            v = std::stoull(value);
        } catch (const std::out_of_range &) {
            v = 0;
        }
    }
    if (v == 0 || v > max_value) {
        ssp_fatal("%s must be an integer in [1, %llu], got '%s'",
                  flag.c_str(), static_cast<unsigned long long>(max_value),
                  value.c_str());
    }
    return v;
}

std::vector<unsigned>
parseCountList(const std::string &flag, const std::string &list,
               unsigned max_value)
{
    std::vector<unsigned> out;
    for (const std::string &item : splitCommas(list))
        out.push_back(
            static_cast<unsigned>(parseCount(flag, item, max_value)));
    if (out.empty())
        ssp_fatal("%s: empty count list", flag.c_str());
    return out;
}

std::vector<double>
parseLoadList(const std::string &flag, const std::string &list)
{
    std::vector<double> out;
    for (const std::string &item : splitCommas(list)) {
        double v = 0;
        try {
            std::size_t used = 0;
            v = std::stod(item, &used);
            if (used != item.size())
                v = 0; // trailing junk ("0.6x") is invalid too
        } catch (const std::exception &) {
            v = 0;
        }
        if (!(v > 0) || v > 10) {
            ssp_fatal("%s values must be decimals in (0, 10], got '%s'",
                      flag.c_str(), item.c_str());
        }
        out.push_back(v);
    }
    if (out.empty())
        ssp_fatal("%s: empty load list", flag.c_str());
    return out;
}

std::vector<double>
parseFaultRateList(const std::string &flag, const std::string &list)
{
    std::vector<double> out;
    for (const std::string &item : splitCommas(list)) {
        double v = -1;
        try {
            std::size_t used = 0;
            v = std::stod(item, &used);
            if (used != item.size())
                v = -1; // trailing junk ("5x") is invalid too
        } catch (const std::exception &) {
            v = -1;
        }
        if (v < 0 || v > 1000) {
            ssp_fatal("%s values must be decimals in [0, 1000], got '%s'",
                      flag.c_str(), item.c_str());
        }
        out.push_back(v);
    }
    if (out.empty())
        ssp_fatal("%s: empty fault-rate list", flag.c_str());
    return out;
}

std::vector<bool>
parseReplicateModes(const std::string &value)
{
    if (value == "off")
        return {false};
    if (value == "on")
        return {true};
    if (value == "both")
        return {false, true};
    ssp_fatal("--replicate must be 'off', 'on' or 'both', got '%s'",
              value.c_str());
}

SspConfig
paperConfig(unsigned cores)
{
    SspConfig cfg;
    cfg.numCores = cores;
    cfg.heapPages = 1 << 15; // 128 MiB persistent heap
    cfg.logPages = 8192;
    // Paper section 5.1: 0.3% of the 12 MiB L3 caches about 1K SSP
    // cache entries.
    cfg.sspCacheSlots = 1024;
    cfg.shadowPoolPages = cfg.sspCacheSlots + 1024;
    return cfg;
}

WorkloadScale
paperScale()
{
    WorkloadScale scale;
    // Deep enough trees that per-transaction write sets approach the
    // paper's Table 3 characterization.
    scale.keySpace = 32768;
    scale.spsElements = 1 << 16;
    scale.seed = 42;
    return scale;
}

SspConfig
SweepCell::config() const
{
    SspConfig cfg = base;
    cfg.numCores = cores;
    cfg.nvramLatencyMultiplier = nvramLatencyMultiplier;
    if (sspCacheFixedLatency != 0)
        cfg.sspCacheLatency.fixedLatency = sspCacheFixedLatency;
    if (nvramDevice != NvramDevice::PaperPcm)
        cfg.applyNvramDevice(nvramDevice);
    if (nvramChannels != 1)
        cfg.nvramChannels = nvramChannels;
    if (conflictMode == ConflictMode::Off)
        cfg.conflicts.enabled = false;
    else if (conflictMode == ConflictMode::Lazy)
        cfg.conflicts.validation = ConflictValidation::Lazy;
    cfg.coherence.mode = coherenceMode;
    return cfg;
}

std::string
SweepCell::label() const
{
    std::string out = figure + "/" + backendKindName(backend) + "/" +
                      workloadKindName(workload) + "/c" +
                      std::to_string(cores);
    if (nvramLatencyMultiplier > 0)
        out += "/nvram-x" + std::to_string(
                   static_cast<unsigned>(nvramLatencyMultiplier));
    if (sspCacheFixedLatency != 0)
        out += "/sspcache-" + std::to_string(sspCacheFixedLatency);
    if (nvramChannels != 1)
        out += "/ch" + std::to_string(nvramChannels);
    if (nvramDevice != NvramDevice::PaperPcm)
        out += std::string("/") + nvramDeviceName(nvramDevice);
    if (keyShards > 1)
        out += "/p" + std::to_string(keyShards);
    if (conflictMode != ConflictMode::FirstCommitterWins)
        out += std::string("/cc-") + conflictModeName(conflictMode);
    if (coherenceMode == CoherenceMode::Directory)
        out += "/dir";
    // Cluster coordinates: every shard-grid cell names its machine
    // count (m1 included, so the fast-path cells are self-describing);
    // the cross-shard fraction exists only where 2PC is possible, in
    // percent for byte-stable labels ("x10").
    if (figure == "shard" || figure == "fault" || machines > 1)
        out += "/m" + std::to_string(machines);
    if (machines > 1)
        out += "/x" + std::to_string(
                   std::lround(crossShardFraction * 100));
    // Fault coordinates, in tenths ("f50" = rate 5.0) for byte-stable
    // labels; every fault-grid cell names its rate (f0 included) so the
    // zero-fault baseline points are self-describing.
    if (figure == "fault" || faultRate > 0)
        out += "/f" + std::to_string(std::lround(faultRate * 10));
    if (replicate)
        out += "/rep";
    if (offeredLoad > 0) {
        // Loads are encoded in percent ("load120") — integers keep the
        // label byte-stable regardless of float-formatting locale.
        out += std::string("/") + serve::arrivalKindName(arrival) +
               "/load" +
               std::to_string(std::lround(offeredLoad * 100));
    }
    return out;
}

std::uint64_t
deriveCellSeed(std::uint64_t base_seed, std::uint64_t ordinal)
{
    std::uint64_t z = base_seed + 0x9e3779b97f4a7c15ull * (ordinal + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::vector<std::string>
knownFigures()
{
    // (Trailing comma: one name per line keeps this list append-only
    // in diffs as grids accumulate.)
    return {
        "fig5",
        "fig6",
        "fig7",
        "fig8",
        "fig9",
        "table3",
        "table45",
        "chan",
        "scale",
        "scale64",
        "scale256",
        "queue",
        "shard",
        "fault",
        "smoke",
    };
}

namespace
{

/** Small machine for the CI smoke grid (mirrors the test config). */
SspConfig
smokeConfig()
{
    SspConfig cfg;
    cfg.numCores = 1;
    cfg.heapPages = 512;
    cfg.shadowPoolPages = 600;
    cfg.journalPages = 64;
    cfg.logPages = 512;
    cfg.dramPages = 64;
    cfg.checkpointThresholdBytes = 16 * 1024;
    return cfg;
}

/**
 * The "big" machine: a 64-core-class server the 16-64-core scale64
 * grid runs on.  Everything the core count stresses is sized up from
 * the paper's Table 2 desktop part: a 96 MiB shared L3 (with the
 * longer lookup of a larger NUCA array), an SSP cache provisioned for
 * 64 cores x 64 TLB entries with slack, a journal/log area that fits
 * the larger slot array's persistent lines, and a deeper shadow pool.
 * The configuration is identical at every core count so the scaling
 * axis measures cores, not machine-size side effects.
 */
SspConfig
bigConfig(unsigned cores)
{
    SspConfig cfg;
    cfg.numCores = cores;
    cfg.heapPages = 1 << 15; // 128 MiB persistent heap
    cfg.logPages = 16384;    // 64 MiB undo/redo log area
    cfg.journalPages = 1024; // fits the 8K-slot journal + headroom
    cfg.sspCacheSlots = 8192;
    cfg.shadowPoolPages = cfg.sspCacheSlots + 2048;
    cfg.dramPages = 8192;
    cfg.caches.l3 = CacheParams{"l3", 96 * 1024 * 1024, 16, 42};
    return cfg;
}

/**
 * The mesh machine: the 256-core-class part the scale256 grid runs on.
 * Scaled up from bigConfig the same way bigConfig scales the desktop
 * part: an SSP cache provisioned for 256 cores x 64 TLB entries with
 * slack, a journal that fits the larger slot array, and a deeper
 * shadow pool.  The configuration is identical at every core count and
 * under both coherence models, so those axes measure the interconnect,
 * not machine-size side effects.
 */
SspConfig
meshConfig(unsigned cores)
{
    SspConfig cfg;
    cfg.numCores = cores;
    cfg.heapPages = 1 << 15; // 128 MiB persistent heap
    // 256 MiB log area: 256 staggered per-core undo/redo regions need
    // per_core > numCores * rowBufferBytes, i.e. > 128 MiB total.
    cfg.logPages = 65536;
    cfg.journalPages = 2048; // fits the 16K-slot journal + headroom
    cfg.sspCacheSlots = 16384;
    cfg.shadowPoolPages = cfg.sspCacheSlots + 4096;
    cfg.dramPages = 8192;
    cfg.caches.l3 = CacheParams{"l3", 96 * 1024 * 1024, 16, 42};
    return cfg;
}

/** Workloads in Table 3 (paper) order, for the table3 grid. */
std::vector<WorkloadKind>
table3Order()
{
    return {WorkloadKind::RbTreeRand, WorkloadKind::BTreeRand,
            WorkloadKind::HashRand,   WorkloadKind::Sps,
            WorkloadKind::RbTreeZipf, WorkloadKind::BTreeZipf,
            WorkloadKind::HashZipf,   WorkloadKind::Memcached,
            WorkloadKind::Vacation};
}

/** Channel counts the chan grid sweeps by default. */
std::vector<unsigned>
defaultChannelList()
{
    return {1, 2, 4, 8};
}

/** Core counts the scale grid sweeps by default. */
std::vector<unsigned>
defaultCoreList()
{
    return {1, 2, 4, 8};
}

/** Core counts the scale64 grid sweeps by default. */
std::vector<unsigned>
defaultBigCoreList()
{
    return {1, 2, 4, 8, 16, 32, 64};
}

/** Core counts the scale256 grid sweeps by default: the scale64 axis
 *  decimated to keep the doubled (broadcast x directory) grid
 *  affordable, extended past it to the mesh machine's full 256. */
std::vector<unsigned>
defaultMeshCoreList()
{
    return {1, 4, 16, 64, 128, 256};
}

/** Core counts the queue grid sweeps by default. */
std::vector<unsigned>
defaultQueueCoreList()
{
    return {4, 16};
}

/** Offered-load factors the queue grid sweeps by default: comfortable,
 *  moderate, near-saturation and past-saturation. */
std::vector<double>
defaultLoadList()
{
    return {0.3, 0.6, 0.9, 1.2};
}

/** Cluster sizes the shard grid sweeps by default. */
std::vector<unsigned>
defaultMachineList()
{
    return {1, 2, 4, 8};
}

/** Cluster sizes the fault grid sweeps by default (smaller than the
 *  shard grid: every fault axis doubles the cell count). */
std::vector<unsigned>
defaultFaultMachineList()
{
    return {1, 2, 4};
}

/** Fault rates (failures per Mcycle per machine) the fault grid sweeps
 *  by default: the armed-but-quiet baseline, a rare-failure regime and
 *  a torture regime (roughly one failure per 50 kcycles per machine). */
std::vector<double>
defaultFaultRateList()
{
    return {0, 5, 20};
}

/** Cross-shard fractions the shard grid sweeps: partitionable, lightly
 *  entangled, and heavily entangled transactions (a fixed axis — the
 *  fraction is a workload property, not a deployment knob). */
std::vector<double>
shardCrossFractions()
{
    return {0, 0.1, 0.5};
}

/** Cores each shard-grid machine runs: the scale grid's 4-core point,
 *  so the 1-machine cells replay the checked-in scale c4 cells. */
constexpr unsigned kShardCores = 4;

/** The three paper designs every scaling grid compares. */
std::vector<BackendKind>
scaleBackends()
{
    return {BackendKind::Ssp, BackendKind::UndoLog, BackendKind::RedoLog};
}

/** Workloads whose keyed operations the scaling grids partition into
 *  per-core shards (the no-sharing scenario). */
bool
partitionedWorkload(WorkloadKind w)
{
    return w == WorkloadKind::BTreeRand || w == WorkloadKind::HashRand;
}

/** Workloads of the queue grid: one point per sharing scenario —
 *  shared-uniform (SPS), Zipf-contended (BTree) and partitioned
 *  (Hash-Rand, per-core key shards). */
std::vector<WorkloadKind>
queueWorkloads()
{
    return {WorkloadKind::Sps, WorkloadKind::BTreeZipf,
            WorkloadKind::HashRand};
}

/** Workloads of the shard grid (the queue grid's three scenarios).
 *  Expressed as a membership test because the shard grid walks the full
 *  scale plane to pin seed ordinals (see the generator). */
bool
shardWorkload(WorkloadKind w)
{
    return w == WorkloadKind::Sps || w == WorkloadKind::BTreeZipf ||
           w == WorkloadKind::HashRand;
}

/** Workloads of the scale grid: shared-uniform (SPS), partitioned
 *  (-Rand, per-core key shards) and Zipf-contended (shared hotspot)
 *  scenarios.  SPS first so the (SPS, SSP) seed ordinal is 0 — the
 *  same stream as the smoke grid's only cell; RbTree-Zipf was appended
 *  (not inserted) when conflict handling landed, so every older cell
 *  keeps its pinned seed ordinal and replays its original stream. */
std::vector<WorkloadKind>
scaleWorkloads()
{
    return {WorkloadKind::Sps,       WorkloadKind::BTreeRand,
            WorkloadKind::HashRand,  WorkloadKind::BTreeZipf,
            WorkloadKind::HashZipf,  WorkloadKind::RbTreeZipf};
}

/**
 * Emit one cell per (workload, backend) with the seed ordinal pinned to
 * the pair's position in the plane — the pinning idiom every axis-sweep
 * grid (chan, scale, scale64, queue) shares: cells that differ only in
 * the swept axis value replay the identical operation stream, so the
 * axis measures machine effects, not reseeded noise.  @p customize
 * fills each cell's axis-specific knobs (machine config, cores,
 * channels, load, sharding) before it is emitted.
 */
template <typename CustomizeFn, typename EmitFn>
void
emitSeedPinnedPlane(const std::vector<WorkloadKind> &workloads,
                    const std::vector<BackendKind> &backends,
                    std::uint64_t txs, CustomizeFn &&customize,
                    EmitFn &&emit)
{
    std::int64_t seed_ordinal = 0;
    for (WorkloadKind w : workloads) {
        for (BackendKind b : backends) {
            SweepCell cell;
            cell.backend = b;
            cell.workload = w;
            cell.seedOrdinal = seed_ordinal++;
            cell.txs = txs;
            customize(cell);
            emit(std::move(cell));
        }
    }
}

/** Generates the unfiltered grid for one figure via emit(). */
template <typename EmitFn>
void
generateCells(const std::string &figure, std::uint64_t txs,
              const SweepGridOptions &opts, EmitFn &&emit)
{
    if (figure == "fig5") {
        // Throughput, (a) one thread and (b) four threads.
        for (unsigned cores : {1u, 4u}) {
            for (WorkloadKind w : microbenchmarks()) {
                for (BackendKind b : paperBackends()) {
                    SweepCell cell;
                    cell.backend = b;
                    cell.workload = w;
                    cell.cores = cores;
                    cell.base = paperConfig(cores);
                    cell.txs = txs;
                    emit(std::move(cell));
                }
            }
        }
    } else if (figure == "fig6" || figure == "fig7") {
        // Logging writes (fig6) / total NVRAM writes + breakdown (fig7):
        // the same single-threaded microbenchmark runs; the report
        // carries every write category, so the grids coincide.
        for (WorkloadKind w : microbenchmarks()) {
            for (BackendKind b : paperBackends()) {
                SweepCell cell;
                cell.backend = b;
                cell.workload = w;
                cell.base = paperConfig(1);
                cell.txs = txs;
                emit(std::move(cell));
            }
        }
    } else if (figure == "fig8") {
        // NVRAM-latency sensitivity for RBTree-Rand (8a), BTree-Rand (8b).
        for (WorkloadKind w :
             {WorkloadKind::RbTreeRand, WorkloadKind::BTreeRand}) {
            for (double mult : {1.0, 3.0, 5.0, 7.0, 9.0}) {
                for (BackendKind b : paperBackends()) {
                    SweepCell cell;
                    cell.backend = b;
                    cell.workload = w;
                    cell.base = paperConfig(1);
                    cell.nvramLatencyMultiplier = mult;
                    cell.txs = txs;
                    emit(std::move(cell));
                }
            }
        }
    } else if (figure == "fig9") {
        // SSP-cache latency sensitivity: one latency-independent
        // REDO-LOG baseline per workload, then SSP across the sweep.
        for (WorkloadKind w : microbenchmarks()) {
            SweepCell cell;
            cell.backend = BackendKind::RedoLog;
            cell.workload = w;
            cell.base = paperConfig(1);
            cell.txs = txs;
            emit(std::move(cell));
        }
        for (Cycles lat : {20u, 60u, 100u, 140u, 180u}) {
            for (WorkloadKind w : microbenchmarks()) {
                SweepCell cell;
                cell.backend = BackendKind::Ssp;
                cell.workload = w;
                cell.base = paperConfig(1);
                cell.sspCacheFixedLatency = lat;
                cell.txs = txs;
                emit(std::move(cell));
            }
        }
    } else if (figure == "table3") {
        // Write-set characterization: SSP across all nine workloads.
        for (WorkloadKind w : table3Order()) {
            SweepCell cell;
            cell.backend = BackendKind::Ssp;
            cell.workload = w;
            cell.base = paperConfig(1);
            cell.txs = txs;
            emit(std::move(cell));
        }
    } else if (figure == "table45") {
        // Real workloads, four clients.
        for (WorkloadKind w : realWorkloads()) {
            for (BackendKind b : paperBackends()) {
                SweepCell cell;
                cell.backend = b;
                cell.workload = w;
                cell.cores = 4;
                cell.base = paperConfig(4);
                cell.txs = txs;
                emit(std::move(cell));
            }
        }
    } else if (figure == "chan") {
        // Channel scaling: every design x microbenchmark across the
        // NVRAM channel counts.  Page-granular interleaving keeps each
        // page's row locality inside one channel; the seed ordinal is
        // pinned per (workload, backend) so every channel count replays
        // the identical operation stream.
        const std::vector<unsigned> channel_list =
            opts.channels.empty() ? defaultChannelList() : opts.channels;
        for (unsigned channels : channel_list) {
            emitSeedPinnedPlane(
                microbenchmarks(), paperBackends(), txs,
                [&](SweepCell &cell) {
                    cell.base = paperConfig(1);
                    cell.base.interleaveGranularity =
                        InterleaveGranularity::Page;
                    cell.nvramChannels = channels;
                },
                emit);
        }
    } else if (figure == "scale") {
        // Core scaling on the smoke machine: every paper design across
        // core counts and three sharing scenarios — shared-uniform
        // (SPS), partitioned (-Rand workloads confine each core to its
        // own key shard) and Zipf-contended (shared 80/15 hotspot).
        // Seed ordinals are pinned per (workload, backend) so every
        // core count replays the identical key stream, and SSP comes
        // first so the (SPS, SSP, 1 core) cell is stream-identical to
        // the smoke cell — scripts/check.sh diffs the two to catch
        // single-core timing regressions.
        const std::vector<unsigned> core_list =
            opts.coreCounts.empty() ? defaultCoreList() : opts.coreCounts;
        for (unsigned cores : core_list) {
            emitSeedPinnedPlane(
                scaleWorkloads(), scaleBackends(), txs,
                [&](SweepCell &cell) {
                    cell.cores = cores;
                    cell.base = smokeConfig();
                    if (partitionedWorkload(cell.workload) && cores > 1)
                        cell.keyShards = cores;
                },
                emit);
        }
    } else if (figure == "scale64") {
        // Core scaling on the big machine: the same designs and
        // sharing scenarios as the scale grid, but on a 64-core-class
        // server configuration and with the full paper workload scale,
        // across cores up to 64.  Seed ordinals are pinned per
        // (workload, backend), so every core count replays the
        // identical key stream — the scaling curves measure coherence,
        // contention and conflict effects on the same work.
        const std::vector<unsigned> core_list =
            opts.coreCounts.empty() ? defaultBigCoreList()
                                    : opts.coreCounts;
        for (unsigned cores : core_list) {
            emitSeedPinnedPlane(
                scaleWorkloads(), scaleBackends(), txs,
                [&](SweepCell &cell) {
                    cell.cores = cores;
                    cell.base = bigConfig(cores);
                    if (partitionedWorkload(cell.workload) && cores > 1)
                        cell.keyShards = cores;
                },
                emit);
        }
    } else if (figure == "scale256") {
        // Interconnect scaling on the mesh machine: the three paper
        // designs x three sharing scenarios (shared-uniform SPS,
        // Zipf-contended BTree, partitioned Hash-Rand), each cell run
        // once under the flat broadcast bus and once under the 2D-mesh
        // home-node directory, across cores up to 256.  Seed ordinals
        // are pinned per (workload, backend), so the two coherence
        // models — and every core count — replay the identical
        // operation stream: any traffic or cycle difference is the
        // interconnect, not reseeded noise.
        const std::vector<unsigned> core_list =
            opts.coreCounts.empty() ? defaultMeshCoreList()
                                    : opts.coreCounts;
        for (unsigned cores : core_list) {
            for (CoherenceMode mode :
                 {CoherenceMode::Broadcast, CoherenceMode::Directory}) {
                emitSeedPinnedPlane(
                    queueWorkloads(), scaleBackends(), txs,
                    [&](SweepCell &cell) {
                        cell.cores = cores;
                        cell.base = meshConfig(cores);
                        cell.coherenceMode = mode;
                        if (partitionedWorkload(cell.workload) &&
                            cores > 1) {
                            cell.keyShards = cores;
                        }
                    },
                    emit);
            }
        }
    } else if (figure == "queue") {
        // Open-loop tail latency on the big machine: the three paper
        // designs x three sharing scenarios under open-loop arrivals at
        // offered loads from comfortable (0.3x measured closed-loop
        // capacity) to past saturation (1.2x), at 4 and 16 cores.  Seed
        // ordinals are pinned per (workload, backend), so every
        // (cores, load) point replays the identical key stream — the
        // load axis measures queueing delay, not reseeded noise.
        const std::vector<unsigned> core_list =
            opts.coreCounts.empty() ? defaultQueueCoreList()
                                    : opts.coreCounts;
        const std::vector<double> load_list =
            opts.loads.empty() ? defaultLoadList() : opts.loads;
        for (unsigned cores : core_list) {
            for (double load : load_list) {
                emitSeedPinnedPlane(
                    queueWorkloads(), scaleBackends(), txs,
                    [&](SweepCell &cell) {
                        cell.cores = cores;
                        cell.base = bigConfig(cores);
                        cell.offeredLoad = load;
                        cell.arrival = opts.arrival;
                        if (partitionedWorkload(cell.workload) &&
                            cores > 1) {
                            cell.keyShards = cores;
                        }
                    },
                    emit);
            }
        }
    } else if (figure == "shard") {
        // Multi-machine scaling on the smoke machine: the three paper
        // designs x three sharing scenarios across cluster sizes and
        // cross-shard fractions, 4 cores per machine.  Seed ordinals
        // are pinned to the (workload, backend) position in the *scale*
        // plane — not this grid's own — so every machine count and
        // fraction replays the scale grid's exact streams, and the
        // 1-machine cells are cycle-identical to the checked-in
        // BENCH_scale.json c4 cells (scripts/check.sh diffs the two).
        const std::vector<unsigned> machine_list =
            opts.machines.empty() ? defaultMachineList() : opts.machines;
        for (unsigned machines : machine_list) {
            for (double frac : shardCrossFractions()) {
                // One machine has no peers: only the frac=0 fast-path
                // point exists.
                if (machines == 1 && frac > 0)
                    continue;
                std::int64_t plane_ordinal = 0;
                for (WorkloadKind w : scaleWorkloads()) {
                    for (BackendKind b : scaleBackends()) {
                        const std::int64_t seed_ordinal =
                            plane_ordinal++;
                        if (!shardWorkload(w))
                            continue;
                        SweepCell cell;
                        cell.backend = b;
                        cell.workload = w;
                        cell.seedOrdinal = seed_ordinal;
                        cell.txs = txs;
                        cell.cores = kShardCores;
                        cell.base = smokeConfig();
                        cell.machines = machines;
                        cell.crossShardFraction = frac;
                        if (partitionedWorkload(w))
                            cell.keyShards = kShardCores;
                        emit(std::move(cell));
                    }
                }
            }
        }
    } else if (figure == "fault") {
        // Fault-injection grid on the smoke machine: the shard grid's
        // designs x sharing scenarios across cluster sizes, fault rates
        // and replication modes, 4 cores per machine, cross-shard
        // fraction 0.1 wherever 2PC is possible.  Seed ordinals are
        // pinned to the scale plane exactly like the shard grid, so the
        // rate-0 non-replicated cells replay the matching shard-grid
        // cells bit for bit (scripts/check.sh diffs the two) and every
        // fault axis perturbs the identical operation stream.
        const std::vector<unsigned> machine_list =
            opts.machines.empty() ? defaultFaultMachineList()
                                  : opts.machines;
        const std::vector<double> rate_list =
            opts.faultRates.empty() ? defaultFaultRateList()
                                    : opts.faultRates;
        const std::vector<bool> rep_list =
            opts.replicateModes.empty() ? std::vector<bool>{false, true}
                                        : opts.replicateModes;
        for (unsigned machines : machine_list) {
            for (double rate : rate_list) {
                for (bool rep : rep_list) {
                    std::int64_t plane_ordinal = 0;
                    for (WorkloadKind w : scaleWorkloads()) {
                        for (BackendKind b : scaleBackends()) {
                            const std::int64_t seed_ordinal =
                                plane_ordinal++;
                            if (!shardWorkload(w))
                                continue;
                            SweepCell cell;
                            cell.backend = b;
                            cell.workload = w;
                            cell.seedOrdinal = seed_ordinal;
                            cell.txs = txs;
                            cell.cores = kShardCores;
                            cell.base = smokeConfig();
                            cell.machines = machines;
                            cell.crossShardFraction =
                                machines > 1 ? 0.1 : 0;
                            cell.faultRate = rate;
                            cell.replicate = rep;
                            if (partitionedWorkload(w))
                                cell.keyShards = kShardCores;
                            emit(std::move(cell));
                        }
                    }
                }
            }
        }
    } else if (figure == "smoke") {
        // One tiny CI cell proving the whole pipeline end to end.
        SweepCell cell;
        cell.backend = BackendKind::Ssp;
        cell.workload = WorkloadKind::Sps;
        cell.base = smokeConfig();
        cell.txs = txs;
        emit(std::move(cell));
    } else {
        // List the known grids so a typo is a one-round-trip fix.
        std::string known;
        for (const std::string &name : knownFigures()) {
            if (!known.empty())
                known += ", ";
            known += name;
        }
        ssp_fatal("unknown sweep figure '%s' (known grids: %s)",
                  figure.c_str(), known.c_str());
    }
}

template <typename T>
bool
keepKind(const std::vector<T> &filter, T kind)
{
    return filter.empty() ||
           std::find(filter.begin(), filter.end(), kind) != filter.end();
}

} // namespace

std::vector<SweepCell>
buildFigureGrid(const std::string &figure, const SweepGridOptions &opts)
{
    std::uint64_t txs = opts.txs != 0 ? opts.txs : kDefaultTxs;
    // The scale grid shares the smoke machine and transaction budget so
    // its single-core cells stay directly comparable to the smoke cell;
    // the shard grid shares both so its 1-machine cells stay
    // cycle-identical to the scale grid's 4-core cells.
    if (opts.txs == 0 && (figure == "smoke" || figure == "scale" ||
                          figure == "shard" || figure == "fault")) {
        txs = 400;
    }
    // The scale64 grid runs the full paper workload scale; 2000
    // transactions per cell keeps the 126-cell grid affordable while
    // leaving each multi-core cell long enough to time meaningfully.
    if (opts.txs == 0 && figure == "scale64")
        txs = 2000;
    // The queue grid serves 2000 open-loop requests per cell — enough
    // samples for an exact-rank p999 while keeping the 72-cell grid
    // (plus per-cell calibration) affordable.
    if (opts.txs == 0 && figure == "queue")
        txs = 2000;
    // The scale256 grid doubles every cell (broadcast x directory);
    // 1000 transactions keep the 108-cell grid affordable while the
    // contended cells still generate thousands of coherence events.
    if (opts.txs == 0 && figure == "scale256")
        txs = 1000;

    // Only the chan grid sweeps channel counts; failing beats silently
    // handing back 1-channel cells labeled as a channel experiment.
    if (!opts.channels.empty() && figure != "chan") {
        ssp_fatal("the channels option only applies to the 'chan' grid, "
                  "not '%s'",
                  figure.c_str());
    }
    // Likewise, only the core-scaling grids sweep core counts...
    if (!opts.coreCounts.empty() && figure != "scale" &&
        figure != "scale64" && figure != "scale256" &&
        figure != "queue") {
        ssp_fatal("the cores option only applies to the 'scale', "
                  "'scale64', 'scale256' and 'queue' grids, not '%s'",
                  figure.c_str());
    }
    // Validate the requested core counts against the figure's machine
    // preset up front: a clean one-line diagnostic here beats a Machine
    // assert deep inside a sweep worker.  The scale/scale64/queue
    // machines are provisioned (SSP cache, journal, shadow pool) for at
    // most 64 cores; only the scale256 mesh machine goes to kMaxCores.
    {
        const unsigned figure_max = figure == "scale256" ? kMaxCores : 64;
        for (unsigned cores : opts.coreCounts) {
            if (cores > figure_max) {
                ssp_fatal("--cores %u exceeds the '%s' machine's %u-core "
                          "provisioning%s",
                          cores, figure.c_str(), figure_max,
                          figure_max < kMaxCores
                              ? " (use --figure scale256 for larger "
                                "machines)"
                              : "");
            }
        }
    }
    // ... and only the open-loop queue grid sweeps offered loads ...
    if (!opts.loads.empty() && figure != "queue") {
        ssp_fatal("the loads option only applies to the 'queue' grid, "
                  "not '%s'",
                  figure.c_str());
    }
    // ... and only the cluster grids sweep cluster sizes ...
    if (!opts.machines.empty() && figure != "shard" &&
        figure != "fault") {
        ssp_fatal("the machines option only applies to the 'shard' and "
                  "'fault' grids, not '%s'",
                  figure.c_str());
    }
    // ... and only the fault grid sweeps fault rates and replication.
    if (!opts.faultRates.empty() && figure != "fault") {
        ssp_fatal("the fault-rate option only applies to the 'fault' "
                  "grid, not '%s'",
                  figure.c_str());
    }
    if (!opts.replicateModes.empty() && figure != "fault") {
        ssp_fatal("the replicate option only applies to the 'fault' "
                  "grid, not '%s'",
                  figure.c_str());
    }
    // Per-cell key sharding is a grid decision (the scale grid's
    // partitioned scenario); failing beats silently dropping a
    // caller-supplied value.
    if (opts.scale.keyShards != 1) {
        ssp_fatal("WorkloadScale.keyShards is set per cell by the grid; "
                  "it cannot be passed through SweepGridOptions");
    }

    std::vector<SweepCell> cells;
    std::uint64_t ordinal = 0;
    generateCells(figure, txs, opts, [&](SweepCell cell) {
        cell.figure = figure;
        cell.scale = opts.scale;
        cell.scale.keyShards = cell.keyShards;
        cell.nvramDevice = opts.nvramDevice;
        cell.conflictMode = opts.conflictMode;
        if (figure == "smoke" || figure == "scale" ||
            figure == "shard" || figure == "fault") {
            // Keep the cells proportionate to their tiny machine (and
            // the scale/shard/fault grids' streams identical to the
            // smoke cell's plane).
            cell.scale.keySpace = std::min<std::uint64_t>(
                cell.scale.keySpace, 1024);
            cell.scale.spsElements = std::min<std::uint64_t>(
                cell.scale.spsElements, 4096);
        }
        // Seeds are assigned by unfiltered ordinal so a cell's stream
        // is stable no matter which backend/workload filters apply; a
        // grid may pin the ordinal instead (chan: identical streams
        // across channel counts).
        const std::uint64_t seed_ordinal =
            cell.seedOrdinal >= 0
                ? static_cast<std::uint64_t>(cell.seedOrdinal)
                : ordinal;
        ++ordinal;
        cell.scale.seed = deriveCellSeed(opts.scale.seed, seed_ordinal);
        if (keepKind(opts.backends, cell.backend) &&
            keepKind(opts.workloads, cell.workload)) {
            cells.push_back(std::move(cell));
        }
    });
    return cells;
}

} // namespace ssp::sweep

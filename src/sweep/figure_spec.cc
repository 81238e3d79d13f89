#include "sweep/figure_spec.hh"

#include <algorithm>


namespace ssp::sweep
{

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

namespace
{

/** Small machine for the smoke grid and the grids that replay its
 *  streams (mirrors the test config). */
SspConfig
smokeConfig(unsigned cores)
{
    SspConfig cfg;
    cfg.numCores = cores;
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

/** Workloads in Table 3 (paper) order. */
std::vector<WorkloadKind>
table3Order()
{
    return {WorkloadKind::RbTreeRand, WorkloadKind::BTreeRand,
            WorkloadKind::HashRand,   WorkloadKind::Sps,
            WorkloadKind::RbTreeZipf, WorkloadKind::BTreeZipf,
            WorkloadKind::HashZipf,   WorkloadKind::Memcached,
            WorkloadKind::Vacation};
}

/** The three paper designs, in the order every scaling grid compares
 *  them (which fixes their pinned seed ordinals). */
std::vector<BackendKind>
scaleBackends()
{
    return {BackendKind::Ssp, BackendKind::UndoLog, BackendKind::RedoLog};
}

/** Workloads of the scale grids: shared-uniform (SPS), partitioned
 *  (-Rand, per-core key shards) and Zipf-contended (shared hotspot)
 *  scenarios.  SPS first so the (SPS, SSP) seed ordinal is 0 — the
 *  same stream as the smoke grid's only cell; RbTree-Zipf was appended
 *  (not inserted) when conflict handling landed, so every older cell
 *  keeps its pinned seed ordinal and replays its original stream. */
std::vector<WorkloadKind>
scaleWorkloads()
{
    return {WorkloadKind::Sps,      WorkloadKind::BTreeRand,
            WorkloadKind::HashRand, WorkloadKind::BTreeZipf,
            WorkloadKind::HashZipf, WorkloadKind::RbTreeZipf};
}

/** One point per sharing scenario — shared-uniform (SPS),
 *  Zipf-contended (BTree) and partitioned (Hash-Rand, per-core key
 *  shards): the scale256, queue, shard and fault workloads. */
std::vector<WorkloadKind>
scenarioWorkloads()
{
    return {WorkloadKind::Sps, WorkloadKind::BTreeZipf,
            WorkloadKind::HashRand};
}

/** Workloads whose keyed operations the pinned grids partition into
 *  per-core shards (the no-sharing scenario). */
bool
partitionedWorkload(WorkloadKind w)
{
    return w == WorkloadKind::BTreeRand || w == WorkloadKind::HashRand;
}

/** Replace @p points by their product with @p values, set by @p set. */
template <typename T, typename SetFn>
void
expand(std::vector<SweepCell> &points, const std::vector<T> &values,
       SetFn set)
{
    std::vector<SweepCell> out;
    for (const SweepCell &point : points) {
        for (T v : values) {
            out.push_back(point);
            set(out.back(), v);
        }
    }
    points = std::move(out);
}

/** A single-core paper-machine cell. */
SweepCell
paperCell(const FigureSpec &grid, BackendKind b, WorkloadKind w,
          std::uint64_t txs)
{
    SweepCell cell;
    cell.backend = b;
    cell.workload = w;
    cell.base = grid.machine(1);
    cell.txs = txs;
    return cell;
}

/** Fig 8: NVRAM latency from 1x to 9x DRAM's, for each workload. */
void
fig8Cells(const FigureSpec &grid, std::uint64_t txs, const CellSink &emit)
{
    for (WorkloadKind w : grid.workloads) {
        for (double mult : {1.0, 3.0, 5.0, 7.0, 9.0}) {
            for (BackendKind b : grid.backends) {
                SweepCell cell = paperCell(grid, b, w, txs);
                cell.nvramLatencyMultiplier = mult;
                emit(std::move(cell));
            }
        }
    }
}

/** Fig 9: one latency-independent REDO-LOG baseline per workload, then
 *  SSP across the SSP-cache latencies. */
void
fig9Cells(const FigureSpec &grid, std::uint64_t txs, const CellSink &emit)
{
    for (WorkloadKind w : grid.workloads)
        emit(paperCell(grid, BackendKind::RedoLog, w, txs));
    for (Cycles lat : {20u, 60u, 100u, 140u, 180u}) {
        for (WorkloadKind w : grid.workloads) {
            SweepCell cell = paperCell(grid, BackendKind::Ssp, w, txs);
            cell.sspCacheFixedLatency = lat;
            emit(std::move(cell));
        }
    }
}

} // namespace

void
planeCells(const FigureSpec &grid, std::uint64_t txs, const CellSink &emit)
{
    std::vector<SweepCell> points(1);
    expand(points, grid.cores, [](SweepCell &c, unsigned v) { c.cores = v; });
    expand(points, grid.channels,
           [](SweepCell &c, unsigned v) { c.nvramChannels = v; });
    expand(points, grid.loads,
           [](SweepCell &c, double v) { c.offeredLoad = v; });
    expand(points, grid.coherence,
           [](SweepCell &c, CoherenceMode v) { c.coherenceMode = v; });
    expand(points, grid.machines,
           [](SweepCell &c, unsigned v) { c.machines = v; });
    expand(points, grid.crossFractions,
           [](SweepCell &c, double v) { c.crossShardFraction = v; });
    expand(points, grid.faultRates,
           [](SweepCell &c, double v) { c.faultRate = v; });
    expand(points, grid.replicate,
           [](SweepCell &c, bool v) { c.replicate = v; });

    const std::vector<WorkloadKind> &plane =
        grid.seedPlane.empty() ? grid.workloads : grid.seedPlane;
    for (const SweepCell &point : points) {
        // One machine has no peers, so no 2PC: its only cross-shard
        // point is the first fraction, run as 0.
        if (point.machines == 1 &&
            point.crossShardFraction != grid.crossFractions.front()) {
            continue;
        }
        std::int64_t plane_ordinal = 0;
        for (WorkloadKind w : plane) {
            for (BackendKind b : grid.backends) {
                const std::int64_t seed_ordinal = plane_ordinal++;
                if (std::find(grid.workloads.begin(), grid.workloads.end(),
                              w) == grid.workloads.end()) {
                    continue;
                }
                SweepCell cell = point;
                cell.backend = b;
                cell.workload = w;
                cell.txs = txs;
                cell.base = grid.machine(cell.cores);
                if (cell.machines == 1)
                    cell.crossShardFraction = 0;
                if (grid.pinned) {
                    cell.seedOrdinal = seed_ordinal;
                    if (partitionedWorkload(w) && cell.cores > 1)
                        cell.keyShards = cell.cores;
                }
                emit(std::move(cell));
            }
        }
    }
}

const std::vector<FigureSpec> &
figureSpecs()
{
    using B = BackendKind;
    // Every grid with a multi-point axis is pinned: its axis measures
    // machine effects on the same work, not reseeded noise.
    static const std::vector<FigureSpec> specs = {
        // Fig 5 throughput at (a) one and (b) four threads; the report
        // carries every write category, so Figs 6 and 7 render from the
        // same 1-thread cells.
        {.name = "fig5", .workloads = microbenchmarks(), .cores = {1, 4},
         .render = renderFig5},
        // Fig 8a/8b: NVRAM-latency sensitivity.
        {.name = "fig8",
         .workloads = {WorkloadKind::RbTreeRand, WorkloadKind::BTreeRand},
         .generate = fig8Cells, .render = renderFig8},
        {.name = "fig9", .workloads = microbenchmarks(),
         .backends = {B::RedoLog, B::Ssp}, .generate = fig9Cells,
         .render = renderFig9},
        {.name = "table3", .workloads = table3Order(), .backends = {B::Ssp},
         .render = renderTable3},
        // Tables 4 and 5: the real workloads, four clients.
        {.name = "table45", .workloads = realWorkloads(), .cores = {4},
         .render = renderTable45},
        {.name = "chan", .pinned = true, .workloads = microbenchmarks(),
         .channels = {1, 2, 4, 8}},
        // The smoke machine and transaction budget, so the (SPS, SSP, 1
        // core) cell is the smoke cell
        // (SweepSchema.SmokeCheckedInCellEqualsTheScaleC1Cell).
        {.name = "scale", .txs = 400, .machine = smokeConfig,
         .smallScale = true, .pinned = true,
         .workloads = scaleWorkloads(), .backends = scaleBackends(),
         .cores = {1, 2, 4, 8}},
        // The full paper workload scale on the big machine; 2000
        // transactions keep the 126-cell grid affordable.
        {.name = "scale64", .txs = 2000, .machine = bigConfig,
         .pinned = true, .workloads = scaleWorkloads(),
         .backends = scaleBackends(), .cores = {1, 2, 4, 8, 16, 32, 64}},
        // Every cell under the broadcast bus and the mesh directory.
        // scale64's core axis decimated to keep the doubled grid
        // affordable, then extended to 256; 1000 transactions still give
        // the contended cells thousands of coherence events.
        {.name = "scale256", .txs = 1000, .machine = meshConfig,
         .pinned = true, .workloads = scenarioWorkloads(),
         .backends = scaleBackends(), .cores = {1, 4, 16, 64, 128, 256},
         .coherence = {CoherenceMode::Broadcast, CoherenceMode::Directory}},
        // Open-loop tail latency from comfortable load to past
        // saturation; 2000 requests per cell give an exact-rank p999.
        {.name = "queue", .txs = 2000, .machine = bigConfig,
         .pinned = true, .workloads = scenarioWorkloads(),
         .backends = scaleBackends(), .cores = {4, 16},
         .loads = {0.3, 0.6, 0.9, 1.2}},
        // Seeds pinned to the scale plane, so the 1-machine cells replay
        // the scale c4 cells cycle for cycle
        // (ShardGrid.OneMachineCellsReplayTheCheckedInScaleCells).
        {.name = "shard", .txs = 400, .machine = smokeConfig,
         .smallScale = true, .pinned = true,
         .workloads = scenarioWorkloads(), .seedPlane = scaleWorkloads(),
         .backends = scaleBackends(), .cores = {4}, .machines = {1, 2, 4, 8},
         .crossFractions = {0, 0.1, 0.5}},
        // The shard plane again: the rate-0 unreplicated cells replay the
        // shard cells bit for bit
        // (FaultSweep.ZeroFaultCellsReplayTheShardGridBitForBit).  Rate
        // 20 is about one failure per 50 kcycles per machine.
        {.name = "fault", .txs = 400, .machine = smokeConfig,
         .smallScale = true, .pinned = true,
         .workloads = scenarioWorkloads(), .seedPlane = scaleWorkloads(),
         .backends = scaleBackends(), .cores = {4}, .machines = {1, 2, 4},
         .crossFractions = {0.1}, .faultRates = {0, 5, 20},
         .replicate = {false, true}},
        // One tiny cell proving the whole pipeline end to end.
        {.name = "smoke", .txs = 400, .machine = smokeConfig,
         .smallScale = true, .workloads = {WorkloadKind::Sps},
         .backends = {B::Ssp}},
    };
    return specs;
}

const FigureSpec *
findFigureSpec(const std::string &name)
{
    for (const FigureSpec &spec : figureSpecs()) {
        if (name == spec.name)
            return &spec;
    }
    return nullptr;
}

std::vector<std::string>
knownFigures()
{
    std::vector<std::string> names;
    for (const FigureSpec &spec : figureSpecs())
        names.emplace_back(spec.name);
    return names;
}

} // namespace ssp::sweep

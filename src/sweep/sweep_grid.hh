/**
 * @file
 * Sweep grids: the declarative description of every figure/table in the
 * evaluation as a list of independent (backend, workload, configuration)
 * cells.  A grid is what the parallel sweep runner executes and what
 * the BENCH_*.json reports serialize.
 *
 * Every cell carries its own RNG seed, derived deterministically from
 * the base seed and the cell's ordinal in the full (unfiltered) grid —
 * so each cell is one self-contained deterministic stream whose result
 * depends neither on worker scheduling nor on which other cells were
 * filtered in or out.
 */

#ifndef SSP_SWEEP_SWEEP_GRID_HH
#define SSP_SWEEP_SWEEP_GRID_HH

#include <string>
#include <vector>

#include "baselines/backend_factory.hh"
#include "common/rng.hh"
#include "core/config.hh"
#include "serve/arrival.hh"
#include "workloads/workload_factory.hh"

namespace ssp::sweep
{

/** Printable coherence-model name ("broadcast" / "directory"). */
const char *coherenceModeName(CoherenceMode mode);

/** The Table 2 machine the paper grids run. */
SspConfig paperConfig(unsigned cores = 1);

/** The paper grids' workload scale. */
WorkloadScale paperScale();

/** Transactions measured per cell unless the grid overrides it. */
inline constexpr std::uint64_t kDefaultTxs = 4000;

/** One independently runnable point of a figure/table grid. */
struct SweepCell
{
    std::string figure;    ///< grid this cell belongs to ("fig5", ...)
    BackendKind backend = BackendKind::Ssp;
    WorkloadKind workload = WorkloadKind::BTreeRand;
    unsigned cores = 1;    ///< simulated cores driving transactions
    std::uint64_t txs = kDefaultTxs;

    /** Figure 8 knob; 0 keeps the paper-default NVRAM timing. */
    double nvramLatencyMultiplier = 0;
    /** Figure 9 knob; 0 keeps the modeled SSP-cache latency. */
    Cycles sspCacheFixedLatency = 0;
    /** chan-grid knob: parallel NVRAM channels (1 = paper machine). */
    unsigned nvramChannels = 1;
    /** scale-grid knob: per-core key shards (1 = shared key space). */
    unsigned keyShards = 1;
    /** queue-grid knob: offered load as a factor of measured closed-loop
     *  capacity; 0 = closed loop (every non-queue grid). */
    double offeredLoad = 0;
    /** queue-grid knob: the open-loop arrival process (Poisson). */
    serve::ArrivalKind arrival = serve::ArrivalKind::Poisson;
    /** scale256-grid knob: the coherence interconnect model.  Broadcast
     *  is the flat bus every other grid (and the paper machine) uses;
     *  Directory prices the same events on the 2D-mesh home-node
     *  directory (src/interconnect/). */
    CoherenceMode coherenceMode = CoherenceMode::Broadcast;
    /** shard-grid knob: machines in the simulated cluster.  1 runs the
     *  single-machine driver verbatim (src/shard/ is never entered). */
    unsigned machines = 1;
    /** shard-grid knob: probability a coordinator slot becomes a
     *  cross-shard 2PC transaction; only meaningful with machines > 1. */
    double crossShardFraction = 0;
    /** fault-grid knob: expected machine failures per million simulated
     *  cycles per machine; 0 = no fault harness (every other grid). */
    double faultRate = 0;
    /** fault-grid knob: primary/backup replication with synchronous log
     *  shipping and failover instead of in-place recovery. */
    bool replicate = false;

    /**
     * Seed-derivation ordinal override; -1 derives from the cell's
     * position in the unfiltered grid.  The chan grid pins it to the
     * (workload, backend) position so cells differing only in channel
     * count replay the identical operation stream — channel scaling is
     * then measured on the same work, not on reseeded noise.
     */
    std::int64_t seedOrdinal = -1;

    /** Per-cell workload scale; seed is the cell's private RNG stream. */
    WorkloadScale scale{};

    /** Machine configuration the grid bases this cell on. */
    SspConfig base{};

    /** Materialize the full config (base + the cell's knobs). */
    SspConfig config() const;

    /** Compact human-readable cell id for logs ("fig5/SSP/SPS/c4"). */
    std::string label() const;
};

/**
 * Knobs shared by all grid builders.  They subset or rescale a grid but
 * never reshape it: every axis point is fixed by the grid's FigureSpec
 * (sweep/figure_spec.hh), so a new point is an edit there.
 */
struct SweepGridOptions
{
    /** Designs to include; empty means the figure's default set. */
    std::vector<BackendKind> backends{};
    /** Workloads to include; empty means the figure's default set. */
    std::vector<WorkloadKind> workloads{};
    /** Transactions per cell; 0 means the figure default. */
    std::uint64_t txs = 0;
    /** Base workload scale (per-cell seeds are derived from its seed). */
    WorkloadScale scale = paperScale();
};

/** Grid names understood by buildFigureGrid, in presentation order. */
std::vector<std::string> knownFigures();

/**
 * Build the cell grid of @p figure (one of knownFigures(), defined by
 * its FigureSpec), then apply the backend/workload filters.  Fatal on
 * unknown figure names (the message lists the known grids).
 */
std::vector<SweepCell> buildFigureGrid(const std::string &figure,
                                       const SweepGridOptions &opts = {});

/** deriveSeed under its older sweep name, which bench/perf still calls. */
inline std::uint64_t
deriveCellSeed(std::uint64_t base_seed, std::uint64_t ordinal)
{
    return deriveSeed(base_seed, ordinal);
}

/** Split a comma-separated list, dropping empty items. */
std::vector<std::string> splitCommas(const std::string &list);

/**
 * Parse one count value for @p flag ("--jobs" or "--txs"): a plain
 * integer in [1, @p max_value].  Anything else — "0", "-1", "4x",
 * "abc", "" — is fatal with a message naming @p flag, never a silent
 * truncation or fall-back to a default.
 */
std::uint64_t parseCount(const std::string &flag, const std::string &value,
                         std::uint64_t max_value);

/**
 * Parse the --seed value: a plain integer in [0, 2^64-1].  Anything
 * else — "4x", "-1", "abc", "", an overflowing number — is fatal with
 * a message naming --seed.
 */
std::uint64_t parseSeed(const std::string &value);

} // namespace ssp::sweep

#endif // SSP_SWEEP_SWEEP_GRID_HH

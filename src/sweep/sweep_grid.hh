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
#include "core/config.hh"
#include "serve/arrival.hh"
#include "workloads/workload_factory.hh"

namespace ssp::sweep
{

/**
 * Conflict handling applied to every cell of a grid: the default
 * first-committer-wins validation, the lazy read-set-only mode, or no
 * detection at all (the pre-conflict serialized timing model).
 */
enum class ConflictMode
{
    FirstCommitterWins,
    Lazy,
    Off,
};

/** Parse "fcw" / "lazy" / "off"; fatal on anything else. */
ConflictMode parseConflictMode(const std::string &name);

/** Printable conflict-mode name (the parse inverse). */
const char *conflictModeName(ConflictMode mode);

/** Printable coherence-model name ("broadcast" / "directory"). */
const char *coherenceModeName(CoherenceMode mode);

/** The Table 2 machine the paper grids and the ablation benches run. */
SspConfig paperConfig(unsigned cores = 1);

/** The paper grids' workload scale (and the ablation benches'). */
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
    /** NVRAM technology preset; PaperPcm is the paper's Table 2 device. */
    NvramDevice nvramDevice = NvramDevice::PaperPcm;
    /** scale-grid knob: per-core key shards (1 = shared key space). */
    unsigned keyShards = 1;
    /** Conflict handling; non-default modes tag the label and report. */
    ConflictMode conflictMode = ConflictMode::FirstCommitterWins;
    /** queue-grid knob: offered load as a factor of measured closed-loop
     *  capacity; 0 = closed loop (every non-queue grid). */
    double offeredLoad = 0;
    /** queue-grid knob: the open-loop arrival process. */
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

/** Knobs shared by all grid builders. */
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
    /*
     * The axis lists below replace the grid's default list (see its
     * FigureSpec, sweep/figure_spec.hh); empty keeps the default.  Only
     * the axes a grid sweeps may be set — any other is fatal.  Seeds
     * are pinned per (workload, backend) on every grid with a sweepable
     * axis, so a list's shape does not change any cell's stream.
     */
    /** NVRAM channel counts (chan). */
    std::vector<unsigned> channels{};
    /** Core counts (scale, scale64, scale256, queue). */
    std::vector<unsigned> coreCounts{};
    /** Offered-load factors of measured capacity (queue). */
    std::vector<double> loads{};
    /** Open-loop arrival process; anything but Poisson only on queue. */
    serve::ArrivalKind arrival = serve::ArrivalKind::Poisson;
    /** Cluster sizes (shard, fault). */
    std::vector<unsigned> machines{};
    /** Fault rates, failures per Mcycle per machine (fault).  0 is a
     *  valid point: the harness is armed but schedules nothing. */
    std::vector<double> faultRates{};
    /** Replication modes (fault). */
    std::vector<bool> replicateModes{};
    /** NVRAM device preset applied to every cell of the grid. */
    NvramDevice nvramDevice = NvramDevice::PaperPcm;
    /** Conflict handling applied to every cell of the grid. */
    ConflictMode conflictMode = ConflictMode::FirstCommitterWins;
};

/** Grid names understood by buildFigureGrid, in presentation order. */
std::vector<std::string> knownFigures();

/**
 * Build the cell grid of @p figure (one of knownFigures(), defined by
 * its FigureSpec), then apply the option filters.  Fatal on unknown
 * figure names (the message lists the known grids), on an axis option
 * the grid does not sweep, and on core counts beyond what the grid's
 * machine supports — failing up front beats a Machine assert deep
 * inside a worker.
 */
std::vector<SweepCell> buildFigureGrid(const std::string &figure,
                                       const SweepGridOptions &opts = {});

/** splitmix64 finalizer used to derive per-cell seeds. */
std::uint64_t deriveCellSeed(std::uint64_t base_seed, std::uint64_t ordinal);

/** Split a comma-separated list, dropping empty items. */
std::vector<std::string> splitCommas(const std::string &list);

/**
 * Parse one count value for @p flag ("--jobs", "--txs", or an item of a
 * count list): a plain integer in [1, @p max_value].  Anything else —
 * "0", "-1", "4x", "abc", "" — is fatal with a message naming @p flag,
 * never a silent truncation or fall-back to a default.
 */
std::uint64_t parseCount(const std::string &flag, const std::string &value,
                         std::uint64_t max_value);

/**
 * Parse the --seed value: a plain integer in [0, 2^64-1].  Anything
 * else — "4x", "-1", "abc", "", an overflowing number — is fatal with
 * a message naming --seed.
 */
std::uint64_t parseSeed(const std::string &value);

/**
 * Parse a comma-separated count list for @p flag ("--cores",
 * "--channels"): every item must pass parseCount, and the list must be
 * non-empty — an empty or invalid list is fatal, never a silent
 * fall-back to the grid default.  --cores passes kMaxCores (the
 * per-figure ceiling is enforced by buildFigureGrid); --channels keeps
 * the historical 64.
 */
std::vector<unsigned> parseCountList(const std::string &flag,
                                     const std::string &list,
                                     unsigned max_value = 64);

/**
 * Parse a comma-separated offered-load list for @p flag ("--load"):
 * every item must be a decimal in (0, 10], and the list must be
 * non-empty — an empty or invalid list is fatal, never a silent
 * fall-back to the grid default.
 */
std::vector<double> parseLoadList(const std::string &flag,
                                  const std::string &list);

/**
 * Parse a comma-separated fault-rate list for --fault-rate: every item
 * must be a decimal in [0, 1000] (failures per Mcycle per machine; 0
 * is the armed-but-quiet baseline point), and the list must be
 * non-empty — an empty or invalid list is fatal.
 */
std::vector<double> parseFaultRateList(const std::string &flag,
                                       const std::string &list);

/** Parse the --replicate value: "off" = {false}, "on" = {true},
 *  "both" = {false, true}; fatal on anything else. */
std::vector<bool> parseReplicateModes(const std::string &value);

} // namespace ssp::sweep

#endif // SSP_SWEEP_SWEEP_GRID_HH

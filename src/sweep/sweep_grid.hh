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

/** The Table 2 machine used by all figure benches (see bench_common). */
SspConfig paperConfig(unsigned cores = 1);

/** The workload scale used by all figure benches. */
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
    /** chan grid: NVRAM channel counts to sweep; empty = {1, 2, 4, 8}.
     *  Unlike the backend/workload filters this changes the grid shape,
     *  so per-cell seeds follow the requested list. */
    std::vector<unsigned> channels{};
    /** scale/scale64/queue grids: core counts to sweep; empty = the
     *  grid default.  Seeds are pinned per (workload, backend), so the
     *  list's shape does not change any cell's stream. */
    std::vector<unsigned> coreCounts{};
    /** queue grid: offered-load factors to sweep; empty =
     *  {0.3, 0.6, 0.9, 1.2}.  Seeds are pinned per (workload, backend),
     *  so the list's shape does not change any cell's stream. */
    std::vector<double> loads{};
    /** queue grid: arrival process applied to every cell. */
    serve::ArrivalKind arrival = serve::ArrivalKind::Poisson;
    /** shard/fault grids: cluster sizes to sweep; empty = the grid
     *  default ({1, 2, 4, 8} for shard, {1, 2, 4} for fault).  Seeds
     *  are pinned per (workload, backend) to the scale grid's plane, so
     *  machine counts (and the 1-machine cells vs the checked-in scale
     *  cells) replay the identical operation stream. */
    std::vector<unsigned> machines{};
    /** fault grid: fault rates (failures per Mcycle per machine) to
     *  sweep; empty = {0, 5, 20}.  0 is a valid point — the harness is
     *  armed but schedules nothing, pinning the zero-fault baseline. */
    std::vector<double> faultRates{};
    /** fault grid: replication modes to sweep; empty = {off, on}. */
    std::vector<bool> replicateModes{};
    /** NVRAM device preset applied to every cell of the grid. */
    NvramDevice nvramDevice = NvramDevice::PaperPcm;
    /** Conflict handling applied to every cell of the grid. */
    ConflictMode conflictMode = ConflictMode::FirstCommitterWins;
};

/** Grid names understood by buildFigureGrid, in presentation order. */
std::vector<std::string> knownFigures();

/**
 * Build the cell grid reproducing @p figure ("fig5".."fig9", "table3",
 * "table45", the channel-scaling "chan" grid, the core-scaling "scale",
 * "scale64" and "scale256" grids, the open-loop tail-latency "queue"
 * grid, or the tiny CI "smoke" grid), then apply the option filters.
 * Fatal on unknown figure names (the message lists the known grids)
 * and on core counts beyond what the figure's machine preset supports
 * — failing up front beats a Machine assert deep inside a worker.
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

#include "sweep/sweep_grid.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/logging.hh"
#include "sweep/figure_spec.hh"

namespace ssp::sweep
{

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

namespace
{

/** A plain integer in [min_value, max_value]; fatal, naming @p flag,
 *  on anything else. */
std::uint64_t
parseUnsigned(const std::string &flag, const std::string &value,
              std::uint64_t min_value, std::uint64_t max_value)
{
    // Digits only: stoull alone would skip leading blanks, accept a
    // sign, and wrap "-1" to 2^64-1.
    bool valid = !value.empty() &&
                 value.find_first_not_of("0123456789") == std::string::npos;
    unsigned long long v = 0;
    if (valid) {
        try {
            v = std::stoull(value);
        } catch (const std::out_of_range &) {
            valid = false;
        }
    }
    if (!valid || v < min_value || v > max_value) {
        ssp_fatal("%s must be an integer in [%llu, %llu], got '%s'",
                  flag.c_str(), static_cast<unsigned long long>(min_value),
                  static_cast<unsigned long long>(max_value),
                  value.c_str());
    }
    return v;
}

} // namespace

std::uint64_t
parseCount(const std::string &flag, const std::string &value,
           std::uint64_t max_value)
{
    return parseUnsigned(flag, value, 1, max_value);
}

std::uint64_t
parseSeed(const std::string &value)
{
    return parseUnsigned("--seed", value, 0,
                         std::numeric_limits<std::uint64_t>::max());
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
        if (!(v >= 0 && v <= 1000)) { // NaN fails both
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
SweepCell::config() const
{
    SspConfig cfg = base;
    cfg.numCores = cores;
    cfg.nvramLatencyMultiplier = nvramLatencyMultiplier;
    if (sspCacheFixedLatency != 0)
        cfg.sspCacheLatency.fixedLatency = sspCacheFixedLatency;
    if (nvramChannels != 1)
        cfg.nvramChannels = nvramChannels;
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
    if (keyShards > 1)
        out += "/p" + std::to_string(keyShards);
    if (coherenceMode == CoherenceMode::Directory)
        out += "/dir";
    const FigureSpec *grid = findFigureSpec(figure);
    const unsigned sweeps = grid != nullptr ? grid->sweeps : 0;
    // Cluster coordinates: every cell of a grid that sweeps machines
    // names its machine count (m1 included, so the fast-path cells are
    // self-describing); the cross-shard fraction exists only where 2PC
    // is possible, in percent ("x10").
    if ((sweeps & kAxisMachines) != 0 || machines > 1)
        out += "/m" + std::to_string(machines);
    if (machines > 1)
        out += "/x" + std::to_string(
                   std::lround(crossShardFraction * 100));
    // Fault coordinates, in tenths ("f50" = rate 5.0); every cell of a
    // grid that sweeps fault rates names its rate (f0 included) so the
    // zero-fault baseline points are self-describing.
    if ((sweeps & kAxisFaults) != 0 || faultRate > 0)
        out += "/f" + std::to_string(std::lround(faultRate * 10));
    if (replicate)
        out += "/rep";
    if (offeredLoad > 0) {
        // Loads are encoded in percent ("load120"): integers keep the
        // label independent of float formatting.
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

namespace
{

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
    const FigureSpec *spec = findFigureSpec(figure);
    if (spec == nullptr) {
        // List the known grids so a typo is a one-round-trip fix.
        std::string known;
        for (const std::string &name : knownFigures())
            known += (known.empty() ? "" : ", ") + name;
        ssp_fatal("unknown sweep figure '%s' (known grids: %s)",
                  figure.c_str(), known.c_str());
    }
    FigureSpec grid = *spec;
    const std::uint64_t txs = opts.txs != 0 ? opts.txs : grid.txs;

    // An option may replace only an axis the grid sweeps: failing beats
    // silently handing back the grid's default cells labeled as the
    // experiment the caller asked for.
    auto require_axis = [&](unsigned axis, const char *option) {
        if ((grid.sweeps & axis) != 0)
            return;
        std::string grids;
        for (const FigureSpec &g : figureSpecs()) {
            if ((g.sweeps & axis) != 0)
                grids += std::string(grids.empty() ? "" : ", ") + g.name;
        }
        ssp_fatal("the %s option only applies to the %s grid(s), not "
                  "'%s'",
                  option, grids.c_str(), figure.c_str());
    };
    auto take = [&](auto &axis_list, const auto &requested, unsigned axis,
                    const char *option) {
        if (requested.empty())
            return;
        require_axis(axis, option);
        axis_list = requested;
    };
    take(grid.channels, opts.channels, kAxisChannels, "channels");
    take(grid.cores, opts.coreCounts, kAxisCores, "cores");
    take(grid.loads, opts.loads, kAxisLoads, "loads");
    take(grid.machines, opts.machines, kAxisMachines, "machines");
    take(grid.faultRates, opts.faultRates, kAxisFaults, "fault-rate");
    take(grid.replicate, opts.replicateModes, kAxisFaults, "replicate");
    if (opts.arrival != serve::ArrivalKind::Poisson)
        require_axis(kAxisLoads, "arrival");

    // Core counts beyond the machine's provisioning (SSP cache, journal,
    // shadow pool) fail here with a one-line diagnostic, not as a
    // Machine assert deep inside a sweep worker.
    for (unsigned cores : opts.coreCounts) {
        if (cores <= grid.maxCores)
            continue;
        const FigureSpec *largest = &grid;
        for (const FigureSpec &g : figureSpecs()) {
            if ((g.sweeps & kAxisCores) != 0 &&
                g.maxCores > largest->maxCores) {
                largest = &g;
            }
        }
        ssp_fatal("--cores %u exceeds the '%s' machine's %u-core "
                  "provisioning (the '%s' grid takes up to %u)",
                  cores, figure.c_str(), grid.maxCores, largest->name,
                  largest->maxCores);
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
    grid.generate(grid, txs, [&](SweepCell cell) {
        cell.figure = figure;
        cell.scale = opts.scale;
        cell.scale.keyShards = cell.keyShards;
        cell.arrival = opts.arrival;
        if (grid.smallScale) {
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
        // pinned grid fixes the ordinal instead.
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

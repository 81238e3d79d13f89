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
    // Cluster coordinates: every cell of a grid with several machine
    // counts names its own (m1 included, so the fast-path cells are
    // self-describing); the cross-shard fraction exists only where 2PC
    // is possible, in percent ("x10").
    if ((grid != nullptr && grid->machines.size() > 1) || machines > 1)
        out += "/m" + std::to_string(machines);
    if (machines > 1)
        out += "/x" + std::to_string(
                   std::lround(crossShardFraction * 100));
    // Fault coordinates, in tenths ("f50" = rate 5.0); every cell of a
    // grid with several fault rates names its rate (f0 included) so the
    // zero-fault baseline points are self-describing.
    if ((grid != nullptr && grid->faultRates.size() > 1) || faultRate > 0)
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
    const FigureSpec &grid = *spec;
    const std::uint64_t txs = opts.txs != 0 ? opts.txs : grid.txs;

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
        cell.scale.seed = deriveSeed(opts.scale.seed, seed_ordinal);
        if (keepKind(opts.backends, cell.backend) &&
            keepKind(opts.workloads, cell.workload)) {
            cells.push_back(std::move(cell));
        }
    });
    return cells;
}

} // namespace ssp::sweep

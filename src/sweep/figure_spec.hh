/**
 * @file
 * The figure registry: one FigureSpec per sweep grid, holding everything
 * that differs between grids — machine, default transaction count, the
 * axis lists, the cell generator and the paper tables it renders.  A
 * grid is one fixed experiment: a new axis point is an edit here.
 * buildFigureGrid, SweepCell::label and the sweep CLI all read a grid's
 * rules from here; no code outside the table compares figure names.
 */

#ifndef SSP_SWEEP_FIGURE_SPEC_HH
#define SSP_SWEEP_FIGURE_SPEC_HH

#include <functional>
#include <string>
#include <vector>

#include "sim/report.hh"
#include "sweep/sweep_grid.hh"

namespace ssp::sweep
{

struct FigureSpec;

/** Receives each generated cell, in unfiltered grid order. */
using CellSink = std::function<void(SweepCell)>;

/** The generator most grids use: the (workload, backend) plane at every
 *  point of the product of the axis lists, in FigureSpec order. */
void planeCells(const FigureSpec &grid, std::uint64_t txs,
                const CellSink &emit);

/** One grid of the evaluation. */
struct FigureSpec
{
    const char *name = "";
    /** Transactions per cell unless SweepGridOptions::txs overrides. */
    std::uint64_t txs = kDefaultTxs;
    /** Machine preset for a cell with the given core count. */
    SspConfig (*machine)(unsigned cores) = paperConfig;
    /** Clamp the workload scale to the small smoke machine. */
    bool smallScale = false;
    /**
     * Pin each cell's seed to its (workload, backend) position in
     * seedPlane x backends, so every axis point replays the identical
     * operation stream, and give the -Rand workloads one key shard per
     * core (the partitioned scenario).  Otherwise seeds follow the
     * cell's position in the grid.
     */
    bool pinned = false;
    std::vector<WorkloadKind> workloads{};
    /** Workload order that pins seeds; empty = workloads. */
    std::vector<WorkloadKind> seedPlane{};
    std::vector<BackendKind> backends = paperBackends();
    /** @{ Axis lists; planeCells runs their product. */
    std::vector<unsigned> cores{1};
    std::vector<unsigned> channels{1};
    std::vector<double> loads{0};
    std::vector<CoherenceMode> coherence{CoherenceMode::Broadcast};
    std::vector<unsigned> machines{1};
    std::vector<double> crossFractions{0};
    std::vector<double> faultRates{0};
    std::vector<bool> replicate{false};
    /** @} */
    void (*generate)(const FigureSpec &grid, std::uint64_t txs,
                     const CellSink &emit) = planeCells;
    /** Paper tables printed from the grid's report; null = none. */
    std::string (*render)(const FigureSpec &grid,
                          const Json &report) = nullptr;
};

/** Every grid, in presentation order. */
const std::vector<FigureSpec> &figureSpecs();

/** The grid named @p name, or nullptr. */
const FigureSpec *findFigureSpec(const std::string &name);

/**
 * The paper tables of a BENCH_<figure>.json report (Figs 5-9, Tables
 * 3-5), with the paper's reference numbers; empty for grids that
 * reproduce no paper table.  A value whose cells the report lacks —
 * filtered out, or failed — prints as "-".
 */
std::string renderPaperTables(const Json &report);

/** @{ The renderers the registry points at (paper_tables.cc): Figs 5-7
 *  from fig5, then Fig 8, Fig 9, Table 3 and Tables 4-5. */
std::string renderFig5(const FigureSpec &grid, const Json &report);
std::string renderFig8(const FigureSpec &grid, const Json &report);
std::string renderFig9(const FigureSpec &grid, const Json &report);
std::string renderTable3(const FigureSpec &grid, const Json &report);
std::string renderTable45(const FigureSpec &grid, const Json &report);
/** @} */

} // namespace ssp::sweep

#endif // SSP_SWEEP_FIGURE_SPEC_HH

/**
 * @file
 * Multi-threaded sweep execution: runs every cell of a sweep grid on a
 * worker pool and serializes the results as a machine-readable JSON
 * report (the BENCH_*.json perf-trajectory format).
 *
 * Results are written into a slot per cell, so the output order — and
 * therefore the emitted JSON — is byte-identical for any worker count.
 */

#ifndef SSP_SWEEP_SWEEP_RUNNER_HH
#define SSP_SWEEP_SWEEP_RUNNER_HH

#include <functional>
#include <string>
#include <vector>

#include "fault/fault_injector.hh"
#include "shard/shard_driver.hh"
#include "sim/driver.hh"
#include "sim/report.hh"
#include "sweep/sweep_grid.hh"

namespace ssp::sweep
{

/** Outcome of one executed cell. */
struct CellResult
{
    SweepCell cell;
    RunResult run{};
    bool ok = false;
    std::string error; ///< exception text when !ok
    /** Per-shard deltas; non-empty only on machines > 1 cells. */
    std::vector<RunResult> shardRuns;
    /** 2PC accounting; all zero unless machines > 1. */
    shard::ShardTxStats shardTx{};
    /** Cross-machine messages priced by the shard NetworkModel. */
    std::uint64_t networkMessages = 0;
    /** Cycles those messages charged to core clocks. */
    Cycles networkCycles = 0;
    /** Fault-harness accounting; all zero unless the cell armed it
     *  (fault rate > 0 or replication on). */
    fault::FaultStats faultStats{};
};

/** Invoked after each cell completes: (result, done count, total). */
using CellCallback =
    std::function<void(const CellResult &, std::size_t, std::size_t)>;

/**
 * Execute @p cells on @p jobs worker threads (clamped to >= 1).  Each
 * cell builds its own machine and workload and runs to completion
 * independently; a throwing cell is captured as !ok instead of taking
 * the sweep down.  The callback, when set, is serialized by a mutex.
 *
 * The worker pool is the only host parallelism: each cell runs
 * serially on one worker, so results are bit-identical for any
 * @p jobs.
 */
std::vector<CellResult> runSweep(const std::vector<SweepCell> &cells,
                                 unsigned jobs,
                                 const CellCallback &on_cell = {});

/**
 * Serialize sweep results as the BENCH_*.json report document:
 * schema/figure metadata plus one entry per cell with the cell's
 * coordinates and the measured metrics.  The document holds only
 * simulated results, so checked-in reports are byte-identical across
 * runs and machines.
 */
Json sweepReport(const std::string &figure,
                 const std::vector<CellResult> &results);

} // namespace ssp::sweep

#endif // SSP_SWEEP_SWEEP_RUNNER_HH

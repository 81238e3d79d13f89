/**
 * @file
 * The metric list: every number a BENCH_*.json report cell carries,
 * declared once.  Each row names the report key and the RunResult or
 * CellResult member it reads; a machine counter's row also names the
 * live reader whose run-start value is subtracted from its run-end
 * value, and every RunResult member's row says how a cluster rolls its
 * shards' values up.  The run drivers' baseline deltas
 * (captureRunBaseline / finishRunMetrics), the shard aggregate and the
 * report's metrics object are all loops over this list, so adding a
 * counter means adding one row.
 */

#ifndef SSP_SIM_METRICS_HH
#define SSP_SIM_METRICS_HH

#include <cstdint>
#include <variant>
#include <vector>

#include "sim/driver.hh"
#include "sim/report.hh"

namespace ssp
{

namespace sweep
{
struct CellResult;
}

/** How a cluster combines its shards' values of a RunResult member. */
enum class Rollup
{
    Sum,
    Max,
    Mean, ///< of the per-shard values (doubles only)
};

/** Where a metric's value lives. */
using MetricSource = std::variant<
    std::uint64_t RunResult::*,              ///< a count
    double RunResult::*,                     ///< a measurement
    std::vector<std::uint64_t> RunResult::*, ///< a per-core series
    double (RunResult::*)() const,           ///< derived from the run
    Json (*)(const sweep::CellResult &)>;    ///< cluster/fault state

/** A live machine counter: its current value on @p exp. */
using CounterReader = std::uint64_t (*)(Experiment &exp);

/** One row of the metric list. */
struct Metric
{
    const char *name; ///< report key
    MetricSource source;
    Rollup rollup = Rollup::Sum; ///< RunResult members only
    /** Machine counters only (a count source): the run's value is the
     *  reader's value at run end minus its value at run start. */
    CounterReader counter = nullptr;
};

/** Every metric, in report order. */
const std::vector<Metric> &metricList();

/** @p metric's value in @p cell's report. */
Json metricValue(const Metric &metric, const sweep::CellResult &cell);

/** Fill @p metric's member of @p agg from @p shards by its rollup;
 *  derived and cell-level metrics have no member and are left alone. */
void rollUp(const Metric &metric, RunResult &agg,
            const std::vector<RunResult> &shards);

} // namespace ssp

#endif // SSP_SIM_METRICS_HH

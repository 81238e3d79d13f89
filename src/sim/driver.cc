#include "sim/driver.hh"

#include <variant>

#include "common/logging.hh"
#include "core/config.hh"
#include "sim/metrics.hh"

namespace ssp
{

double
RunResult::tps() const
{
    if (cycles == 0)
        return 0;
    const double seconds =
        static_cast<double>(cycles) / (kCoreGHz * 1e9);
    return static_cast<double>(committedTxs) / seconds;
}

double
RunResult::writesPerTx() const
{
    if (committedTxs == 0)
        return 0;
    return static_cast<double>(nvramWrites) /
           static_cast<double>(committedTxs);
}

double
RunResult::cyclesPerTx() const
{
    if (committedTxs == 0)
        return 0;
    return static_cast<double>(cycles) /
           static_cast<double>(committedTxs);
}

double
RunResult::imbalance() const
{
    std::uint64_t total = 0;
    std::uint64_t peak = 0;
    for (std::uint64_t busy : coreBusyCycles) {
        total += busy;
        peak = std::max(peak, busy);
    }
    if (total == 0 || coreBusyCycles.empty())
        return 0;
    const double mean = static_cast<double>(total) /
                        static_cast<double>(coreBusyCycles.size());
    return static_cast<double>(peak) / mean;
}

RunResult
captureRunBaseline(Experiment &exp)
{
    RunResult base;
    for (const Metric &metric : metricList()) {
        if (metric.counter != nullptr) {
            base.*std::get<std::uint64_t RunResult::*>(metric.source) =
                metric.counter(exp);
        }
    }
    return base;
}

void
finishRunMetrics(RunResult &res, Experiment &exp, const RunResult &base)
{
    for (const Metric &metric : metricList()) {
        if (metric.counter != nullptr) {
            const auto field =
                std::get<std::uint64_t RunResult::*>(metric.source);
            res.*field = metric.counter(exp) - base.*field;
        }
    }
    AtomicityBackend &be = *exp.backend;
    res.backend = be.name();
    res.workload = exp.workload->name();
    const TxCharacterization &charz = be.characterization();
    res.avgLinesPerTx = charz.linesPerTx.mean();
    res.avgPagesPerTx = charz.pagesPerTx.mean();
    res.maxPagesPerTx = charz.pagesPerTx.max();
}

RunResult
runExperiment(Experiment &exp, std::uint64_t num_txs, unsigned num_cores)
{
    AtomicityBackend &be = *exp.backend;
    Machine &machine = be.machine();
    ssp_assert(num_cores >= 1 && num_cores <= machine.cfg().numCores,
               "run uses more cores than the machine has");

    machine.syncClocks();
    const RunResult base = captureRunBaseline(exp);

    RunResult res;
    res.coreBusyCycles.assign(num_cores, 0);
    res.coreTxs.assign(num_cores, 0);

    for (std::uint64_t i = 0; i < num_txs; ++i) {
        const CoreId core = static_cast<CoreId>(i % num_cores);
        const Cycles op_start = machine.clock(core);
        exp.workload->runOp(core);
        res.coreBusyCycles[core] += machine.clock(core) - op_start;
        ++res.coreTxs[core];
        // Bulk-synchronous rounds: re-align core clocks after each
        // round-robin cycle so shared-resource timing (bus, banks) is
        // not distorted by simulation-order clock skew.
        if (num_cores > 1 && core == num_cores - 1)
            machine.syncClocks();
    }
    // A final partial round (num_txs % num_cores != 0) must not leave
    // core clocks skewed relative to the bulk-synchronous model — the
    // run ends on the same barrier every full round ends on.
    if (num_cores > 1)
        machine.syncClocks();
    for (unsigned c = 0; c < num_cores; ++c) {
        ssp_assert(machine.clock(c) == machine.maxClock(),
                   "core clocks skewed after the final barrier");
    }

    finishRunMetrics(res, exp, base);
    return res;
}

} // namespace ssp

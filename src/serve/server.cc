#include "serve/server.hh"

#include <algorithm>
#include <deque>
#include <vector>

#include "common/logging.hh"
#include "serve/latency_histogram.hh"

namespace ssp::serve
{

RunResult
runServeExperiment(Experiment &exp, std::uint64_t num_requests,
                   unsigned num_cores, const ServeParams &params)
{
    AtomicityBackend &be = *exp.backend;
    Machine &machine = be.machine();
    ssp_assert(num_requests > 0, "serve run needs at least one request");
    ssp_assert(num_cores >= 1 && num_cores <= machine.cfg().numCores,
               "serve run uses more cores than the machine has");
    ssp_assert(params.offeredLoad > 0, "offered load must be positive");
    ssp_assert(params.queueDepth > 0, "queue depth must be positive");

    // Calibrate: measure closed-loop capacity (cycles per transaction at
    // this core count) so the offered load can be expressed as a factor
    // of what the cell can actually sustain.  The calibration phase also
    // warms caches/TLBs, like the setup phase does for closed-loop runs.
    // It has no barriers: each step runs the core with the lowest
    // (clock, core id).
    constexpr std::uint64_t kMinCalibrationTxs = 200;
    const std::uint64_t calib_txs =
        std::max<std::uint64_t>(kMinCalibrationTxs, num_requests / 5);
    machine.syncClocks();
    const Cycles calib_start = machine.maxClock();
    const std::uint64_t calib_base = be.committedTxs();
    for (std::uint64_t i = 0; i < calib_txs; ++i) {
        CoreId next = 0;
        for (CoreId c = 1; c < num_cores; ++c) {
            if (machine.clock(c) < machine.clock(next))
                next = c;
        }
        exp.workload->runOp(next);
    }
    const Cycles calib_cycles = machine.maxClock() - calib_start;
    const std::uint64_t calib_commits = be.committedTxs() - calib_base;
    ssp_assert(calib_commits > 0 && calib_cycles > 0,
               "calibration phase measured no throughput");
    const double mean_interval =
        static_cast<double>(calib_cycles) /
        (static_cast<double>(calib_commits) * params.offeredLoad);

    // Measured phase starts from a barrier, like every closed-loop run.
    machine.syncClocks();
    const RunResult base = captureRunBaseline(exp);
    const Cycles serve_start = machine.maxClock();

    RunResult res;
    res.coreBusyCycles.assign(num_cores, 0);
    res.coreTxs.assign(num_cores, 0);

    ArrivalProcess arrivals(params.arrival, mean_interval, params.seed);
    // Per-core FIFO of the arrival cycles of waiting requests.
    std::vector<std::deque<Cycles>> queues(num_cores);
    std::vector<LatencyHistogram> hists(num_cores);

    std::uint64_t delivered = 0; ///< arrivals handed to a queue (or shed)
    std::uint64_t rejected = 0;
    std::uint64_t waiting = 0; ///< requests queued but not yet in service
    Cycles next_arrival = serve_start + arrivals.next();

    // Time-weighted queue-depth integral, advanced at every event (an
    // arrival delivery or a dispatch start).  Event times are monotone:
    // arrivals are non-decreasing, and a dispatch is only taken when no
    // earlier arrival is pending.
    Cycles last_event = serve_start;
    double depth_area = 0;
    auto advance_to = [&](Cycles now) {
        ssp_assert(now >= last_event, "serve events ran backwards");
        depth_area += static_cast<double>(waiting) *
                      static_cast<double>(now - last_event);
        last_event = now;
    };

    auto run_one = [&](CoreId core) {
        const Cycles op_start = machine.clock(core);
        exp.workload->runOp(core);
        res.coreBusyCycles[core] += machine.clock(core) - op_start;
        ++res.coreTxs[core];
    };

    while (delivered < num_requests || waiting > 0) {
        // The earliest possible dispatch: among cores with waiting
        // requests, the lowest start cycle (ties to the lowest core id).
        bool have_dispatch = false;
        unsigned best_core = 0;
        Cycles best_start = 0;
        for (unsigned c = 0; c < num_cores; ++c) {
            if (queues[c].empty())
                continue;
            const Cycles start =
                std::max(machine.clock(c), queues[c].front());
            if (!have_dispatch || start < best_start) {
                have_dispatch = true;
                best_core = c;
                best_start = start;
            }
        }

        if (delivered < num_requests &&
            (!have_dispatch || next_arrival <= best_start)) {
            // Deliver the next arrival to its queue (round-robin across
            // cores), shedding it if the queue is at its bound.
            advance_to(next_arrival);
            const unsigned core =
                static_cast<unsigned>(delivered % num_cores);
            if (queues[core].size() >= params.queueDepth) {
                ++rejected;
            } else {
                queues[core].push_back(next_arrival);
                ++waiting;
            }
            ++delivered;
            if (delivered < num_requests)
                next_arrival = serve_start + arrivals.next();
            continue;
        }

        // Dispatch: the request leaves the queue at its start cycle; an
        // idle core fast-forwards to the arrival it was waiting for.
        advance_to(best_start);
        const Cycles arrived = queues[best_core].front();
        queues[best_core].pop_front();
        --waiting;
        machine.clock(best_core) =
            std::max(machine.clock(best_core), arrived);
        run_one(best_core);
        const Cycles done = machine.clock(best_core);
        hists[best_core].record(done - arrived);
    }

    finishRunMetrics(res, exp, base);

    LatencyHistogram merged;
    for (const LatencyHistogram &h : hists)
        merged.merge(h);
    ssp_assert(merged.count() + rejected == num_requests,
               "serve run lost requests");
    res.p50Cycles = merged.percentile(0.50);
    res.p99Cycles = merged.percentile(0.99);
    res.p999Cycles = merged.percentile(0.999);
    res.rejectedTxs = rejected;
    res.offeredLoad = params.offeredLoad;
    const Cycles elapsed = machine.maxClock() - serve_start;
    res.meanQueueDepth =
        elapsed == 0 ? 0 : depth_area / static_cast<double>(elapsed);
    return res;
}

} // namespace ssp::serve

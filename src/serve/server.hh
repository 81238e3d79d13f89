/**
 * @file
 * Open-loop request-server frontend over the closed-loop experiment
 * machinery.
 *
 * Where runExperiment() hands each core its next transaction the
 * instant the previous one commits (closed loop — queueing delay can
 * never exist), runServeExperiment() generates request arrivals from an
 * independent arrival process, parks them in bounded per-core FIFO
 * queues, and serves them event-driven in global arrival/completion
 * order.  Per-request latency is measured from the arrival cycle to the
 * commit-ack cycle, captured into per-core log-scale histograms, and
 * reported as exact-rank p50/p99/p999 — the metrics a serving system
 * under SLO is actually judged by.
 *
 * Offered load is specified as a factor of the machine's *measured*
 * closed-loop capacity: a short closed-loop calibration phase runs
 * first (lowest clock first, same core count), and the arrival rate is set to
 * load x calibrated throughput.  Load 1.2 therefore always means "20%
 * past what this backend/workload/core-count can sustain", regardless
 * of how fast the cell happens to be.
 *
 * Admission control: a request arriving at a full queue (kQueueDepth
 * requests) is shed and counted (rejected_txs) instead of growing the
 * queue without bound — above saturation an open-loop system must
 * either shed or diverge.
 */

#ifndef SSP_SERVE_SERVER_HH
#define SSP_SERVE_SERVER_HH

#include "serve/arrival.hh"
#include "sim/driver.hh"

namespace ssp::serve
{

/** Per-core queue bound; arrivals beyond it are shed. */
inline constexpr unsigned kQueueDepth = 64;

/** Configuration of one open-loop serving run. */
struct ServeParams
{
    /** The arrival process; Poisson is the only one. */
    ArrivalKind arrival = ArrivalKind::Poisson;
    /** Arrival rate as a factor of measured closed-loop capacity. */
    double offeredLoad = 0.6;
    /** Seed of the arrival process RNG stream (independent of the
     *  workload's key stream). */
    std::uint64_t seed = 1;
};

/**
 * Serve @p num_requests open-loop requests on @p num_cores cores.
 * Requests are balanced round-robin across the per-core queues at
 * arrival time.  The returned metrics are deltas over the
 * post-calibration state; committedTxs counts acknowledged requests and
 * rejectedTxs the shed ones (they sum to the generated arrivals).
 */
RunResult runServeExperiment(Experiment &exp, std::uint64_t num_requests,
                             unsigned num_cores, const ServeParams &params);

} // namespace ssp::serve

#endif // SSP_SERVE_SERVER_HH

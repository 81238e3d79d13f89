/**
 * @file
 * The open-loop arrival process of the request-server frontend.
 *
 * An arrival process generates the absolute cycle at which each request
 * reaches the machine, independently of how fast the machine serves them
 * — the defining property of an open-loop load generator, and the reason
 * queueing delay (and therefore tail latency) becomes visible at all.
 *
 * The process is Poisson: memoryless exponential inter-arrivals at a
 * fixed rate, deterministic per seed like every other RNG stream in the
 * simulator.
 */

#ifndef SSP_SERVE_ARRIVAL_HH
#define SSP_SERVE_ARRIVAL_HH

#include "common/rng.hh"
#include "common/types.hh"

namespace ssp::serve
{

/** The modeled arrival processes; a report names one per cell. */
enum class ArrivalKind
{
    Poisson,
};

/** Printable arrival-process name ("poisson"). */
const char *arrivalKindName(ArrivalKind kind);

/** Deterministic generator of monotone absolute Poisson arrival cycles. */
class ArrivalProcess
{
  public:
    /**
     * @p mean_interval_cycles is the long-run mean inter-arrival time;
     * the offered load in requests/cycle is its reciprocal.
     */
    ArrivalProcess(double mean_interval_cycles, std::uint64_t seed);

    /** Absolute cycle of the next arrival (non-decreasing). */
    Cycles next();

  private:
    double meanInterval_;
    Rng rng_;
    double now_ = 0;
};

} // namespace ssp::serve

#endif // SSP_SERVE_ARRIVAL_HH

#include "serve/arrival.hh"

#include <cmath>

#include "common/logging.hh"

namespace ssp::serve
{

const char *
arrivalKindName(ArrivalKind kind)
{
    switch (kind) {
      case ArrivalKind::Poisson:
        return "poisson";
    }
    ssp_panic("unreachable arrival kind");
}

ArrivalProcess::ArrivalProcess(double mean_interval_cycles,
                               std::uint64_t seed)
    : meanInterval_(mean_interval_cycles), rng_(seed)
{
    ssp_assert(mean_interval_cycles > 0,
               "arrival mean interval must be positive");
}

Cycles
ArrivalProcess::next()
{
    // Inverse-CDF exponential draw; 1 - u stays in (0, 1] so log() is
    // finite.
    now_ += -std::log(1.0 - rng_.nextDouble()) * meanInterval_;
    return static_cast<Cycles>(now_);
}

} // namespace ssp::serve

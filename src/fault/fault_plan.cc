#include "fault/fault_plan.hh"

#include "common/logging.hh"

namespace ssp::fault
{

Cycles
recoverInPlaceCycles(const SspConfig &cfg)
{
    return kRecoveryBaseCycles +
           (Cycles{cfg.journalPages} + Cycles{cfg.logPages}) *
               kRecoveryScanCyclesPerPage;
}

Cycles
failoverCycles(const shard::NetworkParams &net)
{
    const Cycles wire =
        (kShipAckBytes + net.bytesPerCycle - 1) / net.bytesPerCycle;
    const Cycles handshake = 2 * (net.rpcLatency + net.serialization + wire);
    return kFailureDetectCycles + handshake + kPromotionCycles;
}

FaultPlan::FaultPlan(const FaultParams &params, unsigned machines)
    : rate_(params.ratePerMcycle)
{
    if (rate_ <= 0)
        return;
    ssp_assert(rate_ <= 1000.0, "fault rate above one per kilocycle");
    meanInterval_ =
        static_cast<Cycles>(1'000'000.0 / rate_);
    ssp_assert(meanInterval_ >= 1, "degenerate fault interval");
    streams_.resize(machines);
    for (unsigned m = 0; m < machines; ++m) {
        // One disjoint stream per machine, mixed from the plan seed the
        // same way cells derive their own seeds — machine order never
        // couples the schedules.
        streams_[m].rng = Rng(deriveSeed(params.seed, m));
        streams_[m].next.atCycle = 0;
        draw(streams_[m]);
    }
}

void
FaultPlan::draw(Stream &s)
{
    // Integer uniform in [1, 2*mean] — mean meanInterval_ + 1/2, and
    // bit-stable everywhere (no transcendental math in the schedule).
    s.next.atCycle += 1 + s.rng.nextBounded(2 * meanInterval_);
    const std::uint64_t k = s.rng.nextBounded(10);
    if (k < 5)
        s.next.kind = FaultKind::PowerFail;
    else if (k < 8)
        s.next.kind = FaultKind::CoordinatorCrash;
    else
        s.next.kind = FaultKind::ParticipantCrash;
}

bool
FaultPlan::due(unsigned m, Cycles now) const
{
    if (streams_.empty())
        return false;
    return streams_[m].next.atCycle <= now;
}

const FaultEvent &
FaultPlan::peek(unsigned m) const
{
    ssp_assert(!streams_.empty(), "peeking an empty fault plan");
    return streams_[m].next;
}

void
FaultPlan::advance(unsigned m)
{
    ssp_assert(!streams_.empty(), "advancing an empty fault plan");
    draw(streams_[m]);
}

void
FaultPlan::absorbUntil(unsigned m, Cycles until)
{
    if (streams_.empty())
        return;
    while (streams_[m].next.atCycle <= until)
        draw(streams_[m]);
}

} // namespace ssp::fault

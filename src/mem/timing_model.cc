#include "mem/timing_model.hh"

#include "common/logging.hh"

namespace ssp
{

Cycles
MemTimingParams::readHitLatency() const
{
    return static_cast<Cycles>(static_cast<double>(readLatency) *
                               rowHitFraction);
}

Cycles
MemTimingParams::writeHitLatency() const
{
    return static_cast<Cycles>(static_cast<double>(writeLatency) *
                               writeHitFraction);
}

MemTimingModel::MemTimingModel(const MemTimingParams &params)
    : params_(params), readHitLatency_(params.readHitLatency()),
      writeHitLatency_(params.writeHitLatency()), banks_(params.banks)
{
    ssp_assert(params.banks > 0);
    ssp_assert(params.rowBufferBytes >= kLineSize);
}

unsigned
MemTimingModel::bankOf(Addr addr) const
{
    // Interleave consecutive rows across banks.
    return static_cast<unsigned>((addr / params_.rowBufferBytes) %
                                 params_.banks);
}

std::uint64_t
MemTimingModel::rowOf(Addr addr) const
{
    return addr / (params_.rowBufferBytes * params_.banks);
}

Cycles
MemTimingModel::access(Addr addr, bool is_write, Cycles now,
                       bool background)
{
    Bank &bank = banks_[bankOf(addr)];
    const std::uint64_t row = rowOf(addr);

    const bool row_hit = (bank.openRow == row);
    Cycles latency;
    if (row_hit) {
        ++rowHits_;
        latency = is_write ? writeHitLatency_ : readHitLatency_;
    } else {
        ++rowMisses_;
        latency = is_write ? params_.writeLatency : params_.readLatency;
    }
    if (is_write)
        ++writes_;
    else
        ++reads_;

    Cycles start = std::max(now, bank.freeAt);
    if (background) {
        // Background writes (consolidation, checkpoints, post-commit
        // write-back, evictions) drain opportunistically in idle slots
        // under write-priority scheduling: estimate their completion
        // but do not occupy the bank, so nothing on the critical path
        // ever queues behind them.
        return start + latency;
    }
    // Foreground writes additionally share the channel's data bus: a
    // batch of independent flushes costs bank-parallel array time plus
    // one bus burst slot each.
    if (is_write) {
        start = std::max(start, writeBusFreeAt_);
        writeBusFreeAt_ = start + kWriteBurstCycles;
    }
    const Cycles done = start + latency;
    bank.freeAt = done;
    bank.openRow = row;
    return done;
}

void
MemTimingModel::reset()
{
    for (auto &bank : banks_)
        bank = Bank{};
    writeBusFreeAt_ = 0;
}

} // namespace ssp

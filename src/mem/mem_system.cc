#include "mem/mem_system.hh"

#include "common/logging.hh"

namespace ssp
{

MemChannelGroup::MemChannelGroup(const MemTimingParams &params,
                                 unsigned channels)
    : params_(params)
{
    ssp_assert(channels > 0, "a channel group needs at least one channel");
    channels_.reserve(channels);
    for (unsigned c = 0; c < channels; ++c)
        channels_.emplace_back(params);
    readBusFreeAt_.assign(channels, 0);
}

unsigned
MemChannelGroup::channelOf(Addr addr) const
{
    return static_cast<unsigned>(pageOf(addr) % channels_.size());
}

Addr
MemChannelGroup::channelLocalAddr(Addr addr) const
{
    // Fold the round-robin channel bits out: page p of the global space
    // becomes page p/N of its channel, preserving the offset within the
    // page.  Identity for one channel, so single-channel timing is
    // bit-identical to the bare MemTimingModel.
    return pageBase(pageOf(addr) / channels_.size()) + pageOffset(addr);
}

Cycles
MemChannelGroup::access(Addr addr, bool is_write, Cycles now,
                        bool background)
{
    // Hot path: derive channel and local address from one page number
    // instead of re-dividing in channelOf/channelLocalAddr.
    const Ppn page = pageOf(addr);
    const std::size_t n = channels_.size();
    const std::size_t idx = page % n;
    MemTimingModel &ch = channels_[idx];
    const Addr local = pageBase(page / n) + pageOffset(addr);
    if (background || is_write)
        return ch.access(local, is_write, now, background);
    // Foreground reads arbitrate the channel's command/data bus: each
    // occupies one burst slot, so concurrent cores queue on the channel
    // instead of overlapping for free.  A lone core's reads are
    // blocking and therefore spaced by at least one device latency —
    // the bus is always free again by then, keeping single-core timing
    // bit-identical.
    const Cycles issue = std::max(now, readBusFreeAt_[idx]);
    readBusFreeAt_[idx] = issue + kReadBurstCycles;
    return ch.access(local, false, issue, false);
}

std::uint64_t
MemChannelGroup::rowHits() const
{
    std::uint64_t n = 0;
    for (const MemTimingModel &ch : channels_)
        n += ch.rowHits();
    return n;
}

std::uint64_t
MemChannelGroup::rowMisses() const
{
    std::uint64_t n = 0;
    for (const MemTimingModel &ch : channels_)
        n += ch.rowMisses();
    return n;
}

std::uint64_t
MemChannelGroup::reads() const
{
    std::uint64_t n = 0;
    for (const MemTimingModel &ch : channels_)
        n += ch.reads();
    return n;
}

std::uint64_t
MemChannelGroup::writes() const
{
    std::uint64_t n = 0;
    for (const MemTimingModel &ch : channels_)
        n += ch.writes();
    return n;
}

void
MemChannelGroup::reset()
{
    for (MemTimingModel &ch : channels_)
        ch.reset();
    readBusFreeAt_.assign(channels_.size(), 0);
}

} // namespace ssp

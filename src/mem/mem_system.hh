/**
 * @file
 * The MemSystem layer: channel-level parallelism for one memory
 * technology.
 *
 * The paper's evaluation runs on a single DRAM/NVRAM channel pair; this
 * layer generalizes each side of that pair into a MemChannelGroup that
 * interleaves pages across N identically-parameterized channels
 * (MemTimingModel instances): consecutive 4 KiB pages rotate
 * round-robin across channels, so each page's row locality stays inside
 * one channel, and each channel sees a compacted channel-local address
 * space so its bank/row geometry behaves as if the channel owned a
 * contiguous memory of its own.  With one channel the group is
 * bit-identical to the bare timing model — the paper's Figure 5–9
 * configurations are untouched.
 *
 * The group also arbitrates each channel's command/data bus for
 * foreground reads: concurrent cores queue on the channel instead of
 * timing in isolation.  Foreground writes already serialize on the
 * per-channel write data bus inside MemTimingModel, and a single core's
 * reads are blocking (the next read issues only after the previous
 * completion, and every device read latency exceeds the burst slot), so
 * single-core timing is unchanged.
 */

#ifndef SSP_MEM_MEM_SYSTEM_HH
#define SSP_MEM_MEM_SYSTEM_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "mem/timing_model.hh"

namespace ssp
{

/**
 * N parallel channels of one memory technology behind a single access
 * interface.
 *
 * Every channel is an independent MemTimingModel (its own banks, row
 * buffers and foreground write bus), so requests to different channels
 * never queue behind each other.  channelOf() picks the channel from
 * the page number; channelLocalAddr() folds the channel bits out of
 * the address so each channel's bank/row mapping operates on its own
 * dense address space.  Both are the identity for one channel.
 */
class MemChannelGroup
{
  public:
    MemChannelGroup(const MemTimingParams &params, unsigned channels);

    /**
     * Issue a line-sized access; routes to the owning channel.  Same
     * contract as MemTimingModel::access (background traffic occupies
     * nothing on the critical path).
     * @return Completion time in core cycles (>= now).
     */
    Cycles access(Addr addr, bool is_write, Cycles now,
                  bool background = false);

    /** Channel owning @p addr's page. */
    unsigned channelOf(Addr addr) const;

    /** @p addr folded into the owning channel's dense address space. */
    Addr channelLocalAddr(Addr addr) const;

    unsigned channelCount() const
    {
        return static_cast<unsigned>(channels_.size());
    }
    MemTimingModel &channel(unsigned idx) { return channels_[idx]; }
    const MemTimingModel &channel(unsigned idx) const
    {
        return channels_[idx];
    }

    const MemTimingParams &params() const { return params_; }

    // Aggregate traffic stats, summed over channels.
    std::uint64_t rowHits() const;
    std::uint64_t rowMisses() const;
    std::uint64_t reads() const;
    std::uint64_t writes() const;

    /** Forget all bank state (used across simulated power cycles). */
    void reset();

  private:
    /**
     * Command/data-bus burst occupancy per foreground read (core
     * cycles).  Matches MemTimingModel::kWriteBurstCycles and is below
     * every device's row-hit read latency, so a lone core — whose reads
     * are strictly ordered — never observes the bus busy.
     */
    static constexpr Cycles kReadBurstCycles = 24;

    MemTimingParams params_;
    std::vector<MemTimingModel> channels_;
    /** Per-channel busy-until time of the foreground read bus. */
    std::vector<Cycles> readBusFreeAt_;
};

/**
 * Full description of the machine's memory system: one DRAM channel and
 * a group of NVRAM channels.  SspConfig produces this via
 * SspConfig::memSystem(); MemoryBus consumes it.
 */
struct MemSystemParams
{
    MemTimingParams dram{};
    MemTimingParams nvram{};
    unsigned nvramChannels = 1;
};

} // namespace ssp

#endif // SSP_MEM_MEM_SYSTEM_HH

/**
 * @file
 * Full configuration of the simulated machine (paper Table 2) and of the
 * SSP mechanism, plus the physical-address-space layout.
 *
 * Default latencies assume a 3.7 GHz core: 50 ns = 185 cycles,
 * 200 ns = 740 cycles.
 */

#ifndef SSP_CORE_CONFIG_HH
#define SSP_CORE_CONFIG_HH

#include <cstdint>

#include "cache/hierarchy.hh"
#include "common/types.hh"
#include "mem/mem_system.hh"
#include "mem/timing_model.hh"
#include "nvram/ssp_cache.hh"

namespace ssp
{

/** Everything configurable about the simulated system. */
struct SspConfig
{
    // ---- machine ------------------------------------------------------
    unsigned numCores = 1;
    unsigned tlbEntries = 64; ///< Table 2: 64 DTLB entries

    HierarchyParams caches{};

    /**
     * Coherence interconnect model: the default flat broadcast bus
     * (every event costs one fixed bus traversal regardless of sharer
     * count) or the 2D-mesh home-node directory (hop-scaled multicast
     * to the actual sharers, capacity-limited snoop filter).  See
     * cache/coherence.hh and interconnect/directory.hh.
     */
    CoherenceParams coherence{};

    /** Table 2 DRAM: 64 banks, 1 KiB row buffers, 50 ns symmetric
     *  access; writes enjoy the same row-buffer discount as reads. */
    MemTimingParams dram{64, 1024, nsToCycles(50), nsToCycles(50),
                         0.4, 0.4};
    /** Table 2 PCM-like NVRAM: 50 ns reads, 200 ns writes; cell
     *  programming dominates writes, so the row buffer gives no write
     *  discount. */
    MemTimingParams nvram{32, 2048, nsToCycles(50), nsToCycles(200),
                          0.4, 1.0};

    /** Parallel NVRAM channels, page-interleaved; 1 is the paper's
     *  channel pair (DRAM always has one channel). */
    unsigned nvramChannels = 1;

    /**
     * Figure 8 sweep: when > 0, NVRAM read and write latency are both
     * set to multiplier x DRAM latency (the paper's x-axis is "NVRAM
     * latency in multiples of DRAM latency").
     */
    double nvramLatencyMultiplier = 0;

    // ---- persistent-heap layout (physical pages) -----------------------
    std::uint64_t heapPages = 1 << 16;      ///< 256 MiB persistent heap
    std::uint64_t shadowPoolPages = 2048;   ///< reserved for P1 pages
    std::uint64_t journalPages = 512;       ///< metadata journal area
    std::uint64_t logPages = 8192;          ///< undo/redo log area
    std::uint64_t dramPages = 4096;         ///< volatile region

    // ---- SSP specifics --------------------------------------------------
    /** Overprovisioning factor O (section 4.1.2). */
    static constexpr unsigned kSspCacheOverprovision = 64;
    /** SSP cache slots; 0 means "cores x TLB entries + overprovision". */
    unsigned sspCacheSlots = 0;
    std::uint64_t checkpointThresholdBytes = 64 * 1024;
    SspCacheLatencyParams sspCacheLatency{};

    // ---- derived layout -------------------------------------------------
    std::uint64_t
    nvramPages() const
    {
        return heapPages + shadowPoolPages + journalPages + logPages;
    }
    Ppn shadowPoolBase() const { return heapPages; }
    Addr
    journalBase() const
    {
        return pageBase(heapPages + shadowPoolPages);
    }
    std::uint64_t journalBytes() const { return journalPages * kPageSize; }
    Addr
    logBase() const
    {
        return pageBase(heapPages + shadowPoolPages + journalPages);
    }
    std::uint64_t logBytes() const { return logPages * kPageSize; }

    unsigned
    effectiveSspSlots() const
    {
        if (sspCacheSlots != 0)
            return sspCacheSlots;
        return numCores * tlbEntries + kSspCacheOverprovision;
    }

    /** NVRAM timing after applying the Figure 8 multiplier. */
    MemTimingParams
    effectiveNvram() const
    {
        MemTimingParams p = nvram;
        if (nvramLatencyMultiplier > 0) {
            Cycles lat = static_cast<Cycles>(
                static_cast<double>(dram.readLatency) *
                nvramLatencyMultiplier);
            p.readLatency = lat;
            p.writeLatency = lat;
        }
        return p;
    }

    /** The full memory-system description the Machine builds from. */
    MemSystemParams
    memSystem() const
    {
        return MemSystemParams{dram, effectiveNvram(), nvramChannels};
    }
};

} // namespace ssp

#endif // SSP_CORE_CONFIG_HH

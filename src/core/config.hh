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
#include "common/logging.hh"
#include "common/types.hh"
#include "mem/mem_system.hh"
#include "mem/timing_model.hh"

namespace ssp
{

/** A byte range of the NVRAM address space. */
struct NvramRegion
{
    Addr base = 0;
    std::uint64_t bytes = 0;
};

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
    /** When non-zero, every SSP-cache access costs exactly this many
     *  cycles instead of the L3-partition hot-set model (Figure 9). */
    Cycles sspCacheFixedLatency = 0;

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

    /**
     * The persistent SSP cache's slot lines, one per slot, carved off
     * the top of the journal area so checkpoint writes never alias
     * journal-append lines on the bank/channel layout.  Fatal when the
     * journal area cannot also keep two checkpoint thresholds of
     * headroom, or when the shadow pool cannot give every slot its
     * extra page.
     */
    NvramRegion
    persistentSspCache() const
    {
        const unsigned slots = effectiveSspSlots();
        const std::uint64_t bytes = std::uint64_t{slots} * kLineSize;
        if (journalBytes() <= bytes + 2 * checkpointThresholdBytes) {
            ssp_fatal("journal area (%llu bytes) too small for %u "
                      "persistent slot lines plus journal headroom; raise "
                      "journalPages",
                      static_cast<unsigned long long>(journalBytes()),
                      slots);
        }
        if (shadowPoolPages < slots) {
            ssp_fatal("shadow pool (%llu pages) smaller than the SSP cache "
                      "(%u slots); every slot needs an extra page",
                      static_cast<unsigned long long>(shadowPoolPages),
                      slots);
        }
        return {journalBase() + journalBytes() - bytes, bytes};
    }

    /** The SSP metadata journal proper: the journal area below the
     *  persistent SSP cache. */
    NvramRegion
    sspJournal() const
    {
        return {journalBase(), persistentSspCache().base - journalBase()};
    }

    /**
     * Core @p core's undo/redo log.  The log area splits into one
     * line-aligned stride per core (a plain division would misalign
     * every region past the first at non-power-of-two core counts);
     * region c starts c NVRAM rows into its stride, so the regions map
     * to different banks as a real controller interleaves them.  Fatal
     * when a stride cannot hold the stagger.
     */
    NvramRegion
    coreLog(unsigned core) const
    {
        const std::uint64_t stride = lineBase(logBytes() / numCores);
        const std::uint64_t stagger =
            std::uint64_t{numCores} * nvram.rowBufferBytes;
        if (stride <= stagger) {
            ssp_fatal("log area too small for %u staggered per-core "
                      "regions; raise logPages",
                      numCores);
        }
        return {logBase() + core * (stride + nvram.rowBufferBytes),
                stride - stagger};
    }

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

/**
 * @file
 * Memory bus: routes line-granular requests to the DRAM or NVRAM channel
 * group and accounts NVRAM write traffic by category.
 *
 * The write categories are exactly the series the paper's Figure 6 and
 * Figure 7 plot: transactional data writes, log writes (undo/redo),
 * metadata-journal writes, page-consolidation copies, checkpoint writes,
 * and (for the conventional-shadow-paging ablation) whole-page CoW copies.
 * The accounting is independent of the channel layout — a request is
 * categorized before the channel group picks the channel that times it.
 */

#ifndef SSP_MEM_MEMORY_BUS_HH
#define SSP_MEM_MEMORY_BUS_HH

#include <array>
#include <cstdint>

#include "common/stats.hh"
#include "common/types.hh"
#include "mem/mem_system.hh"
#include "mem/phys_mem.hh"
#include "mem/timing_model.hh"

namespace ssp
{

/** Why an NVRAM line was written; drives the Figure 6/7 accounting. */
enum class WriteCategory : unsigned
{
    Data = 0,        ///< committed transactional data (clwb / write-back)
    UndoLog,         ///< undo-log entries (baseline)
    RedoLog,         ///< redo-log entries (baseline)
    MetaJournal,     ///< SSP metadata-journal appends
    Consolidation,   ///< SSP page-consolidation copies
    Checkpoint,      ///< SSP persistent-SSP-cache checkpoint writes
    PageCopy,        ///< conventional shadow-paging page CoW (ablation)
    Other,           ///< anything else (allocator metadata, etc.)
    NumCategories
};

/** Printable name of a write category. */
const char *writeCategoryName(WriteCategory cat);

/**
 * The memory system of the simulated machine: one channel group per
 * technology — a single DRAM channel and N page-interleaved NVRAM
 * channels.
 *
 * All timing flows through issueRead()/issueWrite(); the caller decides
 * whether to stall on the returned completion time (critical path) or to
 * ignore it (background traffic that only occupies banks).
 */
class MemoryBus
{
  public:
    MemoryBus(PhysMem &mem, const MemSystemParams &params);

    /** Single-channel convenience form (the paper's channel pair). */
    MemoryBus(PhysMem &mem, const MemTimingParams &dram_params,
              const MemTimingParams &nvram_params);

    /** Issue a line read; returns completion time. */
    Cycles issueRead(Addr line_addr, Cycles now);

    /**
     * Issue a line write; returns completion time.  NVRAM writes are
     * accounted under @p cat; DRAM writes are only counted in bulk.
     * @param background True for writes nothing on the critical path
     *        stalls behind (consolidation, checkpoints, post-commit
     *        write-back, cache evictions).
     */
    Cycles issueWrite(Addr line_addr, WriteCategory cat, Cycles now,
                      bool background = false);

    /** Total NVRAM line writes across all categories. */
    std::uint64_t nvramWrites() const;

    /** NVRAM line writes in category @p cat. */
    std::uint64_t
    nvramWrites(WriteCategory cat) const
    {
        return nvramWriteCount_[static_cast<unsigned>(cat)];
    }

    std::uint64_t nvramReads() const { return nvramReads_; }
    std::uint64_t dramReads() const { return dramReads_; }
    std::uint64_t dramWrites() const { return dramWrites_; }

    MemChannelGroup &dramGroup() { return dram_; }
    MemChannelGroup &nvramGroup() { return nvram_; }
    const MemChannelGroup &dramGroup() const { return dram_; }
    const MemChannelGroup &nvramGroup() const { return nvram_; }
    PhysMem &mem() { return mem_; }

    /** Zero all traffic counters (timing state is kept). */
    void resetStats();

    /** Forget bank state across a simulated power cycle. */
    void resetTiming();

  private:
    PhysMem &mem_;
    MemChannelGroup dram_;
    MemChannelGroup nvram_;
    std::array<std::uint64_t,
               static_cast<unsigned>(WriteCategory::NumCategories)>
        nvramWriteCount_{};
    std::uint64_t nvramReads_ = 0;
    std::uint64_t dramReads_ = 0;
    std::uint64_t dramWrites_ = 0;
};

} // namespace ssp

#endif // SSP_MEM_MEMORY_BUS_HH
